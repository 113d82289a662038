"""Every name a package module imports is used in that module, and importing
one module loads only the modules its own relative imports reach.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ccsradar"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def unused_imports(path):
    """(line, name) of each name path's imports bind that its code never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_package_modules_use_every_import():
    found = [f"{path.name}:{line} {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(path)]
    assert found == []


def _qualname(stem):
    return "ccsradar" if stem == "__init__" else f"ccsradar.{stem}"


def relative_imports(stem):
    """Qualified names of the package modules stem's relative imports name.

    "from .x import y" names ccsradar.x; "from . import y" names ccsradar.y when y
    is a module of the package and the package root otherwise.
    """
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        if node.module:
            found.add(_qualname(node.module))
        else:
            found |= {_qualname(a.name) if a.name in MODULES else "ccsradar" for a in node.names}
    return found


GRAPH = {_qualname(stem): relative_imports(stem) for stem in MODULES}


def closure(name):
    """name, the package root and every module reachable through GRAPH from them."""
    seen, todo = set(), [name, "ccsradar"]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(GRAPH[node])
    return seen


def test_relative_import_graph_has_no_cycle():
    done, active = set(), []

    def visit(node):
        if node in active:
            pytest.fail("import cycle: " + " -> ".join(active[active.index(node):] + [node]))
        if node in done:
            return
        active.append(node)
        for succ in sorted(GRAPH[node]):
            visit(succ)
        active.pop()
        done.add(node)

    for node in sorted(GRAPH):
        visit(node)


_PROBE = """
import importlib, json, sys
loaded = {}
for name in sys.argv[1:]:
    for mod in [m for m in sys.modules if m == "ccsradar" or m.startswith("ccsradar.")]:
        del sys.modules[mod]
    importlib.import_module(name)
    loaded[name] = sorted(m for m in sys.modules if m == "ccsradar" or m.startswith("ccsradar."))
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded_modules():
    """Package modules in sys.modules after importing each module with none loaded."""
    out = subprocess.run([sys.executable, "-c", _PROBE, *GRAPH], check=True,
                         capture_output=True, text=True, cwd=SRC.parent)
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", sorted(GRAPH))
def test_import_loads_only_its_own_imports(loaded_modules, name):
    assert set(loaded_modules[name]) == closure(name)


def test_root_and_coding_load_nothing_else(loaded_modules):
    assert loaded_modules["ccsradar"] == ["ccsradar"]
    assert loaded_modules["ccsradar.coding"] == ["ccsradar", "ccsradar._rng", "ccsradar.coding"]

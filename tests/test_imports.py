"""Every name a package module imports is used in that module, every public
name of the package has a caller in the program, and importing one module loads
only the modules its own relative imports reach.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ccsradar"
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


# The program: the package, the scripts and the benchmark harness, not its tests.
PROGRAM = (sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
           + sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")))


def public_defs(path):
    """(qualified name, name) of each public function or class at the top of
    path, and of each public method or property of its public classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def referenced_names(paths):
    """Every identifier, attribute name and string constant in paths' code; a
    string constant names what a table such as the benchmark tracer's wraps."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def uncalled(modules, callers):
    """Qualified names of modules' public defs that no code in callers names."""
    used = referenced_names(callers)
    return sorted(qual for path in modules for qual, name in public_defs(path)
                  if name not in used)


def test_package_public_names_have_a_caller():
    assert uncalled(sorted(SRC.glob("*.py")), PROGRAM) == []


def test_caller_guard_finds_a_planted_def(tmp_path):
    lib, main = tmp_path / "lib.py", tmp_path / "main.py"
    lib.write_text("def used(): pass\n"
                   "def planted(): pass\n"
                   "def _private(): pass\n"
                   "class Table:\n"
                   "    def read(self): pass\n"
                   "    def unread(self): pass\n", encoding="utf-8")
    main.write_text("import lib\nlib.used()\nt = lib.Table()\nt.read()\n", encoding="utf-8")
    assert uncalled([lib], [lib, main]) == ["lib.Table.unread", "lib.planted"]


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
    assert loaded_modules["ccsradar.coding"] == ["ccsradar", "ccsradar.coding"]


def test_scene_loads_nothing_else(loaded_modules):
    assert loaded_modules["ccsradar.scene"] == ["ccsradar", "ccsradar.scene"]

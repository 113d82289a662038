"""Every name a package module imports is used in that module, every public
name of the package has a caller in the program, every option of the package
takes more than one value there, and importing one module loads only the
modules its own relative imports reach.
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


def _decorators(node):
    return {ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}


def _is_ini(value):
    return isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
        and value.func.id == "_ini"


def _signature(fn, bound):
    """(positional parameter names, defaulted parameter names) of def fn; a
    bound method's caller does not pass its first parameter."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    with_default = positional[len(positional) - len(a.defaults):]
    with_default += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional[1:] if bound else positional, with_default


def options(path):
    """(qualified name, called name, positional names, defaulted names) of each
    def at module or class level of path, dunders skipped, and of each
    dataclass with its fields as the parameters of its constructor.
    ExperimentConfig's _ini fields are INI keys, not options, and are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    fns = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, fns) and not node.name.startswith("__"):
            yield (f"{path.stem}.{node.name}", node.name, *_signature(node, False))
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, fns) and not item.name.startswith("__"):
                yield (f"{path.stem}.{node.name}.{item.name}", item.name,
                       *_signature(item, "staticmethod" not in _decorators(item)))
        if "dataclass" in _decorators(node):
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            yield (f"{path.stem}.{node.name}", node.name, [f.target.id for f in fields],
                   [f.target.id for f in fields if f.value is not None and not _is_ini(f.value)])


def call_sites(paths):
    """{called name: [(positional argument count, keyword names)]} of every call
    in paths' code, by the ast.Name or ast.Attribute it calls; a *args or
    **kwargs argument passes every parameter it could fill."""
    sites = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            n_pos = float("inf") if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            sites.setdefault(name, []).append((n_pos, keywords))
    return sites


def constant_options(modules, callers):
    """module.def.parameter for each defaulted parameter (or dataclass field) of
    modules' defs that callers' call sites of that def never pass, or always
    pass.  A def no call site names is skipped: cli reaches the drivers and
    checks by string, so their options are out of this guard's reach."""
    sites = call_sites(callers)
    found = []
    for path in modules:
        for qual, name, positional, with_default in options(path):
            calls = sites.get(name, [])
            if not calls:
                continue
            for param in with_default:
                index = positional.index(param) if param in positional else float("inf")
                passed = [None in kw or param in kw or index < n_pos for n_pos, kw in calls]
                if all(passed) or not any(passed):
                    found.append(f"{qual}.{param}")
    return sorted(found)


# defaulted parameters allowed to hold one value throughout the program, each
# with the reason it must stay settable
CONSTANT_OPTIONS = []


def test_package_options_vary_in_the_program():
    # a settable value stays only where two program callers set it differently;
    # run_near_far(dump_dir=None) is not judged, as cli calls it by string
    assert constant_options(sorted(SRC.glob("*.py")), PROGRAM) == CONSTANT_OPTIONS


def test_option_guard_finds_planted_defaults(tmp_path):
    lib, main = tmp_path / "lib.py", tmp_path / "main.py"
    lib.write_text("from dataclasses import dataclass\n"
                   "def always_passed(x, y=1): pass\n"
                   "def never_passed(x, y=1): pass\n"
                   "def varied(x, *, y=1): pass\n"
                   "def by_string(x, y=1): pass\n"
                   "@dataclass\n"
                   "class Scene:\n"
                   "    a: int\n"
                   "    b: int = 0\n"
                   "    def move(self, by=1): pass\n", encoding="utf-8")
    main.write_text("import lib\n"
                    "lib.always_passed(0, 2)\nlib.always_passed(0, y=3)\n"
                    "lib.never_passed(0)\nlib.never_passed(1)\n"
                    "lib.varied(0)\nlib.varied(0, y=2)\n"
                    "s = lib.Scene(1, 2)\ns.move()\n", encoding="utf-8")
    assert constant_options([lib], [lib, main]) == [
        "lib.Scene.b", "lib.Scene.move.by", "lib.always_passed.y", "lib.never_passed.y"]


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

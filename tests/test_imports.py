"""Every name a package module imports is used in that module.

__init__.py is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ccsradar"


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
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path)]
    assert found == []

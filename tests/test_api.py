"""The public API: every name the package exports resolves, and no module
imports a name it never uses."""

import ast
from pathlib import Path

import snapclust


def test_all_names_resolve():
    missing = [name for name in snapclust.__all__ if not hasattr(snapclust, name)]
    assert missing == []
    assert len(set(snapclust.__all__)) == len(snapclust.__all__)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_plain_and_dotted_names():
    assert unused_imports("import os\nimport a.b as c\nfrom x import y, z\nz()\n") == [
        "os (line 1)", "c (line 2)", "y (line 3)"
    ]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_no_module_imports_an_unused_name():
    package = Path(snapclust.__file__).parent
    found = {
        path.name: unused
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}

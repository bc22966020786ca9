"""The public API: every name the package exports resolves, no module
imports a name it never uses, no private top-level name is dead, and
every name the benchmark's tracer patches still exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import snapclust


def test_all_names_resolve():
    missing = [name for name in snapclust.__all__ if not hasattr(snapclust, name)]
    assert missing == []
    assert len(set(snapclust.__all__)) == len(snapclust.__all__)


def test_import_loads_every_module_but_the_cli():
    # a module that `import snapclust` never loads is an orphan nothing reaches
    package = Path(snapclust.__file__).parent
    modules = {f"snapclust.{path.stem}" for path in package.glob("*.py")}
    modules -= {"snapclust.__init__", "snapclust.cli"}
    code = f"import snapclust, sys; print(sorted(set({sorted(modules)!r}) - set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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


def referenced_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level `_name` functions, classes and constants that no other
    top-level statement of any of the modules refers to."""
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    refs = [referenced_names(node) for _, node in statements]
    dead = []
    for i, (module, node) in enumerate(statements):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in defined:
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in r for j, r in enumerate(refs) if j != i):
                dead.append(f"{module}:{name}")
    return dead


def test_private_name_check_sees_functions_classes_and_constants():
    a = "def _rec(n):\n    return _rec(n - 1)\n_USED = 1\n_DEAD = 2\nclass _C:\n    pass\n"
    b = "from a import _helper\nimport a\nx = a._USED\n"
    c = "def _helper():\n    pass\n__all__ = []\n"
    assert unreferenced_private_names({"a": a, "b": b, "c": c}) == ["a:_rec", "a:_DEAD", "a:_C"]


def test_no_private_top_level_name_is_dead():
    package = Path(snapclust.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_every_trace_hook_resolves_where_its_module_imports(monkeypatch):
    # perfbench/trace.py patches the names its HOOKS list; a refactor that
    # moves one would leave that layer reading 0 with no other test failing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, trace)  # for its dataclasses
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(trace)
    unresolved = []
    for name, module, attr in trace.HOOKS:
        try:
            importlib.import_module(module)
        except ImportError:
            continue  # a hook on a module the package no longer has
        if trace._resolve(module, attr) is None:
            unresolved.append(name)
    assert unresolved == []

"""The runtime is pure stdlib (`dependencies = []` in pyproject.toml): every
import in src/sdlp names a standard-library module or sdlp itself, and
sits at module level, where a reader of the file's head sees it."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sdlp"


def imported_modules(tree):
    """Top-level names of the modules a parsed file imports; relative
    imports stay inside the package and are skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def nested_imports(tree):
    """Line numbers of the imports inside a function or class body."""
    return {
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_sdlp(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted({m for m in imported_modules(tree) if m != "sdlp" and m not in sys.stdlib_module_names})
    assert not foreign, f"{path.name} imports non-stdlib modules {foreign}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = sorted(nested_imports(tree))
    assert not nested, f"{path.name} imports inside a function or class body at lines {nested}"


def test_the_guard_sees_a_nested_import():
    tree = ast.parse(
        "import os\n"
        "def f():\n    import math\n"
        "class C:\n    from . import ff\n"
        "    def g(self):\n        def h():\n            import json\n"
    )
    assert sorted(nested_imports(tree)) == [3, 5, 8]


def test_the_guard_sees_a_foreign_import():
    tree = ast.parse("import os\nfrom numpy import array\nfrom . import ff\nimport sdlp.groups\n")
    assert sorted(imported_modules(tree)) == ["numpy", "os", "sdlp"]


def test_every_runtime_file_is_checked():
    assert {p.name for p in SRC.glob("*.py")} >= {"__init__.py", "ff.py", "groups.py", "oracles.py", "solvers.py"}

"""The package has one packer of F_p coefficient vectors, `ff.Slots`: every
Kronecker-packed product in src/sdlp, of field elements, ring coefficients
or the rows of a fixed matrix, puts its values into slots through it, and
`ff._slot_size` picks every slot width. Packing fixed-width values into
bytes takes `struct`, so an `import struct` anywhere but `ff.py` is a
second packer, and this guard keeps `grep` finding only the one."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sdlp"
THE_PACKER = "ff.py"


def struct_imports(tree):
    """The line of every `import struct` or `from struct import ...`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names if alias.name.split(".")[0] == "struct"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "struct":
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_ff_imports_struct(path):
    lines = struct_imports(ast.parse(path.read_text(), filename=str(path)))
    if path.name == THE_PACKER:
        assert len(lines) == 1, f"{path.name} imports struct at {lines}"
    else:
        assert lines == [], f"{path.name} imports struct at {lines}: pack through ff.Slots"


def test_the_guard_sees_each_form():
    tree = ast.parse(
        "import struct\n"
        "import os, struct as s\n"
        "from struct import pack\n"
        "def f():\n    import struct\n"
        "from .struct import x\n"
        "import structlog\n"
    )
    assert struct_imports(tree) == [1, 2, 3, 5]

"""The package has one square-and-multiply loop, `integers._pow`: every
power in src/sdlp, of field elements, ring elements, matrices or
endomorphisms, runs through it. A loop that halves an exponent (`>>= 1`)
or walks its binary digits (`bin(`) anywhere else is a second one, so
this guard keeps `grep` finding only the one."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sdlp"
THE_LOOP = ("integers.py", "_pow")
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _walks_bits(node):
    """A `>>= 1` or a call of `bin`."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.RShift) and isinstance(node.value, ast.Constant) and node.value.value == 1
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "bin"


def bit_loops(tree):
    """(enclosing function, line) of every loop that walks bits; the
    function is dotted through its enclosing classes and functions, and
    is empty at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            elif isinstance(child, LOOPS) and any(map(_walks_bits, ast.walk(child))):
                found.append((".".join(scope), child.lineno))
            else:
                visit(child, scope)

    visit(tree, [])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_binary_power_loop_outside_pow(path):
    loops = bit_loops(ast.parse(path.read_text(), filename=str(path)))
    allowed = [THE_LOOP[1]] if path.name == THE_LOOP[0] else []
    assert [scope for scope, _ in loops] == allowed, f"{path.name} walks exponent bits at {loops}"


def test_the_guard_sees_each_form():
    tree = ast.parse(
        "def f(x, n):\n    while n:\n        n >>= 1\n"
        "class C:\n    def g(self, n):\n        for bit in bin(n)[3:]:\n            pass\n"
        "        return [b for b in bin(n)]\n"
        "def h(n):\n    return n >> 1, bin(n).count('1')\n"
    )
    assert bit_loops(tree) == [("f", 2), ("C.g", 6), ("C.g", 8)]

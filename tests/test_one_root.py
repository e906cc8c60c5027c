"""A subgroup's elements belong to its root group, and `GroupHandle.root`
is the one place that finds it: only class `Subgroup` reads `.parent`.
Code that unwraps a subgroup by hand (`while isinstance(g, Subgroup): g =
g.parent`) elsewhere is a second way to find the root, so this guard
keeps `grep` finding only the one."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sdlp"
OWNER = "Subgroup"


def parent_reads(tree):
    """(enclosing scope, line) of every `.parent` read outside class
    Subgroup; the scope is dotted through enclosing classes and functions,
    and is empty at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == OWNER:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == "parent":
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, [])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_subgroup_reads_parent(path):
    reads = parent_reads(ast.parse(path.read_text(), filename=str(path)))
    assert reads == [], f"{path.name} reads .parent outside {OWNER} at {reads}"


def test_the_guard_sees_each_form():
    tree = ast.parse(
        "def f(g):\n    while isinstance(g, Subgroup):\n        g = g.parent\n"
        "class Subgroup:\n    def root(self):\n        return self.parent.root\n"
        "class C:\n    def h(self, s):\n        return [x.parent for x in s]\n"
        "top = grp.parent.field\n"
    )
    assert parent_reads(tree) == [("f", 3), ("C.h", 9), ("", 10)]

"""Lint gate: one rule for every sparse sum.

``linalg.accumulate`` adds a term into a dict and deletes the key where
the sum cancels.  Any other ``del d[k]`` in ``src/heckedem`` would be a
second copy of that rule or a zero filter after it, so the one allowed is
inside ``accumulate``.  ``ALLOWED`` names the exceptions, each with its
reason, as (module, qualified function name).
"""

import ast
from pathlib import Path

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "heckedem").glob("*.py"))

ALLOWED: dict = {}


def deletions(tree) -> list:
    """The qualified name of the function or class around each ``del x[k]``
    in tree, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Delete) and any(isinstance(t, ast.Subscript) for t in child.targets):
                found.append(scope)
            visit(child, scope)

    visit(tree, "")
    return found


def test_scanner_finds_each_subscript_deletion_and_its_scope():
    source = (
        "def f(d):\n    if d:\n        del d[1]\n\n"
        "class C:\n    def g(self, d):\n        del self.x, d['k']\n\n"
        "x = {}\ndel x[0]\ndel x\n"
    )
    assert deletions(ast.parse(source)) == ["f", "C.g", ""]


def test_the_only_subscript_deletion_in_src_is_in_accumulate():
    found = sorted((path.stem, scope) for path in SRC for scope in deletions(ast.parse(path.read_text())))
    assert [f for f in found if f not in ALLOWED] == [("linalg", "accumulate")]
    # an allowed deletion that is gone leaves the list
    assert sorted(set(ALLOWED) - set(found)) == []

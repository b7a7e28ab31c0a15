"""Lint gate: one home for the quadratic relation.

``hecke.q_minus_1`` says which flavor has the (q - 1) term of T_g^2 =
(q - 1) T_g + q: iwahori does, nil and h2 do not.  Every reader of the
relation asks it, so a comparison against the constant ``"iwahori"``
anywhere else in ``src/heckedem`` would be a second copy of that choice.
``ALLOWED`` names the scopes where one may appear, each with its reason,
as (module, qualified function name).
"""

import ast
from pathlib import Path

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "heckedem").glob("*.py"))

ALLOWED = {
    ("hecke", "q_minus_1"): "the home of the choice",
    ("hecke", "HeckeElement.__mul__"): "the product table key: nil and h2 share a table, iwahori has its own",
    ("krep", "rep_A"): "a flavor guard: A(q) represents the iwahori flavor only",
    ("verify", "suite_relations"): "the reference expectation that the product fold is checked against",
}


def iwahori_comparisons(tree) -> list:
    """The qualified name of the function or class around each comparison
    with the constant "iwahori" as an operand, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Compare) and any(
                isinstance(operand, ast.Constant) and operand.value == "iwahori"
                for operand in (child.left, *child.comparators)
            ):
                found.append(scope)
            visit(child, scope)

    visit(tree, "")
    return found


def test_scanner_finds_each_comparison_with_iwahori_and_its_scope():
    source = (
        "def f(flavor):\n    if flavor == 'iwahori':\n        return 1\n\n"
        "class C:\n    def g(self, x):\n        return lambda: 'iwahori' != x.flavor\n\n"
        "ok = flavor in ('iwahori', 'nil')\nname = 'iwahori'\n"
        "q1 = 1 if flavor == 'iwahori' else 0\n"
    )
    assert iwahori_comparisons(ast.parse(source)) == ["f", "C.g", ""]


def test_only_the_allowed_scopes_compare_a_flavor_with_iwahori():
    found = {(path.stem, scope) for path in SRC for scope in iwahori_comparisons(ast.parse(path.read_text()))}
    assert sorted(found - set(ALLOWED)) == []
    # an allowed scope whose comparison is gone leaves the list
    assert sorted(set(ALLOWED) - found) == []

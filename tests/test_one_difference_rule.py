"""Lint gate: one rule for every difference.

Each value class in ``src/heckedem`` subtracts by adding the negation, so
its sum (the Zech table of ``FieldElement``, the coefficient sum of
``GenericScalar``, the sparse sum of ``SparsePoly``) is written once.  So
every ``def __sub__`` there is ``return self + (-other)``, after at most
a docstring.
"""

import ast
from pathlib import Path

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "heckedem").glob("*.py"))

RULE = ast.dump(ast.parse("def f(self, other):\n    return self + (-other)\n").body[0].body[0])


def subtractions(tree) -> list:
    """(class name, follows the rule) for each ``def __sub__`` in a class
    body of tree."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__sub__":
                body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
                found.append((node.name, [ast.dump(stmt) for stmt in body] == [RULE]))
    return found


def test_scanner_finds_each_subtraction_and_checks_its_body():
    source = (
        "class A:\n    def __sub__(self, other):\n        return self + (-other)\n\n"
        "class B:\n    def __sub__(self, other):\n        '''a - b'''\n        return self + (-other)\n\n"
        "class C:\n    def __sub__(self, other):\n        return self._sum(other.negated())\n\n"
        "class D:\n    def __sub__(self, other):\n        x = -other\n        return self + x\n\n"
        "def __sub__(a, b):\n    return a - b\n"
    )
    assert subtractions(ast.parse(source)) == [("A", True), ("B", True), ("C", False), ("D", False)]


def test_every_subtraction_in_src_adds_the_negation():
    found = sorted((path.stem, name, ok) for path in SRC for name, ok in subtractions(ast.parse(path.read_text())))
    assert {(stem, name) for stem, name, _ in found} >= {
        ("charrings", "SparsePoly"),
        ("coeffs", "FieldElement"),
        ("coeffs", "GenericScalar"),
    }
    assert [f for f in found if not f[2]] == []

"""Lint gate: one fold per use of the S/U word of a Hecke basis element.

``hecke._translation_word(w')`` spells T_{w'} as a word in S and U.  Three
folds multiply its letters in: the product table (``_basis_product``), the
normal form over the center (``normal_form_over_center``) and every matrix
image (``word_matrix``, which ``krep.word_image`` and
``hecke.h2_matrix_model`` call).  A use of ``_translation_word`` anywhere
else in ``src/heckedem`` (a call, or the function handed on under another
name) would be a second matrix fold, or a loop over the letters that one
of these already makes.  ``ALLOWED`` names the scopes where a use may
appear, each with its reason, as (module, qualified function name).
"""

import ast
from pathlib import Path

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "heckedem").glob("*.py"))

ALLOWED = {
    ("hecke", "_basis_product"): "the product fold that fills the product table",
    ("hecke", "normal_form_over_center"): "the fold of the letters into the basis {1, S, U, SU} over the center",
    ("hecke", "word_matrix"): "the one matrix fold: Demazure word images and the h2 matrix model",
}


def word_uses(tree) -> list:
    """The qualified name of the function or class around each use of the
    name ``_translation_word``, bare or as an attribute, "" at module
    level; its definition and imports are not uses."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == "_translation_word") or (
                isinstance(child, ast.Attribute) and child.attr == "_translation_word"
            ):
                found.append(scope)
            visit(child, scope)

    visit(tree, "")
    return found


def test_scanner_finds_each_use_of_the_word_and_its_scope():
    source = (
        "from .hecke import _translation_word\n\n"
        "def _translation_word(w):\n    return ('S',)\n\n"
        "def f(w):\n    for letter in _translation_word(w):\n        pass\n\n"
        "class C:\n    def g(self, w):\n        return [x for x in hecke._translation_word(w)]\n\n"
        "letters = _translation_word(w)\n"
        "def h(w):\n    word = _translation_word\n    return '_translation_word'\n"
    )
    assert word_uses(ast.parse(source)) == ["f", "C.g", "", "h"]


def test_only_the_three_folds_read_the_word():
    found = {(path.stem, scope) for path in SRC for scope in word_uses(ast.parse(path.read_text()))}
    assert sorted(found - set(ALLOWED)) == []
    # an allowed scope whose use is gone leaves the list
    assert sorted(set(ALLOWED) - found) == []

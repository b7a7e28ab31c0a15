"""Lint gate: every top-level function and class in ``src/heckedem`` has a
caller.

A definition counts as used when its name appears as an AST name or
attribute (``mod.x`` uses ``x``) in another src module, in its own module
outside its own definition, in ``tests/test_acceptance.py`` (the suite
entry points) or in ``perfbench/*.py``, or is listed in an ``__all__``.
In ``perfbench`` the dotted parts of string constants count too, because
the tracer wraps functions by name.  ``ALLOWED`` names the exceptions,
each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "heckedem").glob("*.py"))
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

ALLOWED = {
    ("galois", "module_of"): "ROADMAP item 1 replaces it by a builder on the component of the orbit",
}


def names(tree, strings: bool = False) -> set:
    """Every name and attribute in tree, the names listed in an ``__all__``
    and, with ``strings``, the dotted parts of every string constant."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            out |= set(ast.literal_eval(node.value))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= set(node.value.split("."))
    return out


def dead_helpers(modules: dict, outside: set) -> list:
    """(module, name) of every top-level function or class in ``modules``
    (module name -> source) whose name is used nowhere: not in another
    module, not in its own module outside its definition, not in
    ``outside``."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    used = {name: names(tree) for name, tree in trees.items()}
    found = []
    for mod, tree in trees.items():
        elsewhere = set(outside).union(*(u for m, u in used.items() if m != mod))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in elsewhere:
                continue
            if not any(node.name in names(other) for other in tree.body if other is not node):
                found.append((mod, node.name))
    return found


def test_scanner_flags_a_helper_that_nothing_calls():
    modules = {
        "a": "def used():\n    pass\n\ndef recursive(n):\n    return recursive(n - 1)\n\nclass Spare:\n    x = Spare\n",
        "b": "from . import a\n\ndef caller():\n    return a.used()\n\ndef traced():\n    pass\n\n"
        "def exported():\n    pass\n\n__all__ = ['exported']\n",
        "c": "def local():\n    pass\n\nVALUE = local()\n",
    }
    assert dead_helpers(modules, set()) == [("a", "recursive"), ("a", "Spare"), ("b", "caller"), ("b", "traced")]
    assert dead_helpers(modules, {"caller", "traced"}) == [("a", "recursive"), ("a", "Spare")]
    assert names(ast.parse("SPANS = (('b', 'Cls.traced', 'b.traced'),)\n"), strings=True) >= {"Cls", "traced", "b"}


def test_no_helper_without_a_caller():
    outside = set()
    for path in CALLERS:
        outside |= names(ast.parse(path.read_text()), strings=path.parent.name == "perfbench")
    found = dead_helpers({path.stem: path.read_text() for path in SRC}, outside)
    assert sorted(set(found) - set(ALLOWED)) == []
    # an allowed name that gains a caller leaves the list
    assert sorted(set(ALLOWED) - set(found)) == []

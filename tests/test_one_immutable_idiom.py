"""Lint gate: one idiom for immutable values.

``coeffs.Frozen`` refuses assignment and compares and hashes a value by its
``_key()``.  So the only ``def __setattr__`` in ``src/heckedem`` is
Frozen's own, and every other class there that declares ``__slots__``
derives from Frozen, unless it derives from ``tuple``, which is immutable
already.
"""

import ast
from pathlib import Path

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "heckedem").glob("*.py"))


def setattr_scopes(tree) -> list:
    """The qualified name of the scope around each ``def __setattr__`` in
    tree, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name == "__setattr__":
                found.append(scope)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(tree, "")
    return found


def classes(tree) -> dict:
    """Each class in tree by name: the names of its bases, and whether its
    body assigns ``__slots__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = tuple(ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases)  # m.B names B
            targets = [t for s in node.body if isinstance(s, ast.Assign) for t in s.targets]
            targets += [s.target for s in node.body if isinstance(s, ast.AnnAssign)]
            slotted = any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets)
            out[node.name] = (bases, slotted)
    return out


def ancestors(name: str, found: dict) -> set:
    """Every base of the class ``name`` by name, transitively over found."""
    out, todo = set(), [name]
    while todo:
        for base in found.get(todo.pop(), ((), False))[0]:
            if base not in out:
                out.add(base)
                todo.append(base)
    return out


def test_scanners_find_each_setattr_and_each_slotted_class():
    source = (
        "class A:\n    __slots__ = ()\n\n    def __setattr__(self, name, value):\n        raise AttributeError\n\n"
        "class B(A):\n    __slots__ = ('x',)\n\n"
        "class C(m.B):\n    x = 1\n\n"
        "class T(tuple):\n    __slots__ = ()\n\n"
        "def f():\n    class D:\n        __slots__: tuple = ()\n\n"
        "        def __setattr__(self, name, value):\n            pass\n    return D\n"
    )
    tree = ast.parse(source)
    assert setattr_scopes(tree) == ["A", "f.D"]
    found = classes(tree)
    assert found == {
        "A": ((), True),
        "B": (("A",), True),
        "C": (("B",), False),
        "T": (("tuple",), True),
        "D": ((), True),
    }
    assert ancestors("C", found) == {"A", "B"} and ancestors("T", found) == {"tuple"}


def test_the_only_setattr_in_src_is_frozens():
    found = sorted((path.stem, scope) for path in SRC for scope in setattr_scopes(ast.parse(path.read_text())))
    assert found == [("coeffs", "Frozen")]


def test_every_slotted_class_in_src_derives_from_frozen_or_tuple():
    found = {}
    for path in SRC:
        found.update(classes(ast.parse(path.read_text())))
    assert found["Frozen"] == ((), True)
    loose = [
        name
        for name, (_, slotted) in found.items()
        if slotted and name != "Frozen" and not {"Frozen", "tuple"} & ancestors(name, found)
    ]
    assert loose == []

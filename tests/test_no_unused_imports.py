"""Lint gate: no module in ``src/heckedem`` or ``tests`` imports a name it
never uses.

An imported name counts as used when it appears as a name anywhere in
the module (attribute access ``mod.x`` uses ``mod``) or is listed in the
module's ``__all__``.  ``from __future__`` imports and import lines marked
``# noqa`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "heckedem").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    source = "import os\nimport sys  # noqa\nfrom a import b, c\n__all__ = ['c']\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in FILES}
    assert {path: names for path, names in found.items() if names} == {}

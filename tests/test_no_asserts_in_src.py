"""Lint gate: no module in ``src/heckedem`` has an ``assert`` statement.

``python -O`` strips asserts, so a check that rests on one passes
silently there; checks raise instead (ValueError, ArithmeticError).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "heckedem").glob("*.py"))


def asserts(source: str) -> list:
    """The line numbers of the assert statements in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_scanner_flags_every_assert_statement():
    source = "assert x\ndef f(y):\n    if y:\n        assert y, 'y'\n    return 'assert y'\n# assert y\n"
    assert asserts(source) == [1, 4]
    assert asserts("x = 1\n") == []


def test_no_assert_in_src():
    assert len(SRC) > 1
    found = {str(path.relative_to(ROOT)): asserts(path.read_text()) for path in SRC}
    assert {path: lines for path, lines in found.items() if lines} == {}

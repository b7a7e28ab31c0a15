"""Lint gate: ``src/heckedem`` imports only the standard library, and
``pyproject.toml`` declares no runtime dependency.

Every ``import`` and ``from`` statement counts, at any depth, so an import
deferred into a function body is checked too.  A relative import passes;
an absolute one passes when its top-level name is in
``sys.stdlib_module_names``.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "heckedem").glob("*.py"))


def non_stdlib_imports(source: str) -> list:
    """(line, top-level name) of each absolute import outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        tops = [name.split(".")[0] for name in names]
        found += [(node.lineno, top) for top in tops if top not in sys.stdlib_module_names]
    return sorted(found)


def test_scanner_flags_a_deferred_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from . import krep\n"
        "from .coeffs import build_tower\n"
        "def derive():\n"
        "    import sympy\n"
        "    from numpy.linalg import norm\n"
        "    return sympy, norm\n"
    )
    assert non_stdlib_imports(source) == [(6, "sympy"), (7, "numpy")]


def test_src_imports_only_the_standard_library():
    found = {path.name: non_stdlib_imports(path.read_text()) for path in SRC}
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_pyproject_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert match is not None
    assert match.group(1).strip() == ""

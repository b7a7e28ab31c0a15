"""Process-level properties: import cost and checks under ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

import heckedem

SRC = str(Path(heckedem.__file__).resolve().parent.parent)


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_import_does_not_load_sympy():
    proc = run_python("-c", "import sys, heckedem; print('sympy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


BAD_MODULE_UNDER_O = """
from heckedem import linalg
from heckedem.charrings import FieldRing
from heckedem.coeffs import build_tower
from heckedem.krep import FiniteModule

assert False, "python -O strips this assert; without -O the script fails here"
ring = FieldRing(build_tower(3, 1), "ext")
zero, one = ring.zero, ring.one
U = ((zero, one), (one, zero))
S = ((zero, zero), (zero, -one))
Uinv = linalg.mat_scale(U, one + one)  # U * Uinv = 2 != 1
bad = FiniteModule("iwahori", ring, 2, (("S", S), ("U", U), ("Uinv", Uinv)))
try:
    bad.validate()
except ValueError as exc:
    print("rejected:", exc)
else:
    print("accepted")
"""


def test_validate_rejects_bad_module_under_optimize():
    proc = run_python("-O", "-c", BAD_MODULE_UNDER_O)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected: U * Uinv != identity"

"""Process-level properties: import cost, the obstruction with sympy
unimportable, and checks under ``python -O``."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli_golden import GOLDEN

import heckedem

SRC = str(Path(heckedem.__file__).resolve().parent.parent)


def run_python(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def test_import_does_not_load_sympy():
    proc = run_python("-c", "import sys, heckedem; print('sympy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


IMPORT_GUARD = """
import heckedem, heckedem.cli, heckedem.verify, sys
print(sorted(name for name in ("dataclasses", "inspect", "typing") if name in sys.modules))
"""


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site-packages (and what their .pth files import) out of the count
    proc = run_python("-S", "-c", IMPORT_GUARD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


OBSTRUCTION_WITHOUT_SYMPY = """
import sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from heckedem.cli import main
sys.exit(main(["--p", "3", "obstruction"]))
"""


def test_obstruction_runs_without_sympy():
    proc = run_python("-c", OBSTRUCTION_WITHOUT_SYMPY)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == GOLDEN["--p 3 obstruction"]


BAD_MODULE_UNDER_O = """
from heckedem.charrings import FieldRing
from heckedem.coeffs import build_tower
from heckedem.krep import FiniteModule

assert False, "python -O strips this assert; without -O the script fails here"
ring = FieldRing(build_tower(3, 1), "ext")
zero, one = ring.zero, ring.one
U = ((zero, one), (one, zero))
S = ((zero, zero), (zero, -one))
bad = FiniteModule("iwahori", ring, (S, U), one + one)  # U^2 = 1 != 2
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
    assert proc.stdout.strip() == "rejected: U^2 != zeta2"


SCALAR_MODULE_UNDER_O = """
from heckedem import krep, linalg
from heckedem.charrings import FieldRing
from heckedem.coeffs import build_tower
from heckedem.krep import FiniteModule

assert False, "python -O strips this assert; without -O the script fails here"
ring = FieldRing(build_tower(3, 1), "ext")
one = linalg.mat_identity(ring.one, 2)
# S = -1 and U = 1 act by scalars, so End(M) is all of M2(E): dimension 4
m = FiniteModule("iwahori", ring, (linalg.mat_scale(one, -ring.one), one), ring.one).validate()
try:
    krep.is_isomorphic(m, m)
except ValueError as exc:
    print("refused:", exc)
else:
    print("decided")
"""


def test_isomorphism_refuses_a_large_hom_space_under_optimize():
    proc = run_python("-O", "-c", SCALAR_MODULE_UNDER_O)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().startswith("refused: Hom space has dimension 4")


NON_INVARIANT_QUOTIENT_UNDER_O = """
from heckedem import chowrep, linalg
from heckedem.charrings import FieldRing
from heckedem.coeffs import build_tower

assert False, "python -O strips this assert; without -O the script fails here"
ring = FieldRing(build_tower(3, 1), "ext")
m8 = chowrep.reduce_regular_at_theta((ring.zero, ring.one), ring)
line = linalg.rref([linalg.mat_identity(ring.one, 8)[1]])  # <d1_1> is not invariant: S d1_1 = -1_2
try:
    chowrep.quotient_module(m8, line, ((), []))
except ArithmeticError as exc:
    print("rejected:", exc)
else:
    print("accepted")
"""


def test_quotient_rejects_a_non_invariant_member_under_optimize():
    proc = run_python("-O", "-c", NON_INVARIANT_QUOTIENT_UNDER_O)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected: chain member is not an invariant subspace"


SUITES_AS_JSON = """
import json
from heckedem import verify
print(json.dumps([verify.suite_regular_reduction(3), verify.suite_krep_theta(3)], sort_keys=True))
"""


def test_structure_suites_agree_under_optimize():
    # the socle, Loewy, witness and Burnside checks give the same report
    # when python -O strips every assert
    from heckedem import verify

    expected = [verify.suite_regular_reduction(3), verify.suite_krep_theta(3)]
    assert [(r["passed"], r["checks"]) for r in expected] == [(True, 48), (True, 184)]
    proc = run_python("-O", "-c", SUITES_AS_JSON)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(json.dumps(expected, sort_keys=True))

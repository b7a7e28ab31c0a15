"""Acceptance gate: ten criteria, each printing one pass/fail line.

Every check is exact (integer / finite-field / symbolic Laurent
arithmetic); the stated time budgets are asserted as well.
"""

import time

from heckedem import krep, verify
from heckedem.charrings import ZQ, GroupRingElement


def report(capsys, number, name, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} {name}: {status} ({elapsed:.2f}s"
    line += f", budget {budget:.0f}s)" if budget else ")"
    with capsys.disabled():
        print(line)


def timed(fn):
    start = time.monotonic()
    result = fn()
    return result, time.monotonic() - start


def test_criterion_01_relation_suite(capsys):
    result, elapsed = timed(lambda: verify.suite_relations(seed=0, n_random=500))
    ok = result["passed"] and elapsed < 10.0
    report(capsys, 1, "relation suite (3 flavors, 500 random pairs)", ok, elapsed, 10)
    assert result["passed"], result["counterexamples"]
    assert elapsed < 10.0


def test_criterion_02_length_oracle(capsys):
    result, elapsed = timed(verify.suite_length_oracle)
    ok = result["passed"] and result["checks"] == 162 and elapsed < 1.0
    report(capsys, 2, "length closed form vs BFS oracle (162 elements)", ok, elapsed, 1)
    assert result["passed"] and result["checks"] == 162
    assert elapsed < 1.0


def extension_theorem_holds() -> bool:
    """Criterion 3: A(q)'s relations, read through the record ``krep.A_Q``
    (looked up at call time), and the extension theorem's constraints."""
    t = verify.Tally("criterion 3")
    verify._check_record(t, krep.A_Q, ZQ, "A(q)")
    constraints = krep.check_theorem_constraints(ZQ)
    return t.report()["passed"] and t.checks == 4 and len(constraints) == 3 and all(constraints.values())


def test_criterion_03_extension_theorem(capsys):
    ok, elapsed = timed(extension_theorem_holds)
    report(capsys, 3, "A(U) identities and determinant, generic q", ok, elapsed)
    assert ok


def test_criterion_03_sees_a_wrong_record(monkeypatch):
    A = krep.A_Q
    wrong = krep.Demazure(A.flavor, A.cls, A.S, A.U, lambda r: -GroupRingElement.xi1(r), A.zeta2_degree)
    monkeypatch.setattr(krep, "A_Q", wrong)
    assert not extension_theorem_holds()


def test_criterion_04_symbolic_independence(capsys):
    def run():
        det_gen = krep.independence_determinant(krep.A_Q, ZQ, at_q0=False)
        det_q0 = krep.independence_determinant(krep.A_Q, ZQ, at_q0=True)
        return not det_gen.is_zero() and not det_q0.is_zero()

    ok, elapsed = timed(run)
    report(capsys, 4, "rank-4 independence of {1,S,U,SU}, generic q and q=0", ok, elapsed)
    assert ok


def test_criterion_05_theta_reductions(capsys):
    result, elapsed = timed(lambda: verify.suite_krep_theta(p=3))
    ok = result["passed"] and elapsed < 30.0
    report(capsys, 5, "Pittie-Steinberg display, faithfulness, irreducibility over GF(9)", ok, elapsed, 30)
    assert result["passed"], result["counterexamples"]
    assert elapsed < 30.0


def test_criterion_06_obstruction(capsys):
    result, elapsed = timed(lambda: verify.suite_obstruction())
    ok = result["passed"]
    report(capsys, 6, "square-root obstruction and Anil(U) conditions, p in {3,5,7}", ok, elapsed)
    assert ok, result["counterexamples"]


def test_criterion_07_a2_homomorphism(capsys):
    result, elapsed = timed(lambda: verify.suite_chowrep(seed=0, n_random=500))
    ok = result["passed"]
    report(capsys, 7, "nil independence, A2 homomorphism (500 pairs), A2 injectivity", ok, elapsed)
    assert ok, result["counterexamples"]


def test_criterion_08_regular_reduction(capsys):
    result, elapsed = timed(lambda: verify.suite_regular_reduction(p=3))
    ok = result["passed"] and elapsed < 120.0
    name = "8-dim module: series [2,4,6,8], 4 standard factors, not semisimple, socle V4, Loewy length 2"
    report(capsys, 8, name, ok, elapsed, 120)
    assert result["passed"], result["counterexamples"]
    assert elapsed < 120.0


def test_criterion_09_bijection(capsys):
    def run():
        r3 = verify.suite_bijection(3)
        r5 = verify.suite_bijection(5)
        ok = (
            r3["passed"]
            and r5["passed"]
            and r3["report"]["classes"] == 24
            and r5["report"]["classes"] == 240
            and r3["report"]["orbit_counts"]["total"] == 3
            and r5["report"]["orbit_counts"]["total"] == 10
        )
        return ok, (r3, r5)

    (ok, reports), elapsed = timed(run)
    ok = ok and elapsed < 60.0
    report(capsys, 9, "Galois parameter bijection, q=3 (24) and q=5 (240)", ok, elapsed, 60)
    assert ok, reports
    assert elapsed < 60.0


def test_criterion_10_idempotents(capsys):
    def run():
        r3 = verify.suite_idempotents(3)
        r5 = verify.suite_idempotents(5)
        return r3["passed"] and r5["passed"], (r3, r5)

    (ok, reports), elapsed = timed(run)
    report(capsys, 10, "toral idempotents orthogonal, sum to 1, orbit counts, q in {3,5}", ok, elapsed)
    assert ok, reports

import random

import pytest

from test_process_checks import run_python

from heckedem import chowrep, verify
from heckedem.charrings import (
    ZQ,
    FieldRing,
    ZqRing,
    GroupRingElement,
    LaurentPoly,
    SparsePoly,
    SymElement,
    decompose_ch,
    decompose_k,
    delta_ch,
    demazure_ch,
    demazure_k,
    eval_laurent,
    to_xi_poly,
)
from heckedem.coeffs import ZQ_ONE, ZQ_Q, ZQ_ZERO, GenericScalar, build_tower
from heckedem.hecke import CenterElement, HeckeElement, T_S, ZRingElement
from heckedem.verify import random_group_ring, random_sym
from heckedem.weyl import WeylElement


def mono(a, b, ring=ZQ):
    return GroupRingElement.monomial(ring, a, b)


def xi_plus(ring, poly: dict) -> GroupRingElement:
    """The reference inverse of ``to_xi_poly`` on the K side: substitute
    xi1 for e^{(1,0)} and xi2 for e^{(1,1)} in poly = {(m, k): coeff},
    the monomial e^{(1,0)}^m * e^{(1,1)}^k with m >= 0 and k arbitrary."""
    cls = GroupRingElement
    return eval_laurent(poly, cls.zero(ring), cls.xi1(ring), lambda k: cls.xi2(ring, k))


def test_every_zq_ring_is_the_same_ring():
    other = ZqRing()
    assert other == ZQ and hash(other) == hash(ZQ) and other != FieldRing(build_tower(3, 1))
    assert repr(other) == repr(ZQ) == "Z[q]"
    assert (other.zero, other.one, other.q, other.is_field) == (ZQ_ZERO, ZQ_ONE, ZQ_Q, False)
    with pytest.raises(AttributeError):
        ZQ.one = ZQ_Q


# ---------------------------------------------------------------------------
# K-side


def test_demazure_k_frozen_values():
    one = GroupRingElement.one(ZQ)
    assert demazure_k(one, "D").is_zero()
    assert demazure_k(one, "D'") == one
    # D(e^{(1,0)}) = -e^{(0,1)}, D'(e^{(1,0)}) = 0
    assert demazure_k(mono(1, 0), "D") == -mono(0, 1)
    assert demazure_k(mono(1, 0), "D'").is_zero()
    # D(q)(1) = -q
    assert demazure_k(one, "D(q)") == one.scale(-ZQ.q)


def test_demazure_k_defining_division():
    rng = random.Random(7)
    alpha = mono(1, -1)
    one = GroupRingElement.one(ZQ)
    for _ in range(30):
        a = random_group_ring(rng)
        assert demazure_k(a, "D") * (one - alpha) == a - a.s_action()
        assert demazure_k(a, "D'") * (one - alpha) == a - a.s_action() * alpha
        assert demazure_k(a, "D(q)") == demazure_k(a, "D") - demazure_k(a, "D'").scale(ZQ.q)


def test_demazure_k_division_remainder_detected():
    # e^{(1,0)} - e^{(1,0)}s = e^{(1,0)} - e^{(0,1)} is divisible, but a
    # single non-invariant monomial is not
    from heckedem.charrings import _divide_by_one_minus_alpha

    with pytest.raises(ArithmeticError):
        _divide_by_one_minus_alpha(mono(1, 0))


def test_decompose_k_frozen():
    # e^{(1,0)} = xi1 - xi2 e^{(-1,0)}
    a0, a1 = decompose_k(mono(1, 0))
    assert a0 == GroupRingElement.xi1(ZQ)
    assert a1 == -GroupRingElement.xi2(ZQ)
    assert a0 + a1 * mono(-1, 0) == mono(1, 0)


def test_decompose_k_random():
    rng = random.Random(11)
    for _ in range(30):
        a = random_group_ring(rng)
        a0, a1 = decompose_k(a)
        assert a0.is_invariant() and a1.is_invariant()
        assert a0 + a1 * mono(-1, 0) == a


def test_xi_poly_roundtrip():
    from heckedem.coeffs import GenericScalar

    rng = random.Random(3)
    for _ in range(30):
        poly = {
            (rng.randint(0, 3), rng.randint(-2, 2)): GenericScalar([rng.randint(1, 3)])
            for _ in range(rng.randint(1, 3))
        }
        a = xi_plus(ZQ, poly)
        assert a.is_invariant()
        assert xi_plus(ZQ, to_xi_poly(a)) == a


def test_xi_plus_rejects_negative_xi1_power():
    with pytest.raises(ValueError):
        xi_plus(ZQ, {(-1, 0): ZQ.one})


def test_to_xi_poly_rejects_non_invariant():
    with pytest.raises(ValueError):
        to_xi_poly(mono(1, 0))


ZERO_TERM_TO_XI = """
from heckedem.charrings import FieldRing, GroupRingElement, to_xi_poly
from heckedem.coeffs import build_tower
ring = FieldRing(build_tower(3, 1))
# _new skips the constructor's zero filter, so a zero coefficient stays in terms
a = GroupRingElement.one(ring)._new({(0, 0): ring.one, (1, 1): ring.zero})
try:
    to_xi_poly(a)
except ArithmeticError:
    print("raised")
"""


def test_to_xi_poly_raises_on_a_zero_coefficient():
    """Peeling a zero coefficient leaves the rest unchanged, so the call
    must raise instead of looping; it runs in a child process with a short
    timeout, so a hang fails this test instead of stalling the suite."""
    proc = run_python("-c", ZERO_TERM_TO_XI, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


# ---------------------------------------------------------------------------
# Chow side


def eta(i, j, ring=ZQ):
    return SymElement(ring, {(i, j): ring.one})


def test_demazure_ch_frozen_values():
    one = SymElement.one(ZQ)
    assert demazure_ch(one, "D").is_zero()
    assert demazure_ch(one, "D'") == one
    # D(eta1) = 1, D(eta1^2) = eta1 + eta2
    assert demazure_ch(eta(1, 0), "D") == one
    assert demazure_ch(eta(2, 0), "D") == eta(1, 0) + eta(0, 1)
    # D(q)(1) = -q
    assert demazure_ch(one, "D(q)") == one.scale(-ZQ.q)


def test_demazure_ch_operator_identities():
    rng = random.Random(19)
    for _ in range(30):
        a = random_sym(rng)
        assert demazure_ch(demazure_ch(a, "D"), "D").is_zero()
        assert demazure_ch(demazure_ch(a, "D'"), "D'") == a
        # (-D) + D' = s
        assert (-demazure_ch(a, "D")) + demazure_ch(a, "D'") == a.s_action()


def test_decompose_ch_frozen_gf3():
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    one = ring.one
    # eta1 = (eta1 + eta2)/2 + delta, delta = (eta1 - eta2)/2
    a0, a1 = decompose_ch(eta(1, 0, ring))
    two_inv = (one + one).inverse()
    assert a0 == (eta(1, 0, ring) + eta(0, 1, ring)).scale(two_inv)
    assert a1 == SymElement.one(ring)
    assert a0 + a1 * delta_ch(ring) == eta(1, 0, ring)


def test_decompose_ch_random():
    tower = build_tower(5, 1)
    ring = FieldRing(tower, "ext")
    rng = random.Random(23)
    for _ in range(30):
        a = random_sym(rng, ring)
        a0, a1 = decompose_ch(a)
        assert a0.s_action() == a0 and a1.s_action() == a1
        assert a0 + a1 * delta_ch(ring) == a


def test_sym_localization_canonical():
    # (eta1 eta2) / (eta1 eta2) normalizes to 1
    num = SymElement(ZQ, {(1, 1): ZQ.one}, denom=1)
    assert num == SymElement.one(ZQ)


def test_xi_poly_ch_roundtrip():
    tower = build_tower(3, 1)
    ring = FieldRing(tower, "ext")
    x1 = eta(1, 0, ring) + eta(0, 1, ring)
    x2 = SymElement(ring, {(1, 1): ring.one})
    a = x1 * x1 + x2.scale(tower.gen())
    poly = to_xi_poly(a)
    rebuilt = SymElement.zero(ring)
    for (m, k), c in poly.items():
        term = SymElement.one(ring).scale(c)
        for _ in range(m):
            term = term * x1
        if k >= 0:
            for _ in range(k):
                term = term * x2
        else:
            term = SymElement(ring, term.terms, denom=term.denom - k)
        rebuilt = rebuilt + term
    assert rebuilt == a


@pytest.mark.parametrize("cls", [GroupRingElement, SymElement])
def test_products_that_cancel_drop_the_cancelled_key(cls):
    # (e^a + e^b)(e^a - e^b) = e^{2a} - e^{2b} over GF(9): the e^{a+b} terms cancel
    ring = FieldRing(build_tower(3, 2))
    a, b = cls.monomial(ring, 1, 0), cls.monomial(ring, 0, 1)
    product = (a + b) * (a - b)
    assert product.terms == {(2, 0): ring.one, (0, 2): -ring.one}
    assert type(product) is cls and product.ring == ring
    assert (product - product).terms == {} and product.s_action() == -product


def test_scale_by_zero_and_coefficients_mapped_to_zero_drop_their_keys():
    x = GroupRingElement(ZQ, {(1, 0): ZQ_Q, (0, 1): ZQ_ONE + ZQ_Q})
    assert x.map_coeffs(lambda c: GenericScalar.const(c.evaluate(0))).terms == {(0, 1): ZQ_ONE}
    assert x.map_coeffs(lambda c: ZQ_ZERO).terms == {}
    for y in (x, SymElement.xi1(ZQ), T_S("h2", ZQ)):
        zeroed = y.scale(ZQ_ZERO)
        assert zeroed.terms == {} and type(zeroed) is type(y) and zeroed.ring == ZQ
    assert T_S("h2", ZQ).scale(ZQ_ZERO).flavor == "h2"


def test_the_public_constructors_drop_zero_coefficients():
    assert GroupRingElement(ZQ, {(1, 0): ZQ_ZERO, (0, 1): ZQ_ONE}).terms == {(0, 1): ZQ_ONE}
    assert SparsePoly(ZQ, {(1,): ZQ_ZERO}).is_zero() and ZRingElement.const(0).is_zero()


def test_ring_operations_leave_no_zero_coefficient(fresh_tables, monkeypatch):
    # each ring operation drops a coefficient where its sum cancels, so
    # SparsePoly._new, which filters nothing, must never be handed a zero:
    # watch every result of the suites, cold and then warm
    runs = (
        lambda: verify.suite_relations(0, 500)["passed"],
        lambda: verify.suite_chowrep(0, n_random=100)["passed"],
        lambda: verify.suite_demazure(0)["passed"],
        lambda: verify.suite_center(0)["passed"],
        lambda: verify.suite_h2_model(0)["passed"],
        lambda: chowrep.check_naive_obstruction()["solvable"] is False,
    )
    new, zeros = SparsePoly._new, []

    def watching_new(self, terms):
        result = new(self, terms)
        if any(c.is_zero() for c in result.terms.values()):
            zeros.append((type(result).__name__, result.terms))
        return result

    monkeypatch.setattr(SparsePoly, "_new", watching_new)
    for run in runs * 2:
        passed = run()
        assert zeros == []
        assert passed


LAURENT_NAMES = ("zero", "one", "monomial", "from_scalar", "xi1", "xi2", "s_action", "is_invariant")


def test_only_the_two_laurent_rings_carry_the_swap_and_the_invariants():
    # s, xi1 and xi2 mean something on Z[Lambda] and Sym(Lambda) only; every
    # name is defined once, on LaurentPoly, and HeckeElement's own zero and
    # one take a flavor
    def owner(cls, name):
        return next((k for k in cls.__mro__ if name in vars(k)), None)

    for cls in (GroupRingElement, SymElement):
        assert {name: owner(cls, name) for name in LAURENT_NAMES} == dict.fromkeys(LAURENT_NAMES, LaurentPoly)
    for cls, own in ((SparsePoly, ()), (HeckeElement, ("zero", "one")), (CenterElement, ()), (ZRingElement, ())):
        expected = {name: cls if name in own else None for name in LAURENT_NAMES}
        assert {name: owner(cls, name) for name in LAURENT_NAMES} == expected
    for call in (lambda: T_S("iwahori", ZQ).s_action(), lambda: HeckeElement.xi1(ZQ), lambda: CenterElement.xi1(ZQ)):
        with pytest.raises(AttributeError):
            call()


def test_suites_build_ring_results_without_the_public_constructors(fresh_tables, monkeypatch):
    # a warm suite_relations(0, 500) plus suite_chowrep(0, 100): ring
    # operations build their results by SparsePoly._new, normal forms and
    # random Hecke draws by SparsePoly._of and Weyl group products by the
    # trusted tuple path, so the public constructors run only on what the
    # suites name themselves, and the finite-part check on what they draw
    # or name; each of the 30 normal-form round trips of suite_chowrep
    # builds zeta1 once (two SparsePoly.__init__, one WeylElement.__new__)
    verify.suite_relations(0, 500)
    verify.suite_chowrep(0, n_random=100)
    counts = {"SparsePoly.__init__": 0, "WeylElement.__new__": 0}
    init, new = SparsePoly.__init__, vars(WeylElement)["__new__"].__func__

    def counting_init(self, *args, **kwargs):
        counts["SparsePoly.__init__"] += 1
        init(self, *args, **kwargs)

    def counting_new(cls, *args):
        counts["WeylElement.__new__"] += 1
        return new(cls, *args)

    monkeypatch.setattr(SparsePoly, "__init__", counting_init)
    monkeypatch.setattr(WeylElement, "__new__", staticmethod(counting_new))
    relations = verify.suite_relations(0, 500)
    chowrep = verify.suite_chowrep(0, n_random=100)
    assert (relations["passed"], relations["checks"]) == (True, 618)
    assert (chowrep["passed"], chowrep["checks"]) == (True, 662)
    assert counts == {"SparsePoly.__init__": 3304, "WeylElement.__new__": 3286}

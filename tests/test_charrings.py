import random

import pytest

from heckedem.charrings import (
    ZQ,
    FieldRing,
    GroupRingElement,
    SymElement,
    decompose_ch,
    decompose_k,
    delta_ch,
    demazure_ch,
    demazure_k,
    to_xi_poly,
    to_xi_poly_ch,
    xi1_k,
    xi2_k,
    xi_plus,
)
from heckedem.coeffs import build_tower
from heckedem.verify import random_group_ring, random_sym


def mono(a, b, ring=ZQ):
    return GroupRingElement.monomial(ring, a, b)


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
    assert a0 == xi1_k(ZQ)
    assert a1 == -xi2_k(ZQ)
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
    poly = to_xi_poly_ch(a)
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

import random

import pytest

from heckedem import krep, linalg
from heckedem.charrings import ZQ, FieldRing, GroupRingElement, xi1_k, xi2_k
from heckedem.coeffs import build_tower
from heckedem.hecke import T_S, T_U, zeta1_embedded, zeta2_embedded
from heckedem.verify import random_group_ring, random_hecke


def mono(a, b):
    return GroupRingElement.monomial(ZQ, a, b)


def test_frozen_generator_matrices():
    MS = krep.rep_A0_S(ZQ)
    q = ZQ.q
    assert MS[0][0] == GroupRingElement.from_scalar(ZQ, q)
    assert MS[1][0].is_zero()
    assert MS[1][1] == -GroupRingElement.one(ZQ)
    # upper-right entry: q * xi1 * e^{(-1,-1)} = q(e^{(0,-1)} + e^{(-1,0)})
    assert MS[0][1] == (mono(0, -1) + mono(-1, 0)).scale(q)
    MU = krep.rep_A_U(ZQ)
    assert MU[0][0] == xi1_k(ZQ)
    assert MU[0][1] == mono(1, -1) + mono(0, 0) + mono(-1, 1)
    assert MU[1][0] == -mono(1, 1)
    assert MU[1][1] == -xi1_k(ZQ)


def test_theorem_identities_symbolic():
    MS, MU = krep.rep_A0_S(ZQ), krep.rep_A_U(ZQ)
    ident = krep.gr_identity(ZQ)
    # U^2 = xi2 Id
    assert linalg.mat_mul(MU, MU) == linalg.mat_scale(ident, xi2_k(ZQ))
    # US + (1-q)U + SU = xi1 Id
    one_minus_q = GroupRingElement.from_scalar(ZQ, ZQ.one - ZQ.q)
    lhs = linalg.mat_add(
        linalg.mat_add(linalg.mat_mul(MU, MS), linalg.mat_scale(MU, one_minus_q)),
        linalg.mat_mul(MS, MU),
    )
    assert lhs == linalg.mat_scale(ident, xi1_k(ZQ))
    # det A(U) = -e^{(1,1)}
    assert linalg.det(MU) == -mono(1, 1)


def test_theorem_constraint_system():
    krep.check_theorem_constraints(ZQ)


def test_independence_determinants_nonzero():
    assert not krep.independence_determinant(ZQ, at_q0=False).is_zero()
    assert not krep.independence_determinant(ZQ, at_q0=True).is_zero()


def test_rep_A_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(30):
        x, y = random_hecke(rng, "iwahori"), random_hecke(rng, "iwahori")
        assert krep.rep_A(x * y) == linalg.mat_mul(krep.rep_A(x), krep.rep_A(y))


def test_rep_A_center_scalars():
    # central elements act as scalar matrices: zeta1 -> xi1, zeta2 -> xi2
    ident = krep.gr_identity(ZQ)
    assert krep.rep_A(zeta1_embedded("iwahori", ZQ)) == linalg.mat_scale(ident, xi1_k(ZQ))
    assert krep.rep_A(zeta2_embedded("iwahori", ZQ)) == linalg.mat_scale(ident, xi2_k(ZQ))


def test_matrix_action_matches_decomposition():
    rng = random.Random(17)
    MS = krep.rep_A0_S(ZQ)
    from heckedem.charrings import decompose_k, demazure_k

    for _ in range(20):
        a = random_group_ring(rng)
        image = krep.apply_matrix_k(MS, a)
        # the operator -D(q) computed directly
        direct = -demazure_k(a, "D(q)")
        assert image == direct


def ps_module(tau1_k, tau2_k, p=3):
    tower = build_tower(p, 1)
    ring = FieldRing(tower, "ext")
    tau1 = tower.zero() if tau1_k is None else tower.gen_power(tau1_k)
    tau2 = tower.gen_power(tau2_k)
    return krep.reduce_at_theta((tau1, tau2), ring), tau1, tau2, ring


def test_supersingular_display():
    mod, _, tau2, ring = ps_module(None, 1)
    zero, one = ring.zero, ring.one
    d = mod.gen_dict()
    assert d["S"] == ((zero, zero), (zero, -one))
    assert d["U"] == ((zero, -tau2), (-one, zero))
    S0 = linalg.mat_mul(linalg.mat_mul(d["U"], d["S"]), d["Uinv"])
    assert S0 == ((-one, zero), (zero, zero))


def test_supersingular_irreducible_and_standard():
    for k in range(8):
        mod, _, tau2, ring = ps_module(None, k)
        assert krep.is_irreducible(mod)
        std = krep.standard_module(ring.zero, tau2, ring)
        assert krep.is_isomorphic(mod, std)
        assert krep.is_isomorphic(mod, mod)


def test_faithfulness_criterion_exhaustive_gf9():
    tower = build_tower(3, 1)
    ring = FieldRing(tower, "ext")
    for tau1 in tower.ext_elements():
        for tau2 in tower.ext_elements():
            if tau2.is_zero():
                continue
            mod = krep.reduce_at_theta((tau1, tau2), ring)
            faithful = krep.faithfulness_rank(mod) == 4
            assert faithful == (tau1 * tau1 != tau2), (tau1, tau2)


def test_standard_module_reducibility_criterion():
    tower = build_tower(3, 1)
    ring = FieldRing(tower, "ext")
    one = ring.one
    # tau1 = 1, tau2 = 1: reducible (tau1^2 = tau2)
    red = krep.standard_module(one, one, ring)
    assert not krep.is_irreducible(red)
    subs = krep.submodule_lattice(red)
    dims = sorted(len(s[0]) for s in subs)
    assert 1 in dims  # a proper invariant line exists
    # tau1 = 0: irreducible
    irr = krep.standard_module(ring.zero, one, ring)
    assert krep.is_irreducible(irr)
    assert not krep.is_isomorphic(red, irr)


def test_reduce_at_theta_rejects_zero_tau2():
    tower = build_tower(3, 1)
    ring = FieldRing(tower, "ext")
    with pytest.raises(ValueError):
        krep.reduce_at_theta((ring.zero, ring.zero), ring)

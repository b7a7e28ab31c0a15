import random

import pytest

from heckedem import chowrep, krep, linalg, weyl
from heckedem.charrings import FieldRing, SymElement, xi1_ch, xi2_ch
from heckedem.coeffs import build_tower
from heckedem.hecke import HeckeElement, T_S, T_U, zeta1_embedded, zeta2_embedded
from heckedem.verify import random_hecke


def rings(p=3):
    tower = build_tower(p, 1)
    return tower, FieldRing(tower, "ext")


def test_nil_S_matrix_frozen():
    # the generic matrix is [[q, q-1], [0, -q]]; over the field, q = 0
    _, ring = rings()
    MS = chowrep.rep_A0nil_S(ring)
    zero = SymElement.zero(ring)
    minus_one = SymElement.from_scalar(ring, -ring.one)
    assert MS == ((zero, minus_one), (zero, zero))
    # S^2 = q^2 Id = 0 here
    sq = linalg.mat_mul(MS, MS)
    assert all(x.is_zero() for row in sq for x in row)


def test_nil_theorem_conditions():
    for p in (3, 5, 7):
        _, ring = rings(p)
        MS = chowrep.rep_A0nil_S(ring)
        MU = chowrep.rep_Anil_U(ring)
        ident = chowrep.sym_identity(ring)
        x1, x2 = xi1_ch(ring), xi2_ch(ring)
        # U^2 = xi2^2 Id
        assert linalg.mat_mul(MU, MU) == linalg.mat_scale(ident, x2 * x2)
        # US + SU = -xi1 Id
        anti = linalg.mat_add(linalg.mat_mul(MU, MS), linalg.mat_mul(MS, MU))
        assert anti == linalg.mat_scale(ident, -x1)
        # det = -xi2^2
        det = MU[0][0] * MU[1][1] - MU[0][1] * MU[1][0]
        assert det == -(x2 * x2)
        # Anil(U) is multiplication by eta1^2 composed with the swap
        assert chowrep.eta1_squared_s_matrix(ring) == MU


def test_nil_center_images():
    _, ring = rings()
    ident = chowrep.sym_identity(ring)
    assert chowrep.rep_Anil(zeta1_embedded("nil", ring)) == linalg.mat_scale(ident, -xi1_ch(ring))
    x2 = xi2_ch(ring)
    assert chowrep.rep_Anil(zeta2_embedded("nil", ring)) == linalg.mat_scale(ident, x2 * x2)


def test_nil_independence_determinant():
    _, ring = rings()
    assert not chowrep.nil_independence_determinant(ring).is_zero()


def test_rep_Anil_homomorphism():
    _, ring = rings()
    rng = random.Random(29)
    for _ in range(25):
        x, y = random_hecke(rng, "nil", ring), random_hecke(rng, "nil", ring)
        assert chowrep.rep_Anil(x * y) == linalg.mat_mul(chowrep.rep_Anil(x), chowrep.rep_Anil(y))


def test_naive_obstruction_refuted():
    report = chowrep.check_naive_obstruction()
    assert report["solvable"] is False
    # squares in GF(p)[xi2^{+-1}] have even extreme degrees
    for p in (3, 5, 7):
        assert chowrep.square_has_even_extremes({-1: 1, 2: p - 1}, p)


def test_rep_A2_identity_and_blocks():
    _, ring = rings()
    ident4 = tuple(
        tuple(SymElement.one(ring) if i == j else SymElement.zero(ring) for j in range(4))
        for i in range(4)
    )
    assert chowrep.rep_A2(HeckeElement.one("h2", ring)) == ident4
    # e_1 T_s lands in the off-diagonal block (1, 2)
    x = HeckeElement("h2", ring, {(1, weyl.S): ring.one})
    mat = chowrep.rep_A2(x)
    shadow = HeckeElement("nil", ring, {weyl.S: ring.one})
    assert chowrep.a2_block(mat, 1, 2) == chowrep.rep_Anil(shadow)
    zero2 = ((SymElement.zero(ring),) * 2,) * 2
    for (i, j) in ((1, 1), (2, 1), (2, 2)):
        assert chowrep.a2_block(mat, i, j) == zero2
    # (e_1 T_s)^2 = 0 maps to 0
    assert chowrep.a2_is_zero(chowrep.rep_A2(x * x))


def test_rep_A2_homomorphism_random():
    _, ring = rings()
    rng = random.Random(31)
    for _ in range(40):
        x = random_hecke(rng, "h2", ring, n_terms=2)
        y = random_hecke(rng, "h2", ring, n_terms=2)
        assert chowrep.rep_A2(x * y) == linalg.mat_mul(chowrep.rep_A2(x), chowrep.rep_A2(y))


def test_rep_A2_injective_on_random_elements():
    _, ring = rings()
    rng = random.Random(37)
    checked = 0
    while checked < 40:
        x = random_hecke(rng, "h2", ring, n_terms=3)
        if x.is_zero():
            continue
        checked += 1
        assert not chowrep.a2_is_zero(chowrep.rep_A2(x))


def regular_module(b_power=1, p=3):
    tower, ring = rings(p)
    b = tower.gen_power(b_power)
    m8 = chowrep.reduce_regular_at_theta((ring.zero, b), ring)
    return m8, b, ring


def test_regular_module_shape():
    m8, b, ring = regular_module()
    assert m8.dim == 8
    d = m8.gen_dict()
    # U^2 = b Id
    U2 = linalg.mat_mul(d["U"], d["U"])
    assert U2 == linalg.mat_scale(linalg.mat_identity(ring, 8), b)
    # S^2 = 0
    S2 = linalg.mat_mul(d["S"], d["S"])
    assert all(x.is_zero() for row in S2 for x in row)


def test_regular_filtration_and_factors():
    for b_power in range(8):
        m8, b, ring = regular_module(b_power)
        report = chowrep.composition_series(m8, b)
        assert report["dims"] == [2, 4, 6, 8]
        assert report["all_factors_standard"]
        assert len(report["factors"]) == 4
        for factor in report["factors"]:
            assert factor.dim == 2
            assert krep.is_isomorphic(factor, krep.standard_module_h2(b, ring))


def test_regular_module_not_semisimple():
    m8, b, ring = regular_module()
    result = chowrep.semisimplify(m8, b)
    assert result["semisimple"] is False
    assert result["eigenvectors_in_4dim_stage"]


def test_reduced_spinning_recovers_chain():
    m8, b, ring = regular_module()
    chain = chowrep.explicit_chain(m8)
    found = set()
    for v in chowrep.reduced_spin_seeds(ring):
        sub = linalg.spin([v], m8.generator_matrices(), ring)
        found.add(sub[0])
    chain_rows = {c[0] for c in chain}
    assert chain_rows <= found
    assert 8 in {len(rows) for rows in found}


def test_quotient_module_consistency():
    m8, b, ring = regular_module()
    chain = chowrep.explicit_chain(m8)
    big, small = chain[1], chain[0]
    quot = chowrep.quotient_module(m8, big, small)
    assert quot.dim == len(big[0]) - len(small[0])
    quot.validate()

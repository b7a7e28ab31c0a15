import random

import pytest
from conftest import dense_mat_vec, dense_nullspace, dense_rref

from heckedem import chowrep, krep, linalg, verify, weyl
from heckedem.charrings import FieldRing, SymElement
from heckedem.coeffs import build_tower
from heckedem.hecke import HeckeElement, zeta1_embedded, zeta2_embedded
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
        ident = linalg.mat_identity(SymElement.one(ring), 2)
        x1, x2 = SymElement.xi1(ring), SymElement.xi2(ring)
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
    ident = linalg.mat_identity(SymElement.one(ring), 2)
    assert chowrep.rep_Anil(zeta1_embedded("nil", ring)) == linalg.mat_scale(ident, -SymElement.xi1(ring))
    x2 = SymElement.xi2(ring)
    assert chowrep.rep_Anil(zeta2_embedded("nil", ring)) == linalg.mat_scale(ident, x2 * x2)


def test_nil_independence_determinant():
    _, ring = rings()
    assert not krep.independence_determinant(chowrep.A_NIL, ring).is_zero()


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


ZERO, ONE, A, XI1 = chowrep._ZERO, chowrep._ONE, chowrep._A, chowrep._XI1


def perturb_naive_system(monkeypatch, S, diagonal, corner):
    """Derive the obstruction over S, with ``diagonal`` added to the diagonal
    of US + SU + xi1 Id and ``corner`` to the entry (0, 0) of U^2 - xi2 Id."""
    system = chowrep._naive_system

    def perturbed(U):
        eqs, corner_entry = system(U)
        eqs[0], eqs[3] = eqs[0] + diagonal, eqs[3] + diagonal
        return eqs, corner_entry + corner

    monkeypatch.setattr(chowrep, "_NAIVE_S", S)
    monkeypatch.setattr(chowrep, "_naive_system", perturbed)
    return chowrep.check_naive_obstruction()


def test_naive_derivation_unperturbed_through_the_harness(monkeypatch):
    assert perturb_naive_system(monkeypatch, chowrep._NAIVE_S, ZERO, ZERO)["solvable"] is False


@pytest.mark.parametrize(
    "S, diagonal, corner, message",
    [
        # c does not occur in US + SU, so nothing determines it
        (((ZERO, ZERO), (-ONE, ZERO)), ZERO, ZERO, "should determine c and d"),
        # c = 2a + xi1 from the entry (0, 0), but the entry (1, 0) is c alone
        (((ONE, -ONE), (ZERO, ZERO)), ZERO, ZERO, "should determine c and d"),
        # S = [[0, 1], [0, 0]] gives c = -xi1
        (((ZERO, ONE), (ZERO, ZERO)), ZERO, ZERO, "unexpected linear solution"),
        # without the xi1 term, c = 0
        (chowrep._NAIVE_S, -XI1, ZERO, "unexpected linear solution"),
        # (U^2)[0][0] = xi2 - a^2: the residual 2a^2 + b*xi1 - xi2 is wrong at xi1 = 0 too
        (chowrep._NAIVE_S, ZERO, A * A, "unexpected residual at xi1 = 0"),
        # (U^2)[0][0] = xi2 - xi1: the residual a^2 + b*xi1 + xi1 - xi2 is right only at xi1 = 0
        (chowrep._NAIVE_S, ZERO, XI1, r"unexpected residual \{"),
    ],
)
def test_naive_derivation_refuses_a_perturbed_system(monkeypatch, S, diagonal, corner, message):
    # every derivation check raises, so no perturbed system is reported unsolvable
    with pytest.raises(ArithmeticError, match=message):
        perturb_naive_system(monkeypatch, S, diagonal, corner)


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
    assert linalg.is_zero(chowrep.rep_A2(x * x))


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
        assert not linalg.is_zero(chowrep.rep_A2(x))


def regular_module(b_power=1, p=3):
    tower, ring = rings(p)
    b = tower.gen_power(b_power)
    m8 = chowrep.reduce_regular_at_theta((ring.zero, b), ring)
    return m8, b, ring


def projector(ring, n, support):
    return tuple(tuple(ring.one if r == c and r in support else ring.zero for c in range(n)) for r in range(n))


@pytest.mark.parametrize("support", [range(8), (), (0, 2, 4, 6), (0, 1, 4, 5)], ids=["Id", "0", "0246", "0145"])
def test_validate_rejects_an_e1_that_does_not_swap_with_s_and_u(support):
    # each wrong e1 is idempotent, so only e1 S = S e2 and e1 U = U e2 catch it
    m8, b, ring = regular_module()
    e1 = projector(ring, 8, support)
    assert linalg.mat_mul(e1, e1) == e1
    with pytest.raises(ValueError, match=r"e1 [SU] != [SU] e2"):
        krep.FiniteModule("h2", ring, (e1,) + m8.gens[1:], m8.zeta2).validate()
    assert projector(ring, 8, range(4)) == m8.gens[0]


def test_regular_module_shape():
    m8, b, ring = regular_module()
    assert m8.dim == 8
    d = m8.gen_dict()
    # U^2 = b Id
    U2 = linalg.mat_mul(d["U"], d["U"])
    assert U2 == linalg.mat_scale(linalg.mat_identity(ring.one, 8), b)
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


@pytest.mark.parametrize("p", [3, 5])
def test_explicit_chain_is_the_rref_of_its_unit_vectors(p):
    # written directly, the chain equals the rref of the unit vectors that
    # span each member, rows and pivots alike, with the pivots as lists
    tower = build_tower(p, 1)
    ring = FieldRing(tower)
    e = linalg.mat_identity(ring.one, 8)
    members = [[0, 6], [0, 2, 4, 6], [0, 2, 4, 6, 1, 7], range(8)]
    for k in range(tower.q**2 - 1):
        m8 = chowrep.reduce_regular_at_theta((ring.zero, tower.gen_power(k)), ring)
        chain = chowrep.explicit_chain(m8)
        assert chain == [linalg.rref([e[i] for i in ids]) for ids in members]
        assert all(type(pivots) is list for _, pivots in chain)


def test_regular_module_not_semisimple():
    m8, b, ring = regular_module()
    result = chowrep.semisimplify(m8, b)
    assert result["semisimple"] is False
    assert result["eigenvectors_in_4dim_stage"]


def test_socle_is_v4_with_loewy_length_two():
    for b_power in range(8):
        m8, b, ring = regular_module(b_power)
        L = krep.standard_module_h2(b, ring)
        chain = chowrep.explicit_chain(m8)
        v4, v8 = chain[1], chain[3]
        assert len(linalg.hom_space(L.generator_matrices(), m8.generator_matrices(), ring)) == 2
        assert chowrep.socle(m8, L) == v4
        top = chowrep.quotient_module(m8, v8, v4)
        assert len(chowrep.socle(top, L)[0]) == 4
        # a standard module at another b has no maps into M8
        assert chowrep.socle(m8, krep.standard_module_h2(b * ring.tower.gen(), ring)) == ((), [])


def four_copies_of_standard(b, ring):
    """L + L + L + L in dimension 8, L = standard_module_h2(b): the copies sit
    on the coordinate pairs (0, 6), (2, 4), (1, 7) and (3, 5), so every
    member of ``explicit_chain`` is a sum of copies."""
    L = krep.standard_module_h2(b, ring)
    gens = []
    for mat in L.gens:
        M = [[ring.zero] * 8 for _ in range(8)]
        for pair in ((0, 6), (2, 4), (1, 7), (3, 5)):
            for r, i in enumerate(pair):
                for c, j in enumerate(pair):
                    M[i][j] = mat[r][c]
        gens.append(tuple(map(tuple, M)))
    return krep.FiniteModule("h2", ring, tuple(gens), L.zeta2).validate()


def test_socle_decides_semisimplicity_both_ways():
    m8, b, ring = regular_module()
    report = chowrep.semisimplify(m8, b)
    assert report["semisimple"] is False
    assert report["eigenvectors_in_4dim_stage"] is True
    split = chowrep.semisimplify(four_copies_of_standard(b, ring), b)
    assert split["dims"] == [2, 4, 6, 8] and split["all_factors_standard"] is True
    assert split["semisimple"] is True
    assert split["eigenvectors_in_4dim_stage"] is False


def test_regular_reduction_fails_on_a_semisimple_module(monkeypatch):
    def semisimple(theta, ring):
        return four_copies_of_standard(theta[1], ring)

    monkeypatch.setattr(chowrep, "reduce_regular_at_theta", semisimple)
    result = verify.suite_regular_reduction(3)
    assert result["passed"] is False
    assert result["checks"] == 48
    assert len(result["counterexamples"]) == 24
    named = [cx for cx in result["counterexamples"] if cx[1] == "M8 is semisimple: its socle is all of it"]
    assert len(named) == 8


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (3, 2)])
def test_joint_kernel_of_the_affine_generators_is_the_socle(p, f):
    # S and S0 = U S U^-1 act by 0 on L, and their joint kernel is a
    # submodule on which the algebra acts through e1 and U alone
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    for b in tower.ext_elements()[1:]:
        m8 = chowrep.reduce_regular_at_theta((ring.zero, b), ring)
        d = m8.gen_dict()
        S0 = linalg.mat_mul(linalg.mat_mul(d["U"], d["S"]), d["Uinv"])
        kernel = linalg.rref(dense_nullspace(*dense_rref(tuple(d["S"]) + tuple(S0)), 8, ring))
        soc = chowrep.socle(m8, krep.standard_module_h2(b, ring))
        assert kernel == soc == chowrep.explicit_chain(m8)[1]


def test_generators_suffice_for_the_regular_module():
    # e2 = 1 - e1 and Uinv = U / b add nothing to spinning or intertwining
    def every_matrix(m):
        d = m.gen_dict()
        return [d[name] for name in ("e1", "e2", "S", "U", "Uinv")]

    m8, b, ring = regular_module(4)
    # the basis lines e_i, then every e_i + c e_j with i < j and c != 0: every fourth one
    unit = [tuple(ring.one if j == i else ring.zero for j in range(8)) for i in range(8)]
    all_seeds = list(unit)
    for i in range(8):
        for j in range(i + 1, 8):
            for c in ring.tower.ext_elements()[1:]:
                all_seeds.append(unit[i][:j] + (c,) + unit[i][j + 1 :])
    seeds = all_seeds[::4]
    subspaces = set()
    for v in seeds:
        sub = linalg.spin([v], m8.generator_matrices(), ring)
        assert sub == linalg.spin([v], every_matrix(m8), ring)
        subspaces.add(sub[0])
    assert len(seeds) == 58 and len(subspaces) > 1
    target = krep.standard_module_h2(b, ring)
    other = krep.standard_module_h2(b * b, ring)
    for factor in chowrep.composition_series(m8, b)["factors"]:
        for std, expected in ((target, True), (other, False)):
            assert krep.is_isomorphic(factor, std) is expected
            assert (linalg.solve_intertwiner(every_matrix(factor), every_matrix(std), ring) is not None) is expected


def test_quotient_module_consistency():
    m8, b, ring = regular_module()
    chain = chowrep.explicit_chain(m8)
    big, small = chain[1], chain[0]
    quot = chowrep.quotient_module(m8, big, small)
    assert quot.dim == len(big[0]) - len(small[0])
    quot.validate()


def solved_quotient_gens(m, big, small):
    """Reference quotient of every matrix of ``m.gen_dict()``, by name: each
    image M v is solved against the quotient rows and the rows of small by
    row-reducing one augmented matrix."""
    ring = m.ring
    q_basis = [v for v, p in zip(*big) if p not in small[1]]
    cols = q_basis + list(small[0])
    dim = len(q_basis)

    def induced(M):
        out = [[ring.zero] * dim for _ in range(dim)]
        for j, v in enumerate(q_basis):
            w = dense_mat_vec(M, v)
            R, pivots = linalg.rref([[c[i] for c in cols] + [w[i]] for i in range(m.dim)])
            assert len(cols) not in pivots, "image leaves big"
            for row, pc in zip(R, pivots):
                if pc < dim:
                    out[pc][j] = row[-1]
        return tuple(map(tuple, out))

    return {name: induced(M) for name, M in m.gen_dict().items()}


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (3, 2)])
def test_quotient_matches_solving_on_every_nested_pair(p, f):
    tower = build_tower(p, f)
    ring = FieldRing(tower, "ext")
    for b in (tower.gen_power(1), tower.gen_power(2)):
        m8 = chowrep.reduce_regular_at_theta((ring.zero, b), ring)
        e = linalg.mat_identity(ring.one, 8)
        seeds = list(e) + [tuple(x + y for x, y in zip(e[i], e[j])) for i in range(8) for j in range(i + 1, 8)]
        spun = {sub[0]: sub for sub in (linalg.spin([v], m8.generator_matrices(), ring) for v in seeds)}
        subs = [((), [])] + list(spun.values())
        pairs = [(s, t) for s in subs for t in subs if all(linalg.row_space_contains(t, v) for v in s[0])]
        assert len(pairs) == 76
        for small, big in pairs:
            quot = chowrep.quotient_module(m8, big, small)
            assert quot.dim == len(big[0]) - len(small[0])
            assert quot.gen_dict() == solved_quotient_gens(m8, big, small)


def test_quotient_refuses_a_pair_that_is_not_nested():
    m8, b, ring = regular_module()
    v2, v4 = chowrep.explicit_chain(m8)[:2]
    # <x1_1, 1_2> is a simple submodule of V4 other than V2 = <1_1, x1_2>
    other = linalg.spin([linalg.mat_identity(ring.one, 8)[2]], m8.generator_matrices(), ring)
    assert len(other[0]) == 2 and other != v2
    assert all(linalg.row_space_contains(v4, v) for v in other[0])
    with pytest.raises(ArithmeticError, match="chain is not nested"):
        chowrep.quotient_module(m8, v2, other)

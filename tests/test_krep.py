import itertools
import random

import pytest

from heckedem import chowrep, krep, linalg
from heckedem.charrings import ZQ, FieldRing, GroupRingElement, to_xi_poly
from heckedem.coeffs import build_tower
from heckedem.hecke import HeckeElement, T_S, T_U, zeta1_embedded, zeta2_embedded
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
    assert MU[0][0] == GroupRingElement.xi1(ZQ)
    assert MU[0][1] == mono(1, -1) + mono(0, 0) + mono(-1, 1)
    assert MU[1][0] == -mono(1, 1)
    assert MU[1][1] == -GroupRingElement.xi1(ZQ)


def test_theorem_identities_symbolic():
    MS, MU = krep.rep_A0_S(ZQ), krep.rep_A_U(ZQ)
    ident = linalg.mat_identity(GroupRingElement.one(ZQ), 2)
    # U^2 = xi2 Id
    assert linalg.mat_mul(MU, MU) == linalg.mat_scale(ident, GroupRingElement.xi2(ZQ))
    # US + (1-q)U + SU = xi1 Id
    one_minus_q = GroupRingElement.from_scalar(ZQ, ZQ.one - ZQ.q)
    lhs = linalg.mat_add(
        linalg.mat_add(linalg.mat_mul(MU, MS), linalg.mat_scale(MU, one_minus_q)),
        linalg.mat_mul(MS, MU),
    )
    assert lhs == linalg.mat_scale(ident, GroupRingElement.xi1(ZQ))
    # det A(U) = -e^{(1,1)}
    assert linalg.det(MU) == -mono(1, 1)


def test_theorem_constraint_system():
    assert krep.check_theorem_constraints(ZQ) == {
        "a_eq_minus_d": True,
        "bc_eq_xi2_minus_a2": True,
        "trace_condition": True,
    }


def test_independence_determinants_nonzero():
    assert not krep.independence_determinant(krep.A_Q, ZQ, at_q0=False).is_zero()
    assert not krep.independence_determinant(krep.A_Q, ZQ, at_q0=True).is_zero()


def test_rep_A_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(30):
        x, y = random_hecke(rng, "iwahori"), random_hecke(rng, "iwahori")
        assert krep.rep_A(x * y) == linalg.mat_mul(krep.rep_A(x), krep.rep_A(y))


def test_represent_drops_an_entry_term_that_cancels():
    # A(q)(S) has -1 at (1, 1) and A(q)(1) is the identity: the two terms of
    # T_S + 1 cancel there, and represent leaves no zero coefficient
    x = T_S("iwahori", ZQ) + HeckeElement.one("iwahori", ZQ)
    image = krep.represent(krep.A_Q, x)
    assert image == linalg.mat_add(krep.rep_A0_S(ZQ), linalg.mat_identity(GroupRingElement.one(ZQ), 2))
    assert image[1][1].terms == {} and image[0][0].terms == {(0, 0): ZQ.q + ZQ.one}


def test_rep_A_center_scalars():
    # central elements act as scalar matrices: zeta1 -> xi1, zeta2 -> xi2
    ident = linalg.mat_identity(GroupRingElement.one(ZQ), 2)
    assert krep.rep_A(zeta1_embedded("iwahori", ZQ)) == linalg.mat_scale(ident, GroupRingElement.xi1(ZQ))
    assert krep.rep_A(zeta2_embedded("iwahori", ZQ)) == linalg.mat_scale(ident, GroupRingElement.xi2(ZQ))


def test_matrix_action_matches_decomposition():
    rng = random.Random(17)
    MS = krep.rep_A0_S(ZQ)
    from heckedem.charrings import demazure_k

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


def projective_lines(ring, dim):
    """Representatives of all lines of E^dim: first nonzero coordinate 1."""
    elements = ring.tower.ext_elements()
    for lead in range(dim):
        for tail in itertools.product(elements, repeat=dim - lead - 1):
            yield (ring.zero,) * lead + (ring.one,) + tail


def irreducible_by_line_sweep(m):
    """The exhaustive reference: every nonzero vector spins to the whole space."""
    ops = m.generator_matrices()
    return all(len(linalg.spin([v], ops, m.ring)[0]) == m.dim for v in projective_lines(m.ring, m.dim))


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
    # a proper invariant line exists
    lines = [linalg.spin([v], red.generator_matrices(), ring)[0] for v in projective_lines(ring, 2)]
    assert any(len(rows) == 1 for rows in lines)
    # tau1 = 0: irreducible
    irr = krep.standard_module(ring.zero, one, ring)
    assert krep.is_irreducible(irr)
    assert not krep.is_isomorphic(red, irr)


def test_reduce_at_theta_rejects_zero_tau2():
    tower = build_tower(3, 1)
    ring = FieldRing(tower, "ext")
    with pytest.raises(ValueError):
        krep.reduce_at_theta((ring.zero, ring.zero), ring)


def _spans_and_isomorphism_agree(m1, m2, ring):
    """Spinning and the isomorphism test give the same answers over the
    generators as over all named matrices (Uinv and e2 included)."""

    def every_matrix(m):
        d = m.gen_dict()
        return [d[name] for name in ("e1", "e2", "S", "U", "Uinv") if name in d]

    for m in (m1, m2):
        for v in projective_lines(ring, m.dim):
            assert linalg.spin([v], m.generator_matrices(), ring) == linalg.spin([v], every_matrix(m), ring)
    assert krep.is_isomorphic(m1, m2) == (
        linalg.solve_intertwiner(every_matrix(m1), every_matrix(m2), ring) is not None
    )


def test_generators_suffice_for_two_dim_modules():
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    elements = tower.ext_elements()
    for tau1 in elements[:4]:
        for tau2 in elements[1:5]:
            red = krep.reduce_at_theta((tau1, tau2), ring)
            _spans_and_isomorphism_agree(red, krep.standard_module(tau1, tau2, ring), ring)
            _spans_and_isomorphism_agree(red, krep.standard_module(ring.zero, tau2, ring), ring)
    for b, c in ((elements[1], elements[1]), (elements[1], elements[5]), (elements[3], elements[7])):
        _spans_and_isomorphism_agree(krep.standard_module_h2(b, ring), krep.standard_module_h2(c, ring), ring)


def two_dim_modules(p, tau2s=None):
    """Every reduce_at_theta, standard_module and standard_module_h2 module
    over GF(p^2), or those at the given values of tau2 (and b = tau2)."""
    tower = build_tower(p, 1)
    ring = FieldRing(tower)
    elements = tower.ext_elements()
    for tau2 in elements[1:] if tau2s is None else tau2s:
        yield krep.standard_module_h2(tau2, ring)
        for tau1 in elements:
            yield krep.reduce_at_theta((tau1, tau2), ring)
            yield krep.standard_module(tau1, tau2, ring)


@pytest.mark.parametrize(
    "modules",
    [
        lambda: two_dim_modules(3),
        # tau2 = g^2 is a square, so this slice holds reducible modules too
        lambda: two_dim_modules(5, tau2s=[build_tower(5, 1).gen_power(2)]),
    ],
    ids=["q3-all", "q5-slice"],
)
def test_burnside_agrees_with_line_sweep(modules):
    verdicts = [(krep.is_irreducible(m), irreducible_by_line_sweep(m)) for m in modules()]
    assert all(burnside == sweep for burnside, sweep in verdicts)
    assert {sweep for _, sweep in verdicts} == {True, False}


def test_faithfulness_rank_is_rank_of_basis_images():
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    for tau1 in tower.ext_elements():
        for tau2 in tower.ext_elements()[1:]:
            mod = krep.reduce_at_theta((tau1, tau2), ring)
            d = mod.gen_dict()
            images = (linalg.mat_identity(ring.one, 2), d["S"], d["U"], linalg.mat_mul(d["S"], d["U"]))
            old_rank = linalg.rank([tuple(x for row in M for x in row) for M in images])
            assert krep.faithfulness_rank(mod) == old_rank, (tau1, tau2)


def test_gen_dict_reads_off_the_inverse_of_U_and_e2():
    # a module stores e1, S and U; the matrices read off them satisfy U Uinv
    # = 1 and, on h2, e1 + e2 = 1 and e2^2 = e2
    ring = FieldRing(build_tower(3, 1))
    m8s = [chowrep.reduce_regular_at_theta((ring.zero, b), ring) for b in ring.tower.ext_elements()[1:]]
    for m in itertools.chain(two_dim_modules(3), m8s):
        d = m.gen_dict()
        names = ["e1", "e2", "S", "U", "Uinv"] if m.flavor == "h2" else ["S", "U", "Uinv"]
        assert list(d) == names
        assert m.generator_matrices() == tuple(d[name] for name in names if name not in ("e2", "Uinv"))
        ident = linalg.mat_identity(ring.one, m.dim)
        assert linalg.mat_mul(d["U"], d["Uinv"]) == ident
        if m.flavor == "h2":
            assert linalg.mat_add(d["e1"], d["e2"]) == ident
            assert linalg.mat_mul(d["e2"], d["e2"]) == d["e2"]


@pytest.mark.parametrize(
    "flavor,gens",
    [
        # U^2 = 1, but S^2 = S != -S
        ("iwahori", (((1, 0), (0, 0)), ((0, 1), (1, 0)))),
        # e1 = diag(1, 0) swaps with S = U, U^2 = 1, but S^2 = 1 != 0
        ("h2", (((1, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 1), (1, 0)))),
    ],
)
def test_validate_rejects_an_S_that_breaks_the_quadratic_relation(flavor, gens):
    ring = FieldRing(build_tower(3, 1))
    gens = tuple(tuple(tuple(ring.from_int(x) for x in row) for row in M) for M in gens)
    with pytest.raises(ValueError, match=r"S\^2"):
        krep.FiniteModule(flavor, ring, gens, ring.one).validate()


def test_validate_rejects_an_e1_that_is_not_idempotent():
    # L's U and S pass, and e1 = diag(g, 0) squares to diag(g^2, 0)
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    L = krep.standard_module_h2(tower.gen_power(1), ring)
    e1 = ((tower.gen_power(1), ring.zero), (ring.zero, ring.zero))
    with pytest.raises(ValueError, match="e1 is not idempotent"):
        krep.FiniteModule("h2", ring, (e1,) + L.gens[1:], L.zeta2).validate()


@pytest.mark.parametrize("flavor", ["iwahori", "h2"])
@pytest.mark.parametrize("U", [((1, 1), (0, 1)), ((1, 0), (0, 2))], ids=["off-diagonal", "diagonal"])
def test_validate_checks_U_squared_on_every_column(flavor, U):
    # U^2 e_0 = e_0 = zeta2 e_0, but U^2 e_1 is (2, 1) or (0, 4), not e_1
    ring = FieldRing(build_tower(5, 1))
    U = tuple(tuple(ring.from_int(x) for x in row) for row in U)
    zero = ((ring.zero, ring.zero), (ring.zero, ring.zero))
    e1 = ((ring.one, ring.zero), (ring.zero, ring.zero))
    U2 = linalg.mat_mul(U, U)
    assert (U2[0][0], U2[1][0]) == (ring.one, ring.zero) and (U2[0][1], U2[1][1]) != (ring.zero, ring.one)
    gens = (e1, zero, U) if flavor == "h2" else (zero, U)
    with pytest.raises(ValueError, match=r"U\^2 != zeta2"):
        krep.FiniteModule(flavor, ring, gens, ring.one).validate()


def evaluate_at_theta(rep, flavor, ring, x1, u2):
    """S and U at xi1 = x1 over A = E[x]/(x^d - u2), d = ``rep.zeta2_degree``,
    by evaluating each xi-polynomial entry p(xi1, xi2) of the images as the
    element p(x1, x) of A, a list of d coefficients, and multiplying it
    into each basis vector x^u of A.  The rows and columns run over the
    basis of the docstring of ``krep._theta_images``: per component, 1 and
    delta, then x and x delta."""
    d, one, zero = rep.zeta2_degree, ring.one, ring.zero

    def times_x(a, k):
        # x^k a: x^d wraps to u2, and x^-1 = u2^-1 x^(d-1)
        for _ in range(abs(k)):
            a = [a[-1] * u2] + a[:-1] if k > 0 else a[1:] + [a[0] * u2.inverse()]
        return a

    out = []
    for image in krep.represent(rep, T_S(flavor, ring)), krep.represent(rep, T_U(flavor, ring)):
        n = len(image)
        order = [(2 * i + r, t) for i in range(n // 2) for t in range(d) for r in range(2)]
        M = [[zero] * (n * d) for _ in range(n * d)]
        for col, (s, u) in enumerate(order):
            for row, (r, t) in enumerate(order):
                acc = [zero] * d
                for (m, k), c in to_xi_poly(image[r][s]).items():
                    for _ in range(m):
                        c = c * x1
                    unit = [one if i == u else zero for i in range(d)]
                    acc = [a + c * b for a, b in zip(acc, times_x(unit, k))]
                M[row][col] = acc[t]
        out.append(tuple(map(tuple, M)))
    return tuple(out)


@pytest.mark.parametrize("p", [3, 5])
def test_specialize_matches_direct_evaluation_of_the_xi_polynomials(p):
    ring = FieldRing(build_tower(p, 1))
    elements = ring.tower.ext_elements()
    for tau1, tau2 in itertools.product(elements, elements[1:]):
        assert krep.specialize(krep.A_Q, "iwahori", ring, tau1, tau2) == evaluate_at_theta(
            krep.A_Q, "iwahori", ring, tau1, tau2
        )
    for b in elements[1:]:
        assert krep.specialize(chowrep.A_NIL, "h2", ring, ring.zero, b) == evaluate_at_theta(
            chowrep.A_NIL, "h2", ring, ring.zero, b
        )


def test_module_builders_multiply_no_matrices_and_compile_each_table_once(fresh_tables, monkeypatch):
    ring = FieldRing(build_tower(3, 1))
    elements = ring.tower.ext_elements()
    products = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda A, B: products.append(1) or mat_mul(A, B))
    builders = {
        "reduce_at_theta": [(krep.reduce_at_theta, (t, ring)) for t in itertools.product(elements, elements[1:])],
        "standard_module": [(krep.standard_module, (*t, ring)) for t in itertools.product(elements, elements[1:])],
        "standard_module_h2": [(krep.standard_module_h2, (b, ring)) for b in elements[1:]],
        "reduce_regular_at_theta": [(chowrep.reduce_regular_at_theta, ((ring.zero, b), ring)) for b in elements[1:]],
    }
    # the first reduction of each record compiles its table, whose images are products
    images = krep._theta_images
    for build, args in builders["reduce_at_theta"][0], builders["reduce_regular_at_theta"][0]:
        build(*args)
    assert products and images.cache_info().misses == images.cache_info().currsize == 2
    counts = {}
    for name, calls in builders.items():
        products.clear()
        for build, args in calls:
            build(*args)
        counts[name] = len(products)
    assert counts == dict.fromkeys(builders, 0)
    assert (images.cache_info().misses, images.cache_info().currsize) == (2, 2)


def intertwiner_by_projective_scan(gens1, gens2, ring):
    """The exhaustive reference: the first invertible combination of the Hom
    space basis, over all projective coordinates (first nonzero one is 1)."""
    basis = linalg.hom_space(gens1, gens2, ring)
    for lead in range(len(basis)):
        for tail in itertools.product(ring.tower.ext_elements(), repeat=len(basis) - lead - 1):
            X = basis[lead]
            for c, B in zip(tail, basis[lead + 1 :]):
                X = linalg.mat_add(X, linalg.mat_scale(B, c))
            if linalg.is_invertible(X):
                return X
    return None


def test_isomorphism_from_the_hom_space_agrees_with_the_projective_scan():
    ring = FieldRing(build_tower(3, 1))
    outcomes = set()
    for tau2 in ring.tower.ext_elements()[1:]:
        modules = list(two_dim_modules(3, tau2s=[tau2]))
        for m1, m2 in itertools.product(modules, repeat=2):
            if m1.flavor == m2.flavor:
                g1, g2 = m1.generator_matrices(), m2.generator_matrices()
                X = linalg.solve_intertwiner(g1, g2, ring)
                assert X == intertwiner_by_projective_scan(g1, g2, ring)
                outcomes.add((m1.flavor, X is None))
    assert outcomes == {("iwahori", True), ("iwahori", False), ("h2", False)}

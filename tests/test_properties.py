"""Property tests over the towers GF(3^2), GF(5^2) and GF(3^4): the field
axioms, row reduction, rank and nullity, spinning, and Hom spaces between
modules."""

import pytest
from conftest import dense_mat_vec, dense_rref
from hypothesis import given, settings, strategies as st
from test_linalg import kernel_vectors

from heckedem import krep, linalg
from heckedem.charrings import FieldRing
from heckedem.coeffs import build_tower

TOWERS = [(3, 1), (5, 1), (3, 2)]

towers = pytest.mark.parametrize("p,f", TOWERS)


def field_elements(tower):
    return st.lists(st.integers(0, tower.p - 1), min_size=2 * tower.f, max_size=2 * tower.f).map(tower.element)


def matrices(tower, nrows, ncols):
    row = st.tuples(*[field_elements(tower)] * ncols)
    return st.tuples(*[row] * nrows)


def direct_sum(A, C, ring):
    """The block-diagonal matrix diag(A, C)."""
    n, m = len(A), len(C)
    return tuple(
        tuple(A[i][j] if i < n and j < n else C[i - n][j - n] if i >= n and j >= n else ring.zero for j in range(n + m))
        for i in range(n + m)
    )


@towers
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_field_axioms(p, f, data):
    tower = build_tower(p, f)
    a, b, c = (data.draw(field_elements(tower)) for _ in range(3))
    zero, one = tower.zero(), tower.one()
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a + (-a) == zero and (a - b) + b == a
    if not a.is_zero():
        assert a * a.inverse() == one


@towers
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_rref_by_insertion_matches_gauss_jordan(p, f, data):
    # tall, square and wide shapes; a product through k inner dimensions is
    # rank-deficient when k is below both sides; then some rows are zeroed
    tower = build_tower(p, f)
    nrows, k, ncols = (data.draw(st.integers(1, 5)) for _ in range(3))
    A = linalg.mat_mul(data.draw(matrices(tower, nrows, k)), data.draw(matrices(tower, k, ncols)))
    zeroed = data.draw(st.sets(st.integers(0, nrows - 1)))
    A = tuple((tower.zero(),) * ncols if i in zeroed else row for i, row in enumerate(A))
    assert linalg.rref(A) == dense_rref(A)
    assert linalg.rref([]) == dense_rref([])


@towers
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_rank_plus_nullity_is_the_column_count(p, f, data):
    # a product through k inner dimensions has rank at most k
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    nrows, k, ncols = (data.draw(st.integers(1, 4)) for _ in range(3))
    A = linalg.mat_mul(data.draw(matrices(tower, nrows, k)), data.draw(matrices(tower, k, ncols)))
    null = kernel_vectors(A, ring)
    assert linalg.rank(A) + len(null) == ncols
    assert all(x.is_zero() for v in null for x in dense_mat_vec(A, v))


@towers
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_spinning_a_spun_subspace_returns_it(p, f, data):
    # the operators keep the first k coordinates, so small subspaces occur
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, n))
    ops = []
    for _ in range(data.draw(st.integers(1, 2))):
        M = data.draw(matrices(tower, n, n))
        ops.append(tuple(tuple(ring.zero if i >= k > j else x for j, x in enumerate(row)) for i, row in enumerate(M)))
    seeds = data.draw(st.lists(st.tuples(*[field_elements(tower)] * n), min_size=1, max_size=2))
    spun = linalg.spin(seeds, ops, ring)
    assert linalg.spin(list(spun[0]), ops, ring) == spun


@towers
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_every_hom_space_basis_element_intertwines(p, f, data):
    # M2 = M1 + M3, so Hom(M1, M2) and Hom(M2, M1) are nonzero
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    n1, n3, n_gens = (data.draw(st.integers(1, 2)) for _ in range(3))
    gens1 = [data.draw(matrices(tower, n1, n1)) for _ in range(n_gens)]
    gens2 = [direct_sum(A, data.draw(matrices(tower, n3, n3)), ring) for A in gens1]
    for source, target in ((gens1, gens2), (gens2, gens1)):
        basis = linalg.hom_space(source, target, ring)
        assert basis
        for X in basis:
            assert len(X) == len(target[0]) and len(X[0]) == len(source[0])
            for A, B in zip(source, target):
                assert linalg.mat_mul(X, A) == linalg.mat_mul(B, X)
        assert linalg.rank([tuple(x for row in X for x in row) for X in basis]) == len(basis)


@towers
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_hom_between_simple_modules_is_schur(p, f, data):
    # at theta = (tau1, tau2) with tau1^2 != tau2 both bases give the one
    # simple module there; the centre separates distinct thetas
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    nonzero = field_elements(tower).filter(lambda x: not x.is_zero())
    thetas = []
    for _ in range(2):
        tau2 = data.draw(nonzero)
        thetas.append((data.draw(field_elements(tower).filter(lambda x: x * x != tau2)), tau2))
    L1, L2 = (krep.reduce_at_theta(theta, ring) for theta in thetas)
    L1_std = krep.standard_module(*thetas[0], ring)
    b1, b2 = data.draw(nonzero), data.draw(nonzero)
    H1, H2 = krep.standard_module_h2(b1, ring), krep.standard_module_h2(b2, ring)
    for M, N, same in (
        (L1, L1, True),
        (L1, L1_std, True),
        (L1_std, L2, thetas[0] == thetas[1]),
        (H1, H1, True),
        (H1, H2, b1 == b2),
    ):
        assert len(linalg.hom_space(M.generator_matrices(), N.generator_matrices(), ring)) == int(same)

import itertools
import random

import pytest
from conftest import dense_mat_vec

from heckedem import chowrep, hecke, krep, linalg
from heckedem.charrings import ZQ, FieldRing
from heckedem.coeffs import build_tower
from heckedem.verify import random_hecke


def test_intertwiner_refuses_a_hom_space_of_dimension_two_or_more():
    # zero 3 x 3 generators leave all 9 entries of X free: Hom has dimension 9
    ring = FieldRing(build_tower(3, 1))
    zero = ((ring.zero,) * 3,) * 3
    with pytest.raises(ValueError, match="dimension 9"):
        linalg.solve_intertwiner([zero], [zero], ring)


def test_hom_space_rejects_generator_lists_of_different_lengths():
    # h2 generators (e1, S, U) against iwahori ones (S, U) must not be paired up
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    b = tower.gen_power(4)
    m8 = chowrep.reduce_regular_at_theta((ring.zero, b), ring)
    with pytest.raises(ValueError):
        chowrep.socle(m8, krep.standard_module(ring.zero, b, ring))


def kronecker_left(ops, ring):
    """X -> A X on n x n matrices X flattened row by row, as in
    ``krep.faithfulness_rank``: entry ((i, j), (k, l)) is A[i][k] if l = j."""
    n = len(ops[0])
    cells = [(i, j) for i in range(n) for j in range(n)]
    return [tuple(tuple(A[i][k] if l == j else ring.zero for k, l in cells) for i, j in cells) for A in ops]


def restart_spin(seeds, operators):
    """Spinning as it was done before the echelon basis was kept: a full
    rref of the basis plus the new vector for every vector outside it,
    each image taken by the dense product."""
    rows, pivots = linalg.rref(list(seeds))
    queue = list(rows)
    while queue:
        v = queue.pop()
        for op in operators:
            w = dense_mat_vec(op, v)
            if not linalg.row_space_contains((rows, pivots), w):
                rows, pivots = linalg.rref(list(rows) + [w])
                queue.append(w)
    return rows, pivots


def test_incremental_spin_matches_restart_spin_on_the_regular_module():
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    # the basis lines e_i, then every e_i + c e_j with i < j and c != 0: every fourth one
    unit = [tuple(ring.one if j == i else ring.zero for j in range(8)) for i in range(8)]
    seeds = list(unit)
    for i, j in itertools.combinations(range(8), 2):
        seeds += [unit[i][:j] + (c,) + unit[i][j + 1 :] for c in tower.ext_elements()[1:]]
    seeds = seeds[::4]
    assert len(seeds) == 58
    for k in range(8):
        m8 = chowrep.reduce_regular_at_theta((ring.zero, tower.gen_power(k)), ring)
        ops = m8.generator_matrices()
        for v in seeds:
            assert linalg.spin([v], ops, ring) == restart_spin([v], ops)


def test_incremental_spin_matches_restart_spin_on_reductions_at_theta():
    tower = build_tower(5, 1)
    ring = FieldRing(tower)
    tau2 = tower.gen_power(2)
    elements = tower.ext_elements()
    ident = (ring.one, ring.zero, ring.zero, ring.one)
    for tau1 in elements:
        ops = krep.reduce_at_theta((tau1, tau2), ring).generator_matrices()
        for v in itertools.product(elements, repeat=2):
            assert linalg.spin([v], ops, ring) == restart_spin([v], ops)
        left = kronecker_left(ops, ring)
        assert linalg.spin([ident], left, ring) == restart_spin([ident], left)


def random_vectors(rng, tower, n, count=6):
    """The zero vector, then vectors whose entries are zero or nonzero with
    equal chance."""
    elements = tower.ext_elements()
    vectors = [(elements[0],) * n]
    for _ in range(count):
        vectors.append(tuple(rng.choice(elements[1:]) if rng.random() < 0.5 else elements[0] for _ in range(n)))
    return vectors


def assert_sparse_product_is_dense(A, ring, rng):
    P = linalg.nonzeros(A)
    assert all(not a.is_zero() and A[i][j] == a for i, terms in enumerate(P) for j, a in terms)
    assert sum(map(len, P)) == sum(not a.is_zero() for row in A for a in row)
    for v in random_vectors(rng, ring.tower, len(A[0])):
        assert linalg.mat_vec(P, v, ring.zero) == dense_mat_vec(A, v)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1)])
def test_sparse_mat_vec_matches_dense_on_every_regular_module(p, f):
    # M8 at every b in GF(9)^x and GF(25)^x, and every generator it has
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    rng = random.Random(p)
    for b in tower.ext_elements()[1:]:
        for _, A in chowrep.reduce_regular_at_theta((ring.zero, b), ring).gens:
            assert_sparse_product_is_dense(A, ring, rng)


def test_sparse_mat_vec_matches_dense_on_reductions_and_kronecker_operators():
    # every reduction at theta over GF(25), and the operators faithfulness_rank spins under
    tower = build_tower(5, 1)
    ring = FieldRing(tower)
    rng = random.Random(5)
    elements = tower.ext_elements()
    for tau1, tau2 in itertools.product(elements, elements[1:]):
        m = krep.reduce_at_theta((tau1, tau2), ring)
        for _, A in m.gens:
            assert_sparse_product_is_dense(A, ring, rng)
        for A in kronecker_left(m.generator_matrices(), ring):
            assert_sparse_product_is_dense(A, ring, rng)


def dense_mat_mul(A, B):
    """A B by the triple loop over every entry."""
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            acc = A[i][0] * B[0][j]
            for t in range(1, len(B)):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def assert_mat_mul_is_dense(A, B):
    got, want = linalg.mat_mul(A, B), dense_mat_mul(A, B)
    assert got == want
    # every entry, zeros included, is an element of the ring's own type: no bare int 0
    assert [type(x) for row in got for x in row] == [type(x) for row in want for x in row]


def test_mat_mul_matches_the_dense_triple_loop_on_the_verified_images():
    # the rep_A2, rep_Anil and h2 matrix-model images that verify multiplies
    ring = FieldRing(build_tower(3, 1))
    rng = random.Random(7)
    for _ in range(20):
        x, y = (random_hecke(rng, "h2", ring, n_terms=2) for _ in range(2))
        assert_mat_mul_is_dense(chowrep.rep_A2(x), chowrep.rep_A2(y))
        x, y = (random_hecke(rng, "nil", ring) for _ in range(2))
        assert_mat_mul_is_dense(chowrep.rep_Anil(x), chowrep.rep_Anil(y))
        x, y = (hecke.specialize_q0(random_hecke(rng, "h2", ZQ)) for _ in range(2))
        assert_mat_mul_is_dense(hecke.h2_matrix_model(x), hecke.h2_matrix_model(y))
    zm = [hecke._ZM_S, hecke._ZM_U, hecke._ZM_U_INV, hecke._ZM_E1, hecke._ZM_E2, hecke._ZM_S0]
    for A, B in itertools.product(zm, repeat=2):
        assert_mat_mul_is_dense(A, B)


def test_mat_mul_with_a_zero_row_and_a_non_square_shape():
    tower = build_tower(5, 1)
    ring = FieldRing(tower)
    rng = random.Random(11)
    elements = tower.ext_elements()
    A = (tuple(rng.choice(elements) for _ in range(3)), (ring.zero,) * 3)
    B = tuple(tuple(rng.choice(elements) for _ in range(4)) for _ in range(3))
    assert_mat_mul_is_dense(A, B)
    assert_mat_mul_is_dense(B[:2], tuple(zip(*B)))

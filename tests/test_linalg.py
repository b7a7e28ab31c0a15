import itertools
import random

import pytest
from conftest import dense_mat_vec, dense_nullspace, dense_rref
from test_trace_contract import load_tracer

from heckedem import chowrep, hecke, krep, linalg, verify
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


def random_vectors(rng, tower, n, count=6):
    """The zero vector, then vectors whose entries are zero or nonzero with
    equal chance."""
    elements = tower.ext_elements()
    vectors = [(elements[0],) * n]
    for _ in range(count):
        vectors.append(tuple(rng.choice(elements[1:]) if rng.random() < 0.5 else elements[0] for _ in range(n)))
    return vectors


def support(v) -> dict:
    """The nonzero entries of a dense vector, by column."""
    return {j: x for j, x in enumerate(v) if not x.is_zero()}


def kernel_vectors(A, ring):
    """``linalg._kernel`` of the rows of A, its basis vectors made dense."""
    ncols = len(A[0])
    kernel = linalg._kernel(map(linalg.sparse, A), ncols, ring)
    return [tuple(v.get(j, ring.zero) for j in range(ncols)) for v in kernel]


def dense_remainder(R, pivots, v):
    """v less v[p] times each RREF row, over whole rows."""
    v = list(v)
    for row, p in zip(R, pivots):
        c = v[p]
        v = [x - c * y for x, y in zip(v, row)]
    return tuple(v)


def reference_matrices(tower, rng):
    """Per shape: a random matrix with about half its entries zero, a
    product through one inner dimension (rank at most 1), the zero matrix,
    and the random matrix with a repeated row, a zero row and its rows
    shuffled."""
    elements = tower.ext_elements()
    zero = elements[0]

    def entry():
        return rng.choice(elements[1:]) if rng.random() < 0.5 else zero

    for nrows, ncols in [(1, 1), (2, 3), (3, 3), (4, 6), (6, 4), (5, 5), (8, 8)]:
        A = [tuple(entry() for _ in range(ncols)) for _ in range(nrows)]
        column = tuple(entry() for _ in range(nrows))
        line = tuple(rng.choice(elements[1:]) for _ in range(ncols))
        padded = A + [A[0], (zero,) * ncols, A[-1]]
        rng.shuffle(padded)
        yield from (A, [tuple(c * x for x in line) for c in column], [(zero,) * ncols] * nrows, padded)


@pytest.mark.parametrize("p", [3, 5])
def test_echelon_core_matches_dense_gauss_jordan(p):
    # rref, rank, kernel, remainder and row_space_contains over GF(p^2),
    # remainders against the basis as tuples and as {column: entry} dicts
    tower = build_tower(p, 1)
    ring = FieldRing(tower)
    rng = random.Random(p)
    ranks = []
    for A in reference_matrices(tower, rng):
        R, pivots = dense_rref(A)
        ncols = len(A[0])
        assert linalg.rref(A) == (R, pivots)
        assert linalg.rank(A) == len(R)
        assert kernel_vectors(A, ring) == dense_nullspace(R, pivots, ncols, ring)
        vectors = random_vectors(rng, tower, ncols) + A + [tuple(x + y for x, y in zip(A[0], A[-1]))]
        for v in vectors:
            want = support(dense_remainder(R, pivots, v))
            inside = len(dense_rref(list(R) + [v])[0]) == len(R)
            for basis in ((R, pivots), ([support(row) for row in R], pivots)):
                assert linalg.remainder(basis, v) == want
                assert linalg.remainder(basis, support(v)) == want
                assert linalg.row_space_contains(basis, v) is inside
        ranks.append((len(R), min(len(A), ncols)))
    assert any(r == 0 for r, _ in ranks)
    assert any(r == full > 1 for r, full in ranks)
    assert any(0 < r < full for r, full in ranks)


def kronecker_left(ops, ring):
    """X -> A X on n x n matrices X flattened row by row, as dense n^2 x n^2
    matrices: entry ((i, j), (k, l)) is A[i][k] if l = j.  The reference
    for ``linalg.algebra_dim``, which builds no such matrix."""
    n = len(ops[0])
    cells = [(i, j) for i in range(n) for j in range(n)]
    return [tuple(tuple(A[i][k] if l == j else ring.zero for k, l in cells) for i, j in cells) for A in ops]


def restart_spin(seeds, operators):
    """Spinning with no echelon basis kept and no ``linalg`` code: each
    image, taken by the dense product, is tried by a full Gauss-Jordan
    reduction of the rows so far plus that image."""
    rows, pivots = dense_rref(list(seeds))
    queue = list(rows)
    while queue:
        v = queue.pop()
        for op in operators:
            w = dense_mat_vec(op, v)
            grown = dense_rref(list(rows) + [w])
            if len(grown[0]) > len(rows):
                rows, pivots = grown
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


def counting_pattern_builds(monkeypatch) -> list:
    """Every matrix whose nonzero pattern is built from here on, kept alive
    so that no two of them share an id."""
    builds = []
    nonzeros = linalg.nonzeros
    monkeypatch.setattr(linalg, "nonzeros", lambda A: builds.append(A) or nonzeros(A))
    return builds


def test_criterion_8_builds_each_pattern_at_most_once(monkeypatch):
    # one b of the regular reduction: M8, its four factors, L, the top
    # quotient and every product, spin, quotient and Hom space taken with them
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    builds = counting_pattern_builds(monkeypatch)
    t = verify.Tally("regular")
    verify._check_regular_module(t, tower.gen_power(1), ring)
    assert t.report()["passed"] and t.report()["checks"] == 6
    assert len({id(A) for A in builds}) == len(builds) > 0
    assert all(type(A) is linalg.Matrix for A in builds)


def test_criterion_8_reads_every_pattern_from_a_module_matrix(monkeypatch):
    # M8, L and every quotient are made of Matrix objects, so no plain tuple
    # is coerced, which would build a pattern on a copy
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    plain = []
    pattern = linalg.pattern

    def read(A):
        if not isinstance(A, linalg.Matrix):
            plain.append(A)
        return pattern(A)

    monkeypatch.setattr(linalg, "pattern", read)
    t = verify.Tally("regular")
    verify._check_regular_module(t, tower.gen_power(1), ring)
    assert t.report()["passed"]
    assert plain == []


def test_criterion_8_induces_one_matrix_per_generator_on_each_quotient(monkeypatch):
    # one b of the regular reduction takes five quotients, the four factors
    # of the chain and M8 over its socle, and each induces e1, S and U only
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    induced = []
    quotient_action = linalg.quotient_action

    def counted(gens, big, small):
        out = quotient_action(gens, big, small)
        induced.extend(out)
        return out

    monkeypatch.setattr(linalg, "quotient_action", counted)
    t = verify.Tally("regular")
    with load_tracer().Tracer() as tracer:
        verify._check_regular_module(t, tower.gen_power(1), ring)
    assert t.report()["passed"] and t.report()["checks"] == 6
    assert len(induced) == 5 * 3
    # 12 quotient basis vectors under 3 generators, and the witness spin's
    # 4 x 3: the fourth vector it takes from the queue gives its eighth row,
    # and the spin stops there, since 8 rows span all of M8; and the
    # builders' relation checks on M8 and on L, one application per column
    # of U^2, S^2 and e1^2 and two per column of e1 S + S e1 and e1 U + U e1:
    # 7 x 8 and 7 x 2
    assert tracer.calls["linalg.mat_vec"] == 12 * 3 + 4 * 3 + 7 * 8 + 7 * 2


def test_a_second_spin_builds_no_pattern_and_traces_every_operator_application(monkeypatch):
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    m8 = chowrep.reduce_regular_at_theta((ring.zero, tower.gen_power(1)), ring)
    seed = (ring.zero,) * 7 + (ring.one,)
    linalg.spin([seed], m8.generator_matrices(), ring)
    # the second spin gets a new list of the same matrices
    builds = counting_pattern_builds(monkeypatch)
    inserts = []
    insert = linalg._insert
    monkeypatch.setattr(linalg, "_insert", lambda *args: inserts.append(1) or insert(*args))
    ops = m8.generator_matrices()
    with load_tracer().Tracer() as tracer:
        rows, _ = linalg.spin([seed], ops, ring)
    assert builds == []
    # spin hands the seed and then each operator image to _insert, once each
    applications = len(inserts) - 1
    assert tracer.calls["linalg.mat_vec"] == applications == len(rows) * len(ops) > 0


def test_spins_over_plain_tuples_and_fresh_operators_match_restart_spin():
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    g = tower.gen_power(1)
    A = chowrep.reduce_regular_at_theta((ring.zero, g), ring).generator_matrices()
    # equal but distinct copies of M8's matrices, as plain tuples
    copies = [tuple(tuple(list(row)) for row in M) for M in A]
    assert copies == list(A) and all(type(c) is tuple and c is not M for c, M in zip(copies, A))
    unit = linalg.mat_identity(ring.one, 8)
    for i, j in itertools.combinations(range(8), 2):
        v = tuple(x + g * y for x, y in zip(unit[i], unit[j]))
        assert linalg.spin([v], copies, ring) == linalg.spin([v], A, ring) == restart_spin([v], copies)
    # the Burnside rank at every reduction at theta over GF(25) is the
    # dimension that the reference spin under the Kronecker operators finds
    tower = build_tower(5, 1)
    ring = FieldRing(tower)
    ident = (ring.one, ring.zero, ring.zero, ring.one)
    elements = tower.ext_elements()
    for tau1, tau2 in itertools.product(elements, elements[1:]):
        m = krep.reduce_at_theta((tau1, tau2), ring)
        want = len(restart_spin([ident], kronecker_left(m.generator_matrices(), ring))[0])
        assert krep.faithfulness_rank(m) == want, (tau1, tau2)


def test_a_spin_that_spans_everything_stops_at_full_span(monkeypatch):
    # at every b in GF(9)^x: the witness d1_1 + d1_2 generates M8, and the
    # unit vectors span E^8 before any operator is applied; the spin returns
    # the reference result with fewer than rows x operators applications
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    unit = linalg.mat_identity(ring.one, 8)
    witness = tuple(x + y for x, y in zip(unit[1], unit[5]))
    applications = []
    mat_vec = linalg.mat_vec
    monkeypatch.setattr(linalg, "mat_vec", lambda C, v: applications.append(1) or mat_vec(C, v))
    for b in tower.ext_elements()[1:]:
        ops = chowrep.reduce_regular_at_theta((ring.zero, b), ring).generator_matrices()
        for seeds in ([witness], list(unit)):
            applications.clear()
            rows, pivots = linalg.spin(seeds, ops, ring)
            assert (rows, pivots) == restart_spin(seeds, ops) == (unit, list(range(8)))
            assert len(applications) < len(rows) * len(ops)
        assert applications == []


def test_spin_of_no_seeds_is_the_zero_subspace():
    ring = FieldRing(build_tower(3, 1))
    ops = chowrep.reduce_regular_at_theta((ring.zero, ring.one), ring).generator_matrices()
    assert linalg.spin([], ops, ring) == ((), [])


def test_algebra_dim_matches_the_reference_kronecker_spin():
    # random n x n generators with about half their entries zero, n = 1 to 4,
    # one to three of them, and the generators of M8 at every b in GF(9)^x
    tower = build_tower(5, 1)
    ring = FieldRing(tower)
    rng = random.Random(2)
    elements = tower.ext_elements()
    cases = []
    for n, k in itertools.product(range(1, 5), range(1, 4)):
        for _ in range(3):
            entry = lambda: rng.choice(elements[1:]) if rng.random() < 0.5 else ring.zero
            cases.append((tuple(tuple(tuple(entry() for _ in range(n)) for _ in range(n)) for _ in range(k)), ring))
    small = FieldRing(build_tower(3, 1))
    for b in small.tower.ext_elements()[1:]:
        cases.append((chowrep.reduce_regular_at_theta((small.zero, b), small).generator_matrices(), small))
    dims = []
    for gens, r in cases:
        n = len(gens[0])
        ident = tuple(r.one if i == j else r.zero for i in range(n) for j in range(n))
        dims.append(linalg.algebra_dim(gens, r))
        assert dims[-1] == len(restart_spin([ident], kronecker_left(gens, r))[0])
    assert {1, 16, 8} <= set(dims) and any(1 < d < len(g[0]) ** 2 for d, (g, _) in zip(dims, cases))


def test_faithfulness_rank_builds_no_pattern_beyond_those_of_validate(monkeypatch):
    # validate() reads the patterns of S and U through mat_mul; the Burnside
    # rank reads the same ones, at every reduction at theta over GF(25)
    tower = build_tower(5, 1)
    ring = FieldRing(tower)
    elements = tower.ext_elements()
    builds = counting_pattern_builds(monkeypatch)
    for tau1, tau2 in itertools.product(elements, elements[1:]):
        m = krep.reduce_at_theta((tau1, tau2), ring)
        built = len(builds)
        assert built == len(m.gens) == 2  # this module's S and U, once each
        krep.faithfulness_rank(m)
        krep.is_irreducible(m)
        assert len(builds) == built
        builds.clear()


def assert_sparse_product_is_dense(A, ring, rng):
    C = linalg.pattern(A)
    assert all(not a.is_zero() and A[i][j] == a for j, terms in enumerate(C) for i, a in terms)
    assert sum(map(len, C)) == sum(not a.is_zero() for row in A for a in row)
    for v in random_vectors(rng, ring.tower, len(A[0])):
        # the product comes back as its nonzero entries, zero vector included
        assert linalg.mat_vec(C, support(v)) == support(dense_mat_vec(A, v))


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1)])
def test_sparse_mat_vec_matches_dense_on_every_regular_module(p, f):
    # M8 at every b in GF(9)^x and GF(25)^x, and every generator it has
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    rng = random.Random(p)
    for b in tower.ext_elements()[1:]:
        for A in chowrep.reduce_regular_at_theta((ring.zero, b), ring).gen_dict().values():
            assert_sparse_product_is_dense(A, ring, rng)


def test_sparse_mat_vec_matches_dense_on_reductions_and_kronecker_operators():
    # every reduction at theta over GF(25), and the Kronecker operators of the reference Burnside spin
    tower = build_tower(5, 1)
    ring = FieldRing(tower)
    rng = random.Random(5)
    elements = tower.ext_elements()
    for tau1, tau2 in itertools.product(elements, elements[1:]):
        m = krep.reduce_at_theta((tau1, tau2), ring)
        for A in m.gen_dict().values():
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
    zm = [hecke._ZM_S, hecke._ZM_U, hecke._ZM_E1, hecke._ZM_E2]
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


class CountedEntry:
    """A matrix entry that logs each product it forms and refuses a product
    with a zero operand."""

    def __init__(self, x, log: list):
        self.x, self.log = x, log

    def is_zero(self) -> bool:
        return self.x.is_zero()

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            raise ArithmeticError("a product with a zero operand")
        self.log.append(1)
        return CountedEntry(self.x * other.x, self.log)

    def __add__(self, other):
        return CountedEntry(self.x + other.x, self.log)

    def __eq__(self, other):
        return type(other) is CountedEntry and self.x == other.x

    __hash__ = None


def assert_sparse_mat_mul(A, B):
    """mat_mul on counted entries equals the dense product, forms one product
    per pair of nonzero factors A[i][t], B[t][j], and fills every other
    entry with an entry of the factors' own type."""
    log: list = []
    counted = lambda M: tuple(tuple(CountedEntry(x, log) for x in row) for row in M)  # noqa: E731
    got = linalg.mat_mul(counted(A), counted(B))
    assert all(type(x) is CountedEntry for row in got for x in row)
    assert tuple(tuple(x.x for x in row) for row in got) == dense_mat_mul(A, B)
    pairs = sum(
        not A[i][t].is_zero() and not B[t][j].is_zero()
        for i in range(len(A))
        for t in range(len(B))
        for j in range(len(B[0]))
    )
    assert len(log) == pairs


def sparse_factors(rng, draw, zero):
    """Block-diagonal and block-triangular 6 x 6 factors, factors with an
    all-zero row and an all-zero column, and a 3 x 5 by 5 x 2 pair, with
    entries from ``draw``."""
    n = 6
    block = lambda i, j: (i < 3) == (j < 3)  # noqa: E731
    diagonal = tuple(tuple(draw() if block(i, j) else zero for j in range(n)) for i in range(n))
    triangular = tuple(tuple(draw() if i <= j or block(i, j) else zero for j in range(n)) for i in range(n))
    r, c = rng.randrange(n), rng.randrange(n)
    holes = tuple(tuple(zero if i == r or j == c else draw() for j in range(n)) for i in range(n))
    yield from itertools.product((diagonal, triangular, holes), repeat=2)
    yield tuple(tuple(draw() for _ in range(5)) for _ in range(3)), tuple(tuple(draw() for _ in range(2)) for _ in range(5))


def test_mat_mul_forms_no_product_with_a_zero_factor_over_gf9():
    tower = build_tower(3, 1)
    rng = random.Random(17)
    elements = tower.ext_elements()
    draw = lambda: rng.choice(elements) if rng.random() < 0.6 else tower.zero()  # noqa: E731
    for _ in range(30):
        for A, B in sparse_factors(rng, draw, tower.zero()):
            assert_sparse_mat_mul(A, B)


def test_mat_mul_keeps_a_zero_product_of_nonzero_entries_in_z_xy():
    # XY = 0 in Z[X, Y, z2^{+-1}]/(XY): nonzero entries can multiply to zero
    Z = hecke.ZRingElement
    X, Y, z2 = Z.gen("X"), Z.gen("Y"), Z.gen("z2")
    values = [Z(), X, Y, X * X, Y + Z.const(1), X * z2, Z.const(-1), Y * Z.gen("z2", -1)]
    rng = random.Random(23)
    draw = lambda: rng.choice(values)  # noqa: E731
    for _ in range(30):
        for A, B in sparse_factors(rng, draw, Z()):
            assert_sparse_mat_mul(A, B)
    # every product of nonzero factors here is X Y = 0, so the entry is that zero
    assert_sparse_mat_mul(((X, Z()), (Z(), X)), ((Y, Y), (Z(), Y)))
    assert linalg.mat_mul(((X,),), ((Y,),)) == ((Z(),),)


def test_accumulate_stores_sums_deletes_a_cancelled_key_and_adds_it_again():
    tower = build_tower(3, 1)
    one, g = tower.one(), tower.gen_power(1)
    out = {}
    linalg.accumulate(out, "a", g)  # a new key
    assert out == {"a": g}
    linalg.accumulate(out, "a", one)  # a sum
    assert out == {"a": g + one}
    linalg.accumulate(out, "b", one)
    linalg.accumulate(out, "a", -(g + one))  # the sum cancels: the key goes
    assert out == {"b": one}
    linalg.accumulate(out, "a", g)  # and comes back after the keys that stayed
    assert list(out.items()) == [("b", one), ("a", g)]


def test_mat_vec_drops_a_row_whose_products_cancel():
    ring = FieldRing(build_tower(3, 1))
    one, zero = ring.one, ring.zero
    A = ((one, one), (one, zero))
    v = {0: one, 1: -one}  # row 0 is 1 - 1
    assert linalg.mat_vec(linalg.pattern(A), v) == {1: one}
    assert dense_mat_vec(A, (one, -one)) == (zero, one)


def test_hom_space_of_two_scalar_modules_is_everything_and_its_rows_hold_no_zero(monkeypatch):
    # X (g Id) - (g Id) X = 0 for every X: each constraint row cancels to nothing
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    n = 3
    scalar = linalg.mat_scale(linalg.mat_identity(ring.one, n), tower.gen_power(1))
    kernel, rows = linalg._kernel, []

    def watched(vectors, ncols, ring):
        vectors = list(vectors)
        rows.extend(vectors)
        return kernel(vectors, ncols, ring)

    monkeypatch.setattr(linalg, "_kernel", watched)
    assert len(linalg.hom_space([scalar], [scalar], ring)) == n * n
    assert len(rows) == n * n
    assert [x for row in rows for x in row.values() if x.is_zero()] == []


def test_rref_refuses_a_dict_row():
    # a dict row has no width: rref read it off the first row and cut the others short
    ring = FieldRing(build_tower(3, 1))
    with pytest.raises(ValueError, match="tuple rows"):
        linalg.rref([{0: ring.one}, {3: ring.one}])
    e = linalg.mat_identity(ring.one, 4)
    assert linalg.rref([e[0], e[3]]) == ((e[0], e[3]), [0, 3])


# ---------------------------------------------------------------------------
# the echelon core reduces in place, but never a caller's vector


def test_remainder_leaves_a_dict_and_a_tuple_vector_as_they_were():
    tower = build_tower(3, 1)
    rng = random.Random(7)
    for A in reference_matrices(tower, rng):
        basis = linalg.rref(A)
        for v in random_vectors(rng, tower, len(A[0])) + A:
            d = support(v)
            kept_d, kept_v = dict(d), tuple(v)
            r = linalg.remainder(basis, d)
            assert d == kept_d and r is not d
            linalg.remainder(basis, v)
            assert v == kept_v


def test_spin_leaves_a_dict_seed_as_it_was():
    # the witness d1_1 + d1_2 of criterion 8, as a dict and as a tuple
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    ops = chowrep.reduce_regular_at_theta((ring.zero, tower.gen_power(1)), ring).generator_matrices()
    e = linalg.mat_identity(ring.one, 8)
    for i, j in itertools.combinations(range(8), 2):
        v = tuple(x + y for x, y in zip(e[i], e[j]))
        seed = {i: ring.one, j: ring.one}
        assert linalg.spin([seed], ops, ring) == linalg.spin([v], ops, ring) == restart_spin([v], ops)
        assert seed == {i: ring.one, j: ring.one}


def test_insert_of_a_vector_in_the_span_changes_no_row_or_pivot():
    tower = build_tower(5, 1)
    rng = random.Random(11)
    for A in reference_matrices(tower, rng):
        rows, pivots = [], []
        for v in A:
            linalg._insert(rows, pivots, support(v))
        kept = [dict(row) for row in rows], list(pivots)
        # every row of A, and sums of two of them, lie in the span
        for v in A + [tuple(x + y for x, y in zip(a, b)) for a, b in zip(A, A[1:])]:
            assert linalg._insert(rows, pivots, support(v)) is False
            assert ([dict(row) for row in rows], pivots) == kept


def copying_spin(seeds, operators, zero):
    """Spinning by the echelon step that reduces a copy of each vector and
    queues every image it accepts as it came: the reference for the
    in-place ``_insert``, which queues remainders."""

    def reduce(rows, pivots, v):
        v = dict(v)
        for row, p in zip(rows, pivots):
            if p in v:
                m = -v.pop(p)
                for j, y in row.items():
                    if j != p:
                        linalg.accumulate(v, j, m * y)
        return v

    def insert(rows, pivots, v):
        r = reduce(rows, pivots, v)
        if not r:
            return False
        c = min(r)
        inv = r[c].inverse()
        r = {j: x * inv for j, x in r.items()}
        for i, row in enumerate(rows):
            rows[i] = reduce([r], [c], row)
        at = sum(p < c for p in pivots)
        rows.insert(at, r)
        pivots.insert(at, c)
        return True

    n = len(seeds[0])
    patterns = [linalg.pattern(A) for A in operators]
    rows, pivots = [], []
    queue = [v for v in map(support, seeds) if insert(rows, pivots, v)]
    while queue and len(rows) < n:
        v = queue.pop()
        for C in patterns:
            w = linalg.mat_vec(C, v)
            if insert(rows, pivots, w):
                queue.append(w)
                if len(rows) == n:
                    break
    return tuple(tuple(row.get(j, zero) for j in range(n)) for row in rows), pivots


def test_spin_of_every_reduced_criterion_8_seed_matches_the_copying_spin():
    # the 232 seeds of criterion 8 at b = g^3 over GF(9): the unit vectors
    # and every e_i + c e_j with i < j and c != 0
    tower = build_tower(3, 1)
    ring = FieldRing(tower)
    unit = linalg.mat_identity(ring.one, 8)
    seeds = list(unit)
    for i, j in itertools.combinations(range(8), 2):
        seeds += [unit[i][:j] + (c,) + unit[i][j + 1 :] for c in tower.ext_elements()[1:]]
    assert len(seeds) == 232
    ops = chowrep.reduce_regular_at_theta((ring.zero, tower.gen_power(3)), ring).generator_matrices()
    dims = set()
    for v in seeds:
        rows, pivots = linalg.spin([v], ops, ring)
        assert (rows, pivots) == copying_spin([v], ops, ring.zero)
        dims.add(len(rows))
    assert {2, 8} <= dims

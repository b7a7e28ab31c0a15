import itertools

import pytest

from heckedem import chowrep, krep, linalg
from heckedem.charrings import FieldRing
from heckedem.coeffs import build_tower


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


def restart_spin(seeds, operators):
    """Spinning as it was done before the echelon basis was kept: a full
    rref of the basis plus the new vector for every vector outside it."""
    rows, pivots = linalg.rref(list(seeds))
    queue = list(rows)
    while queue:
        v = queue.pop()
        for op in operators:
            w = linalg.mat_vec(op, v)
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
    cells = [(i, j) for i in range(2) for j in range(2)]
    ident = (ring.one, ring.zero, ring.zero, ring.one)
    for tau1 in elements:
        ops = krep.reduce_at_theta((tau1, tau2), ring).generator_matrices()
        for v in itertools.product(elements, repeat=2):
            assert linalg.spin([v], ops, ring) == restart_spin([v], ops)
        # left multiplication on flattened 2 x 2 matrices, as in faithfulness_rank
        left = [tuple(tuple(A[i][k] if l == j else ring.zero for k, l in cells) for i, j in cells) for A in ops]
        assert linalg.spin([ident], left, ring) == restart_spin([ident], left)

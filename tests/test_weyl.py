import pytest
from hypothesis import given, strategies as st

from heckedem import weyl
from heckedem.weyl import (
    E,
    S,
    S0,
    U,
    U_INV,
    WeylElement,
    act_on_index,
    length,
    length_bfs,
    reduced_word,
    translation,
)

elements = st.builds(
    WeylElement,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.sampled_from(("e", "s")),
)


def test_distinguished_elements():
    assert U == WeylElement(1, 0, "s")
    assert S0 == U * S * U_INV
    assert U * U == translation(1, 1)
    assert U * U * U == WeylElement(2, 1, "s")


def test_length_closed_form():
    assert length(E) == 0
    assert length(S) == 1
    assert length(U) == 0
    assert length(U_INV) == 0
    assert length(S0) == 1
    assert length(translation(3, 0)) == 3
    assert length(translation(2, 2)) == 0
    assert length(WeylElement(1, 0, "s")) == 0
    assert length(WeylElement(0, 1, "s")) == 2


def test_length_matches_bfs_oracle_exhaustively():
    for n1 in range(-3, 4):
        for n2 in range(-3, 4):
            for fp in ("e", "s"):
                w = WeylElement(n1, n2, fp)
                assert length(w) == length_bfs(w), w


@given(elements, elements, elements)
def test_group_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * a.inverse() == E
    assert a.inverse() * a == E
    assert a * E == a and E * a == a


@given(elements)
def test_reduced_word_roundtrip(w):
    word = reduced_word(w)
    assert len(word.letters) == length(w)
    assert word.evaluate() == w


@given(elements, elements)
def test_length_subadditive(a, b):
    assert length(a * b) <= length(a) + length(b)
    assert (length(a * b) - length(a) - length(b)) % 2 == 0


@given(elements, elements)
def test_act_on_index_antihomomorphism_free(a, b):
    # the action factors through the finite quotient
    for i in (1, 2):
        assert act_on_index(a * b, i) == act_on_index(a, act_on_index(b, i))


def test_act_on_index_values():
    assert act_on_index(E, 1) == 1
    assert act_on_index(S, 1) == 2
    assert act_on_index(U, 2) == 1
    assert act_on_index(translation(5, -2), 1) == 1
    with pytest.raises(ValueError):
        act_on_index(S, 3)


def test_bfs_guards():
    with pytest.raises(ValueError):
        length_bfs(translation(30, 0))


def test_bfs_distance_table_is_built_once_per_bound():
    table = weyl.bfs_distances(4)
    assert weyl.bfs_distances(4) is table
    assert table[E] == 0 and table[S] == 1 and table[U] == 0
    # the table spans the box |n_i| <= bound + 2, both finite parts
    assert len(table) == 2 * (2 * 6 + 1) ** 2
    with pytest.raises(TypeError):
        table[E] = 1


def test_json_roundtrip():
    w = WeylElement(2, -1, "s")
    assert WeylElement.from_json(w.to_json()) == w


def test_omega_powers():
    # u^{2m} = e^{(m,m)}, u^{2m+1} = e^{(m+1,m)} s
    acc = E
    for k in range(1, 7):
        acc = acc * U
        assert acc == weyl._u_power(k)
        assert length(acc) == 0

import pytest
from hypothesis import given, strategies as st

from heckedem import weyl
from heckedem.hecke import _translation_word, zeta2_split
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
    assert U * U == WeylElement(1, 1, "e")
    assert U * U * U == WeylElement(2, 1, "s")


def test_length_closed_form():
    assert length(E) == 0
    assert length(S) == 1
    assert length(U) == 0
    assert length(U_INV) == 0
    assert length(S0) == 1
    assert length(WeylElement(3, 0, "e")) == 3
    assert length(WeylElement(2, 2, "e")) == 0
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
def test_translation_word_is_a_length_additive_word_for_w(w):
    """w = e^{(k,k)} w' with w' the product of the S/U letters, S counting
    the length: every prefix is length-additive, so T_{w'} is the product
    of the letters' basis elements."""
    k, w0 = zeta2_split(w)
    word = _translation_word(w0)
    acc, s_letters = E, 0
    for letter in word:
        acc = acc * {"S": S, "U": U}[letter]
        s_letters += letter == "S"
        assert length(acc) == s_letters, (w, word)
    assert acc == w0
    assert w0 * WeylElement(k, k, "e") == w
    assert word.count("S") == length(w)


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
    assert act_on_index(WeylElement(5, -2, "e"), 1) == 1
    with pytest.raises(ValueError):
        act_on_index(S, 3)


def test_bfs_guards():
    with pytest.raises(ValueError):
        length_bfs(WeylElement(30, 0, "e"))


def test_bfs_distance_table_is_built_once():
    table = weyl.bfs_distances()
    assert weyl.bfs_distances() is table
    assert table[E] == 0 and table[S] == 1 and table[U] == 0
    # the table spans the box |n_i| <= 12 + 2, both finite parts
    assert len(table) == 2 * (2 * 14 + 1) ** 2
    with pytest.raises(TypeError):
        table[E] = 1


def test_omega_powers():
    # u^{2m} = e^{(m,m)}, u^{2m+1} = e^{(m+1,m)} s
    acc = E
    for k in range(1, 7):
        acc = acc * U
        assert acc == weyl._u_power(k)
        assert length(acc) == 0


def group_law(a, b):
    # (e^a w)(e^b w') = e^{a + w.b} (w w'), from the parts
    b1, b2 = (b.n1, b.n2) if a.finite == "e" else (b.n2, b.n1)
    return WeylElement(a.n1 + b1, a.n2 + b2, "e" if a.finite == b.finite else "s")


def test_constructor_rejects_a_bad_finite_part():
    with pytest.raises(ValueError, match="finite part must be 'e' or 's', got 'x'"):
        WeylElement(0, 0, "x")


@given(elements, elements, st.integers(min_value=-5, max_value=5))
def test_elements_from_every_path_compare_and_hash_as_constructed(a, b, k):
    inverse = WeylElement(-a.n1, -a.n2, "e") if a.finite == "e" else WeylElement(-a.n2, -a.n1, "s")
    built = {
        a * b: group_law(a, b),
        a.inverse(): inverse,
        a.shift(k): WeylElement(a.n1 + k, a.n2 + k, a.finite),
    }
    for w, expected in built.items():
        assert type(w) is WeylElement
        assert w == expected and hash(w) == hash(expected)
        assert {expected: 1}[w] == 1
    assert a.shift(k) == WeylElement(k, k, "e") * a == a * WeylElement(k, k, "e")


def test_product_is_the_group_law_not_tuple_repetition():
    assert S * S == E
    assert U * U == WeylElement(1, 1, "e") and len(U * U) == 3
    assert S0 * U == WeylElement(1, -1, "s") * WeylElement(1, 0, "s") == WeylElement(1, 0, "e")


def test_elements_are_immutable():
    w = WeylElement(1, -1, "s")
    with pytest.raises(AttributeError):
        w.n1 = 2
    with pytest.raises(AttributeError):
        w.finite = "e"
    with pytest.raises(AttributeError):
        w.extra = 0
    assert (w.n1, w.n2, w.finite) == (1, -1, "s")


def test_repr_and_json():
    assert repr(WeylElement(1, -1, "s")) == "WeylElement(n1=1, n2=-1, finite='s')"
    assert str(E) == "WeylElement(n1=0, n2=0, finite='e')"
    assert WeylElement(-2, 3, "e").to_json() == [-2, 3, "e"]

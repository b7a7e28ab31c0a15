import pytest
from hypothesis import given, strategies as st

from heckedem.charrings import FieldRing
from heckedem.coeffs import (
    GenericScalar,
    build_tower,
    discrete_log,
)

scalars = st.builds(
    GenericScalar,
    st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=5),
)


@given(scalars, scalars, scalars)
def test_generic_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def test_generic_scalar_normalization():
    assert GenericScalar([0, 0, 0]) == GenericScalar()
    assert GenericScalar([1, 2, 0]) == GenericScalar([1, 2])
    assert GenericScalar([1]).degree() == 0


def test_generic_scalar_evaluate():
    # 2 + 3q at q = 5
    assert GenericScalar([2, 3]).evaluate(5) == 17


def test_tower_3_1_matches_known_values():
    t = build_tower(3, 1)
    assert t.modulus_2f == (1, 0, 1)  # x^2 + 1
    assert t.generator == (1, 1)  # g = x + 1
    # g has order 8: g^4 = -1
    assert t.gen_power(4) == t.from_int(-1)
    assert t.gen_power(8) == t.one()


def test_frobenius_of_generator():
    t = build_tower(3, 1)
    assert t.gen().frobenius() == t.gen_power(3)
    # frobenius is an involution with fixed field GF(q)
    g = t.gen()
    assert g.frobenius().frobenius() == g
    assert not g.in_base_field()
    assert t.gen_power(4).in_base_field()  # -1 is in GF(3)


def test_discrete_log():
    t = build_tower(3, 1)
    assert discrete_log(t.gen()) == 1
    assert discrete_log(t.one()) == 0
    assert discrete_log(t.from_int(2)) == 4
    for k in range(8):
        assert discrete_log(t.gen_power(k)) == k
    with pytest.raises(ValueError):
        discrete_log(t.zero())


def test_tower_rejects_bad_p():
    with pytest.raises(ValueError, match="p must be odd"):
        build_tower(2, 1)
    with pytest.raises(ValueError, match="not prime"):
        build_tower(9, 1)
    with pytest.raises(ValueError, match="guard"):
        build_tower(3, 8)


def test_field_arithmetic_and_inverse():
    t = build_tower(5, 1)
    for k in range(1, 24):
        x = t.gen_power(k)
        assert x * x.inverse() == t.one()
    # GF(q) is the subfield fixed by frobenius
    assert sum(x.frobenius() == x for x in t.ext_elements()) == t.q


def test_tower_json():
    t = build_tower(3, 1)
    assert t.to_json() == {"p": 3, "f": 1, "modulus_2f": [1, 0, 1], "generator": [1, 1]}


ONE_FIELD_TOWERS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]


@pytest.mark.parametrize("p,f", ONE_FIELD_TOWERS)
def test_frobenius_fixed_elements_form_gf_q(p, f):
    t = build_tower(p, f)
    fixed = [x for x in t.ext_elements() if x.frobenius() == x]
    assert len(fixed) == t.q
    fixed_set = set(fixed)
    for x in fixed:
        for y in fixed:
            assert x + y in fixed_set
            assert x * y in fixed_set


@pytest.mark.parametrize("p,f", ONE_FIELD_TOWERS)
def test_frobenius_has_order_two_on_generator(p, f):
    g = build_tower(p, f).gen()
    assert g.frobenius() != g
    assert g.frobenius().frobenius() == g


@pytest.mark.parametrize("p,f", ONE_FIELD_TOWERS)
def test_discrete_log_inverts_gen_power(p, f):
    t = build_tower(p, f)
    for k in range(t.q**2 - 1):
        assert discrete_log(t.gen_power(k)) == k


@pytest.mark.parametrize("p,f", ONE_FIELD_TOWERS)
def test_field_ring_has_no_base_level(p, f):
    # GF(q) gets no encoding of its own: scalars in a second encoding,
    # multiplied with GF(q^2) elements, give wrong products
    t = build_tower(p, f)
    assert FieldRing(t).one == t.one()
    with pytest.raises(ValueError):
        FieldRing(t, "base")

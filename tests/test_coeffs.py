import itertools
import random

import pytest
from hypothesis import given, strategies as st

from heckedem.charrings import FieldRing
from heckedem.coeffs import (
    FieldElement,
    FieldTower,
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
    assert GenericScalar([1, 0]).coeffs == (1,)


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
    assert (t.modulus_2f, t.generator) == ((1, 0, 1), (1, 1))


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


def test_elements_of_equal_towers_built_apart_compare_equal():
    t = build_tower(3, 1)
    twin = FieldTower(t.p, t.f, t.modulus_2f, t.generator)  # a second, equal FieldTower object
    assert twin is not t and twin == t
    for x in t.ext_elements():
        y = twin.element(x.coeffs)
        assert x == y and y == x and hash(x) == hash(y)
    assert t.one() != build_tower(5, 1).one()  # same coefficients, other field


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_elements_of_an_equal_tower_hash_by_their_code(p, f):
    t = build_tower(p, f)
    u = FieldTower(p, f, t.modulus_2f, t.generator)  # equal, built apart
    assert u is not t and u == t
    for x in t.ext_elements():
        y = u.element(x.coeffs)
        assert y is not x and y == x and hash(y) == hash(x) == x.code


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (3, 2)])
def test_q_is_set_once_and_copied_by_replace(p, f):
    t = build_tower(p, f)
    twin = FieldTower(t.p, t.f, t.modulus_2f, t.generator)
    assert t.q == twin.q == p**f
    assert twin == t and hash(twin) == hash(t)
    with pytest.raises(TypeError):
        FieldTower(t.p, t.f, t.modulus_2f, t.generator, q=p)  # q is derived, not a constructor argument


# ---------------------------------------------------------------------------
# every element and every pair against schoolbook polynomial arithmetic

EXHAUSTIVE_TOWERS = [(3, 1), (5, 1), (7, 1), (3, 2)]


def schoolbook(t):
    """Reference arithmetic on coefficient vectors over GF(p), reduced by the
    tower's monic modulus; returns (all vectors, add, neg, mul)."""
    p, n, modulus = t.p, 2 * t.f, t.modulus_2f

    def trim(cs):
        cs = [c % p for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    def pad(a):
        return list(a) + [0] * (n - len(a))

    def add(a, b):
        return trim(x + y for x, y in zip(pad(a), pad(b)))

    def neg(a):
        return trim(-x for x in a)

    def mul(a, b):
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(pad(a)):
            for j, y in enumerate(pad(b)):
                prod[i + j] += x * y
        for d in range(2 * n - 2, n - 1, -1):  # X^n = -(m_0 + ... + m_{n-1} X^{n-1})
            c, prod[d] = prod[d], 0
            for j in range(n):
                prod[d - n + j] -= c * modulus[j]
        return trim(prod[:n])

    vectors = [trim(cs) for cs in itertools.product(range(p), repeat=n)]
    return vectors, add, neg, mul


@pytest.mark.parametrize("p,f", EXHAUSTIVE_TOWERS)
def test_every_pair_matches_schoolbook(p, f):
    t = build_tower(p, f)
    vectors, add, neg, mul = schoolbook(t)
    for a in vectors:
        x = t.element(a)
        for b in vectors:
            y = t.element(b)
            assert (x + y) is t.element(add(a, b))
            assert (x - y) is t.element(add(a, neg(b)))
            assert (x * y) is t.element(mul(a, b))


@pytest.mark.parametrize("p,f", EXHAUSTIVE_TOWERS)
def test_every_element_matches_schoolbook(p, f):
    t = build_tower(p, f)
    q = t.q
    vectors, add, neg, mul = schoolbook(t)

    def power(a, k):
        out = (1,)
        for _ in range(k):
            out = mul(out, a)
        return out

    for a in vectors:
        x = FieldElement(t, a)
        assert x == t.element(a) and x.coeffs == a and hash(x) == hash(t.element(a)) == x.code
        assert -x is t.element(neg(a))
        assert x.frobenius() is t.element(power(a, q))
        if not a:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            for k in (-3, -1, 0):
                with pytest.raises(ZeroDivisionError):
                    x**k
            for k in (1, 2, q, q * q):
                assert x**k is t.zero()
            continue
        inv = {mul(a, b): b for b in vectors}[(1,)]
        assert x.inverse() is t.element(inv)
        for k in (-3, -1, 0, 1, 2, q, q * q):
            assert x**k is t.element(power(inv, -k) if k < 0 else power(a, k))


def test_arithmetic_returns_interned_elements():
    t = build_tower(3, 2)
    g = t.gen()
    assert g * g is t.gen_power(2)
    assert g + t.zero() is g and t.zero() + g is g
    assert g - g is t.zero() and g * t.zero() is t.zero()
    assert g.inverse() is t.gen_power(-1) and g**t.q is g.frobenius()
    assert t.from_int(2) is -t.one()
    assert FieldElement(t, g.coeffs) is not g and FieldElement(t, g.coeffs) == g


def test_tower_rejects_a_non_generator():
    t = build_tower(3, 1)
    FieldTower(3, 1, t.modulus_2f, t.generator)  # g itself builds
    for h in ((), (1,), (2,), (0, 1), t.gen_power(2).coeffs):
        with pytest.raises(ValueError, match="does not generate"):
            FieldTower(3, 1, t.modulus_2f, h)


def order_search_generator(t):
    """The smallest generator by integer encoding, found by the order test:
    g^((q^2 - 1) / l) != 1 for every prime l dividing q^2 - 1."""
    p, n, q = t.p, 2 * t.f, t.q
    _, _, _, mul = schoolbook(t)

    def power(a, k):
        out = (1,)
        while k:
            if k & 1:
                out = mul(out, a)
            a = mul(a, a)
            k >>= 1
        return out

    order = q * q - 1
    primes = [d for d in range(2, order + 1) if order % d == 0 and all(d % e for e in range(2, d))]
    for idx in range(1, q * q):
        digits = [idx // p**i % p for i in range(n)]
        while digits[-1] == 0:
            digits.pop()
        cand = tuple(digits)
        if all(power(cand, order // ell) != (1,) for ell in primes):
            return cand


# every tower with q^2 < 10^4
ODD_PRIMES = [p for p in range(3, 100, 2) if all(p % d for d in range(3, p, 2))]
SMALL_TOWERS = [(p, f) for p in ODD_PRIMES for f in (1, 2, 3, 4) if p ** (2 * f) < 10**4]


@pytest.mark.parametrize("p,f", SMALL_TOWERS)
def test_generator_search_matches_order_test(p, f):
    t = build_tower(p, f)
    assert t.generator == order_search_generator(t)


# (p, f): (modulus, generator), as the search over every candidate's
# power table found them; (3, 5) has q^2 = 59049
PINNED_TOWERS = {
    (3, 1): ((1, 0, 1), (1, 1)),
    (5, 1): ((2, 0, 1), (1, 1)),
    (7, 1): ((1, 0, 1), (2, 1)),
    (11, 1): ((1, 0, 1), (4, 1)),
    (3, 2): ((2, 1, 0, 0, 1), (0, 1)),
    (7, 2): ((1, 1, 0, 0, 1), (5, 1)),
    (5, 3): ((2, 1, 0, 0, 0, 0, 1), (0, 1)),
    (3, 5): ((1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), (1, 2, 0, 1)),
}


@pytest.mark.parametrize("p,f", list(PINNED_TOWERS))
def test_build_tower_pins_modulus_and_generator_and_builds_one_table(p, f, fresh_tables, monkeypatch):
    # a candidate that fails the order test builds no power table
    built = []
    init = FieldTower.__init__
    monkeypatch.setattr(FieldTower, "__init__", lambda self, *args: built.append(args[3]) or init(self, *args))
    t = build_tower(p, f)
    assert (t.modulus_2f, t.generator) == PINNED_TOWERS[(p, f)]
    assert built == [t.generator]


def lowest_irreducible(p, n):
    """The monic irreducible of degree n over GF(p) with the smallest
    little-endian encoding, by trial long division by every monic
    polynomial of degree 1 to n // 2."""

    def remainder(a, d):  # a mod the monic d, trailing zeros dropped
        a = list(a)
        while len(a) >= len(d):
            top = a.pop()
            for i, c in enumerate(d[:-1]):
                a[len(a) - len(d) + 1 + i] = (a[len(a) - len(d) + 1 + i] - top * c) % p
        while a and a[-1] == 0:
            a.pop()
        return a

    def monic(deg):
        for idx in range(p**deg):
            yield [idx // p**i % p for i in range(deg)] + [1]

    for cand in monic(n):
        if all(remainder(cand, d) for k in range(1, n // 2 + 1) for d in monic(k)):
            return tuple(cand)


@pytest.mark.parametrize("p,f", SMALL_TOWERS)
def test_field_modulus_is_the_lowest_irreducible(p, f):
    # the modulus fixes which element is g, so every g^k label printed
    assert build_tower(p, f).modulus_2f == lowest_irreducible(p, 2 * f)


def convolution(a, b):
    """The product of two coefficient tuples by the general convolution, trimmed."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_products_by_a_constant_match_the_convolution():
    rng = random.Random(0)
    for _ in range(1000):
        c = GenericScalar.const(rng.randint(-3, 3))  # zero included
        x = GenericScalar([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
        for left, right in ((c, x), (x, c)):
            product = left * right
            assert product.coeffs == convolution(left.coeffs, right.coeffs)
            assert product == GenericScalar(convolution(left.coeffs, right.coeffs))
            assert not product.coeffs or product.coeffs[-1] != 0

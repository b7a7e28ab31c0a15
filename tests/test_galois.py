import pytest

from heckedem.charrings import FieldRing
from heckedem.coeffs import build_tower
from heckedem.galois import (
    GaloisParam,
    NormalizedExponent,
    bijection_check,
    character_of,
    enumerate_classes,
    exponent_set,
    module_of,
    normalize_twist,
    orbit_of,
    theta_of,
)


def param(y_power, b_power=0, p=3):
    tower = build_tower(p, 1)
    return GaloisParam(tower, tower.gen_power(b_power), tower.gen_power(y_power))


def test_constructor_validation():
    tower = build_tower(3, 1)
    with pytest.raises(ValueError):
        GaloisParam(tower, tower.zero(), tower.gen())  # b = 0
    with pytest.raises(ValueError):
        GaloisParam(tower, tower.one(), tower.gen_power(4))  # y = -1 in GF(3)
    with pytest.raises(ValueError):
        GaloisParam(tower, tower.one(), tower.zero())  # y = 0


def test_exponent_sets_q3():
    assert exponent_set(param(1)) == {1, 3}
    assert exponent_set(param(2)) == {2, 6}
    assert exponent_set(param(3)) == {1, 3}
    assert exponent_set(param(5)) == {5, 7}


def test_normalized_twists_q3():
    assert normalize_twist(param(1)) == NormalizedExponent(1, 0)
    assert normalize_twist(param(2)) == NormalizedExponent(2, 0)
    assert normalize_twist(param(3)) == NormalizedExponent(1, 0)
    assert normalize_twist(param(5)) == NormalizedExponent(1, 1)


def normalize_twist_by_search(rho):
    """The reference: scan every (i, h), i outer, for h + i(q+1) hitting the
    exponent of y or of y^q mod q^2 - 1."""
    q = rho.tower.q
    n = q * q - 1
    targets = {e % n for e in exponent_set(rho)}
    for i in range(q - 1):
        for h in range(1, q):
            if (h + i * (q + 1)) % n in targets:
                return NormalizedExponent(h, i)
    raise RuntimeError("no normalized exponent")


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_normalize_twist_by_divmod_matches_the_search(p, f):
    tower = build_tower(p, f)
    b = tower.one()
    n = tower.q**2 - 1
    params = [GaloisParam(tower, b, tower.gen_power(k)) for k in range(n) if not tower.gen_power(k).in_base_field()]
    assert len(params) == n - (tower.q - 1)
    for rho in params:
        assert normalize_twist(rho) == normalize_twist_by_search(rho)


def test_characters_and_orbits_q3():
    assert character_of(param(1)) == (0, 0)
    assert orbit_of(param(1)) == ((0, 0),)
    assert character_of(param(2)) == (1, 0)
    assert orbit_of(param(2)) == ((0, 1), (1, 0))
    assert character_of(param(5)) == (1, 1)
    assert len(orbit_of(param(5))) == 1


def test_conjugation_invariants():
    for y_power in (1, 2, 5, 6, 7):
        rho = param(y_power, b_power=3)
        conj = GaloisParam(rho.tower, rho.b, rho.y.frobenius())
        assert rho.class_key() == conj.class_key()
        assert exponent_set(rho) == exponent_set(conj)
        assert character_of(rho) == character_of(conj)
        assert orbit_of(rho) == orbit_of(conj)


def test_theta_of():
    rho = param(1, b_power=2)
    t1, t2 = theta_of(rho)
    assert t1.is_zero()
    assert t2 == rho.tower.gen_power(2)


def test_module_dispatch():
    tower = build_tower(3, 1)
    ring = FieldRing(tower, "ext")
    # nonregular orbit: 2-dimensional iwahori-flavor module
    m = module_of(param(1), ring)
    assert m.flavor == "iwahori"
    assert m.dim == 2
    # regular orbit: simple 2-dimensional subquotient of the 8-dim module
    m = module_of(param(2), ring)
    assert m.flavor == "h2"
    assert m.dim == 2


def test_enumerate_classes_q3():
    tower = build_tower(3, 1)
    classes = enumerate_classes(tower)
    assert len(classes) == 24  # 8 units x 3 conjugacy classes of y
    keys = {rho.class_key() for rho in classes}
    assert len(keys) == 24


def test_bijection_q3():
    tower = build_tower(3, 1)
    report = bijection_check(tower)
    assert report["bijective"] is True
    assert report["classes"] == 24
    assert report["orbit_counts"] == {"nonregular": 2, "regular": 1, "total": 3}


def test_bijection_q5():
    tower = build_tower(5, 1)
    report = bijection_check(tower)
    assert report["bijective"] is True
    assert report["classes"] == 240
    assert report["orbit_counts"] == {"nonregular": 4, "regular": 6, "total": 10}

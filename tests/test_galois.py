import tracemalloc

import pytest

from heckedem import galois
from heckedem.charrings import FieldRing
from heckedem.coeffs import build_tower
from heckedem.hecke import orbit, orbits as torus_orbits
from heckedem.galois import (
    GaloisParam,
    bijection_check,
    character_of,
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
    assert normalize_twist(param(1)) == (1, 0)
    assert normalize_twist(param(2)) == (2, 0)
    assert normalize_twist(param(3)) == (1, 0)
    assert normalize_twist(param(5)) == (1, 1)


def normalize_twist_by_search(rho):
    """The reference: scan every (i, h), i outer, for h + i(q+1) hitting the
    exponent of y or of y^q mod q^2 - 1."""
    q = rho.tower.q
    n = q * q - 1
    targets = {e % n for e in exponent_set(rho)}
    for i in range(q - 1):
        for h in range(1, q):
            if (h + i * (q + 1)) % n in targets:
                return (h, i)
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
    classes = enumerate_classes_by_search(tower)
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


def enumerate_classes_by_search(tower):
    """The reference enumeration: walk E^x once, keep the first y of each
    class {y, y^q} outside GF(q), then pair every b with every such y."""
    q = tower.q
    n = q * q - 1
    ext_nonzero = [tower.gen_power(k) for k in range(n)]
    y_reps = []
    seen_h = set()
    for h, y in enumerate(ext_nonzero):
        if y.in_base_field():
            continue
        key = min(h % n, (h * q) % n)
        if key in seen_h:
            continue
        seen_h.add(key)
        y_reps.append(y)
    return [GaloisParam(tower, b, y) for b in ext_nonzero for y in y_reps]


def bijection_by_classes(tower):
    """The reference check: one GaloisParam and one orbit_of per class."""
    q = tower.q
    classes = enumerate_classes_by_search(tower)
    image = {}
    collision = None
    for rho in classes:
        tag = (galois.orbit_of(rho), rho.b)
        if tag in image:
            collision = (image[tag], rho)
            break
        image[tag] = rho
    all_orbits = torus_orbits(tower)
    units = q * q - 1
    expected = len(all_orbits) * units
    target_tags = {
        (orb, tower.gen_power(k)) for orb in all_orbits for k in range(units)
    }
    surjective = collision is None and set(image) == target_tags
    regular = sum(1 for orb in all_orbits if len(orb) == 2)
    report = {
        "q": q,
        "E": f"GF({q * q})",
        "classes": len(classes),
        "modules": len(image),
        "bijective": bool(collision is None and surjective and len(classes) == expected),
        "orbit_counts": {
            "nonregular": len(all_orbits) - regular,
            "regular": regular,
            "total": len(all_orbits),
        },
    }
    if collision is not None:
        report["collision"] = [str(collision[0].class_key()), str(collision[1].class_key())]
    return report


TOWERS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]


@pytest.mark.parametrize("p,f", TOWERS)
def test_bijection_check_matches_the_per_class_reference(p, f):
    tower = build_tower(p, f)
    report = bijection_check(tower)
    assert report == bijection_by_classes(tower)
    assert report["bijective"] is True


def test_bijection_check_keeps_no_state_that_grows_with_the_classes():
    # q = 25: 624 values of b times 300 y-classes.  A store of one entry per
    # class (187200 of them) would peak at tens of MB.
    tower = build_tower(5, 2)
    tracemalloc.start()
    try:
        report = bijection_check(tower)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["classes"] == 187200 and report["bijective"] is True
    assert peak < 1_000_000


def merge_last_orbit_into_first(tower):
    """An orbit map that reads only y, like orbit_of, but sends the last
    W0-orbit to the first."""
    first, *_, last = torus_orbits(tower)
    orbit = galois.orbit_of
    return lambda rho: first if orbit(rho) == last else orbit(rho)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("collapse", ["constant", "merge"])
def test_a_non_injective_orbit_map_gives_the_same_collision(monkeypatch, p, collapse):
    tower = build_tower(p, 1)
    if collapse == "constant":
        fake = lambda rho: ((0, 0),)  # noqa: E731
    else:
        fake = merge_last_orbit_into_first(tower)
    monkeypatch.setattr(galois, "orbit_of", fake)
    report = bijection_check(tower)
    assert report["bijective"] is False
    assert len(report["collision"]) == 2
    assert report == bijection_by_classes(tower)


@pytest.mark.parametrize("p", [3, 5])
def test_an_orbit_outside_the_target_gets_its_own_tag(monkeypatch, p):
    """An injective orbit map whose orbits all lie outside ``torus_orbits``:
    every label shifted by q - 1.  Each such orbit gets an id of its own,
    so the check finds no collision but no bijection either."""
    tower = build_tower(p, 1)
    orbit = galois.orbit_of
    fake = lambda rho: tuple((m1 + p - 1, m2 + p - 1) for m1, m2 in orbit(rho))  # noqa: E731
    one = tower.one()
    assert not {fake(GaloisParam(tower, one, y)) for y in galois._y_class_reps(tower)} & set(torus_orbits(tower))
    monkeypatch.setattr(galois, "orbit_of", fake)
    report = bijection_check(tower)
    assert report["bijective"] is False
    assert "collision" not in report
    assert report == bijection_by_classes(tower)


def test_orbits_are_computed_once_per_y_class(monkeypatch):
    # q = 7: (q^2 - q) / 2 = 21 y-classes, 48 * 21 = 1008 classes
    calls = []
    orbit = galois.orbit_of
    monkeypatch.setattr(galois, "orbit_of", lambda rho: calls.append(rho) or orbit(rho))
    report = bijection_check(build_tower(7, 1))
    assert report["classes"] == 1008
    assert len(calls) == 21
    assert len({rho.class_key()[1] for rho in calls}) == 21


PIN_TOWERS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)]  # q = 3, 5, 7, 9, 11


def bijection_pin_failures(tower) -> list:
    """Which correspondence ``orbit_of`` is: for y = g^e both labels (m1, m2)
    have m1 + m2 = e - 1 mod q - 1 (the determinant), twisting y by
    g^{k(q+1)} shifts the orbit by (k, k), and y = g maps to {(0, 0)}.
    Returns the failures, one tuple per failed relation and input."""
    q, n = tower.q, tower.q - 1
    one, failures = tower.one(), []
    for e in range(q * q - 1):
        y = tower.gen_power(e)
        if y.in_base_field():
            continue
        orb = orbit_of(GaloisParam(tower, one, y))
        if any((m1 + m2 - (e - 1)) % n for m1, m2 in orb):
            failures.append(("determinant", e))
        for k in range(n):
            twisted = orbit_of(GaloisParam(tower, one, y * tower.gen_power(k * (q + 1))))
            if twisted != orbit(((orb[0][0] + k) % n, (orb[0][1] + k) % n)):
                failures.append(("twist", e, k))
    if orbit_of(GaloisParam(tower, one, tower.gen())) != ((0, 0),):
        failures.append(("anchor", 1))
    return failures


@pytest.mark.parametrize("p,f", PIN_TOWERS)
def test_orbit_of_respects_determinant_twists_and_its_anchor(p, f):
    assert bijection_pin_failures(build_tower(p, f)) == []


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("shift", ["one", "quadratic"])
def test_a_diagonally_shifted_character_fails_the_pins(monkeypatch, p, shift):
    # both shifts permute the orbits, so the tag check still reports a bijection
    tower = build_tower(p, 1)
    n = tower.q - 1
    c = 1 if shift == "one" else n // 2
    character = galois.character_of
    monkeypatch.setattr(galois, "character_of", lambda rho: tuple((m + c) % n for m in character(rho)))
    assert bijection_check(tower)["bijective"] is True
    kinds = {failure[0] for failure in bijection_pin_failures(tower)}
    assert kinds == ({"determinant", "anchor"} if shift == "one" else {"anchor"})

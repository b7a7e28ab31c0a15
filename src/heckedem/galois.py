"""Tame 2-dimensional Galois parameters and the bijection with
supersingular modules at small q.

All field elements live in E = GF(q^2); GF(q) appears only as the
subfield fixed by Frobenius.  A parameter class is a pair (b, y) with
b in E^x and y in E \\ GF(q), taken up to the conjugation y ~ y^q.
Writing y = g^h for the fixed generator g, twisting normalizes the
exponent to h + i(q+1) with 1 <= h <= q-1, 0 <= i <= q-2; the attached
torus character has exponent pair (h-1+i mod q-1, i), whose W0-orbit
together with the supersingular central character theta = (0, b) pins
down the module M(rho).

The orbit reads only y, and the image of a class (b, y) is
(orbit(y), (0, b)): two classes share an image only when they share b,
and then exactly when their y-classes share an orbit.  So
``bijection_check`` decides the y-class -> orbit map once, with one
``orbit_of`` per y-class, and counts the classes as the product of E^x
with the y-classes.
"""

from __future__ import annotations

from .charrings import FieldRing
from .coeffs import FieldElement, FieldTower, Frozen, discrete_log
from .hecke import orbit, orbits as torus_orbits
from .krep import FiniteModule, reduce_at_theta
from .chowrep import composition_series, reduce_regular_at_theta


class GaloisParam(Frozen):
    """A tame parameter (b, y) over the tower's field E: b in E^x and y in
    E \\ GF(q).  Parameters compare and hash by (tower, b, y), and
    ``class_key`` names the class up to y ~ y^q."""

    __slots__ = ("tower", "b", "y")

    def __init__(self, tower: FieldTower, b: FieldElement, y: FieldElement):
        if b.is_zero():
            raise ValueError("b must be nonzero")
        if y.is_zero() or y.in_base_field():
            raise ValueError("y must lie outside GF(q) (irreducibility)")
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "y", y)

    def _key(self) -> tuple:
        return (self.tower, self.b, self.y)

    def __repr__(self) -> str:
        return f"GaloisParam(tower={self.tower!r}, b={self.b!r}, y={self.y!r})"

    def class_key(self):
        """Canonical key of the equivalence class (b, {y, y^q})."""
        return (self.b, min(exponent_set(self)))


def exponent_set(rho: GaloisParam) -> set:
    """{h, h'} in [1, q^2-2]: the exponent of y and of its conjugate y^q,
    neither 0 since y lies outside GF(q)."""
    h = discrete_log(rho.y)
    return {h, h * rho.tower.q % (rho.tower.q**2 - 1)}


def normalize_twist(rho: GaloisParam) -> tuple:
    """(h, i), 1 <= h <= q-1, 0 <= i <= q-2, smallest in (i, then h) with
    h + i(q+1) congruent to the exponent of y or of y^q mod q^2 - 1.  That
    sum lies in [1, q^2 - 3], so it is the exponent itself: one divmod."""
    q = rho.tower.q
    pairs = [divmod(e, q + 1) for e in exponent_set(rho)]
    valid = [(i, h) for i, h in pairs if 0 < h < q]
    if not valid:
        raise RuntimeError("twisting normalization failed; exponent lemma violated")
    i, h = min(valid)
    return h, i


def character_of(rho: GaloisParam) -> tuple:
    """The torus character exponent pair lambda(rho) = (h-1+i, i) mod q-1."""
    h, i = normalize_twist(rho)
    n = rho.tower.q - 1
    return ((h - 1 + i) % n, i % n)


def orbit_of(rho: GaloisParam) -> tuple:
    """The W0-orbit of lambda(rho)."""
    return orbit(character_of(rho))


def theta_of(rho: GaloisParam) -> tuple:
    """The supersingular central character: zeta1 -> 0, zeta2 -> b."""
    return (rho.tower.zero(), rho.b)


def module_of(rho: GaloisParam, field_ring: FieldRing | None = None) -> FiniteModule:
    """The supersingular module M(rho): the rank-2 reduction on a
    non-regular component, or a simple subquotient of the 8-dimensional
    module on a regular component."""
    if field_ring is None:
        field_ring = FieldRing(rho.tower)
    theta = theta_of(rho)
    if len(orbit_of(rho)) == 1:
        return reduce_at_theta(theta, field_ring)
    m8 = reduce_regular_at_theta(theta, field_ring)
    series = composition_series(m8, rho.b)
    if not series["all_factors_standard"]:
        raise ArithmeticError("a composition factor of the 8-dimensional module is not standard")
    return series["factors"][0]


def _y_class_reps(tower: FieldTower) -> list:
    """One y per class {y, y^q} of y in E \\ GF(q), in order of exponent.

    The conjugate of g^h is g^(hq mod q^2-1), so g^h is the first of its
    class exactly when h < hq mod q^2-1; equality means y^q = y, y in GF(q)."""
    n = tower.q**2 - 1
    return [tower.gen_power(h) for h in range(n) if h < h * tower.q % n]


def bijection_check(tower: FieldTower) -> dict:
    """Verify that rho -> (orbit, theta) is a bijection from parameter
    classes onto (W0-orbit, b in E^x) pairs, E = GF(q^2).

    The image of (b, y) is (orbit(y), (0, b)), so the map is a bijection
    exactly when y-class -> orbit is injective and onto ``torus_orbits``.
    Each y-class gets its orbit's integer id: its index in
    ``torus_orbits``, or, for an orbit outside that list, the next free id.
    ``image`` maps each id taken to its y, so the first id taken twice is
    the collision, reported under b = 1, and ``modules`` counts the images
    found before it.  Without a collision every b takes the same ids."""
    q = tower.q
    units = q * q - 1
    y_reps = _y_class_reps(tower)
    one = tower.one()
    all_orbits = torus_orbits(tower)
    ids = {orb: i for i, orb in enumerate(all_orbits)}
    image, collision = {}, None
    for y in y_reps:
        i = ids.setdefault(orbit_of(GaloisParam(tower, one, y)), len(ids))
        first = image.setdefault(i, y)
        if first is not y:
            collision = (GaloisParam(tower, one, first), GaloisParam(tower, one, y))
            break
    regular = sum(1 for orb in all_orbits if len(orb) == 2)
    report = {
        "q": q,
        "E": f"GF({q * q})",
        "classes": units * len(y_reps),
        "modules": len(image) if collision else units * len(image),
        "bijective": collision is None and image.keys() == set(range(len(all_orbits))),
        "orbit_counts": {
            "nonregular": len(all_orbits) - regular,
            "regular": regular,
            "total": len(all_orbits),
        },
    }
    if collision is not None:
        report["collision"] = [str(collision[0].class_key()), str(collision[1].class_key())]
    return report

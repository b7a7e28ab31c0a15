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

The orbit reads only y.  Classes are enumerated as the product of E^x
(b outer) with one representative y per class {y, y^q} (y inner), and
``bijection_check`` computes the orbit once per y-class but still checks
each class once.  Two classes share an image (orbit, theta) only when
they share b, so each class is checked against the orbits already taken
under its own b, and the check keeps no store with an entry per class.
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
    """Exhaustively verify that rho -> (orbit, theta) is a bijection from
    parameter classes onto (W0-orbit, b in E^x) pairs, E = GF(q^2).

    The orbit reads only y, so it is computed once per y-class and given
    an integer id: its index in ``torus_orbits``, or, for an orbit outside
    that list, the next free id.  The classes are walked b outer (in order
    of exponent) and y inner.  ``image`` maps each id taken under the
    current b to its y, at most one entry per id, so the first id taken
    twice under one b is the collision.  The map is onto when every b
    takes exactly the ids of ``torus_orbits``."""
    q = tower.q
    units = [tower.gen_power(k) for k in range(q * q - 1)]
    y_reps = _y_class_reps(tower)
    one = tower.one()
    all_orbits = torus_orbits(tower)
    ids = {orb: i for i, orb in enumerate(all_orbits)}
    y_ids = [(y, ids.setdefault(orbit_of(GaloisParam(tower, one, y)), len(ids))) for y in y_reps]
    target = set(range(len(all_orbits)))
    modules, surjective, collision = 0, True, None
    for b in units:
        image = {}
        for y, i in y_ids:
            first = image.setdefault(i, y)
            if first is not y:
                collision = (GaloisParam(tower, b, first), GaloisParam(tower, b, y))
                break
        modules += len(image)
        surjective = surjective and image.keys() == target
        if collision is not None:
            break
    classes = len(units) * len(y_reps)
    regular = sum(1 for orb in all_orbits if len(orb) == 2)
    report = {
        "q": q,
        "E": f"GF({q * q})",
        "classes": classes,
        "modules": modules,
        "bijective": collision is None and surjective and classes == len(units) * len(all_orbits),
        "orbit_counts": {
            "nonregular": len(all_orbits) - regular,
            "regular": regular,
            "total": len(all_orbits),
        },
    }
    if collision is not None:
        report["collision"] = [str(collision[0].class_key()), str(collision[1].class_key())]
    return report

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .charrings import FieldRing
from .coeffs import FieldElement, FieldTower, discrete_log
from .hecke import orbits as torus_orbits
from .krep import FiniteModule, reduce_at_theta
from .chowrep import composition_series, reduce_regular_at_theta


@dataclass(frozen=True)
class GaloisParam:
    tower: FieldTower
    b: FieldElement
    y: FieldElement

    def __post_init__(self):
        if self.b.is_zero():
            raise ValueError("b must be nonzero")
        if self.y.is_zero() or self.y.in_base_field():
            raise ValueError("y must lie outside GF(q) (irreducibility)")

    def conjugate(self) -> "GaloisParam":
        return GaloisParam(self.tower, self.b, self.y.frobenius())

    def class_key(self):
        """Canonical key of the equivalence class (b, {y, y^q})."""
        h = discrete_log(self.y)
        hc = (h * self.tower.q) % (self.tower.q**2 - 1)
        return (self.b, min(h, hc))


def exponent_set(rho: GaloisParam) -> set:
    """{h, h'} in [1, q^2-1]: the exponent of y and of its conjugate."""
    n = rho.tower.q**2 - 1

    def norm(k):
        k %= n
        return k if k != 0 else n

    h = norm(discrete_log(rho.y))
    return {h, norm(h * rho.tower.q)}


@dataclass(frozen=True)
class NormalizedExponent:
    h: int  # in [1, q-1]
    i: int  # in [0, q-2]


def normalize_twist(rho: GaloisParam) -> NormalizedExponent:
    """Smallest (i, then h) with h + i(q+1) congruent to the exponent of
    y or of y^q mod q^2 - 1."""
    q = rho.tower.q
    n = q * q - 1
    targets = {e % n for e in exponent_set(rho)}
    for i in range(q - 1):
        for h in range(1, q):
            if (h + i * (q + 1)) % n in targets:
                return NormalizedExponent(h, i)
    raise RuntimeError("twisting normalization failed; exponent lemma violated")


def character_of(rho: GaloisParam) -> tuple:
    """The torus character exponent pair lambda(rho) = (h-1+i, i) mod q-1."""
    ne = normalize_twist(rho)
    n = rho.tower.q - 1
    return ((ne.h - 1 + ne.i) % n, ne.i % n)


def orbit_of(rho: GaloisParam) -> tuple:
    """The W0-orbit of lambda(rho)."""
    m1, m2 = character_of(rho)
    return tuple(sorted({(m1, m2), (m2, m1)}))


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


def enumerate_classes(tower: FieldTower) -> list:
    """All equivalence classes of parameters: b in E^x, y in E \\ GF(q)
    modulo conjugation.  Returns one representative per class."""
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


def bijection_check(tower: FieldTower) -> dict:
    """Exhaustively verify that rho -> (orbit, theta) is a bijection from
    parameter classes onto (W0-orbit, b in E^x) pairs, E = GF(q^2)."""
    q = tower.q
    classes = enumerate_classes(tower)
    image = {}
    collision = None
    for rho in classes:
        tag = (orbit_of(rho), rho.b)
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

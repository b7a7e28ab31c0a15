"""Exact coefficient arithmetic.

Two coefficient domains are provided:

* ``GenericScalar``: integer polynomials in the deformation variable q,
  with arbitrary-precision coefficients.
* ``FieldTower`` / ``FieldElement``: the field E = GF(q^2), q = p^f, as
  GF(p)-coefficient vectors modulo one irreducible polynomial, with an
  explicit multiplicative generator of E^x.  GF(q) is not encoded on its
  own: it is the subfield of E fixed by Frobenius x -> x^q.

Everything is immutable and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

MAX_Q_SQUARED = 1 << 20


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class GenericScalar:
    """Polynomial in q over Z, little-endian coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("GenericScalar is immutable")

    @staticmethod
    def const(n: int) -> "GenericScalar":
        return GenericScalar((n,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "GenericScalar") -> "GenericScalar":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return GenericScalar(
            tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))
        )

    def __neg__(self) -> "GenericScalar":
        return GenericScalar(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "GenericScalar") -> "GenericScalar":
        return self + (-other)

    def __mul__(self, other: "GenericScalar") -> "GenericScalar":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return GenericScalar()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return GenericScalar(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, GenericScalar) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("GenericScalar", self.coeffs))

    def evaluate(self, q_value: int) -> int:
        """Evaluate at an integer value of q."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q_value + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*q" if c != 1 else "q")
            else:
                parts.append(f"{c}*q^{i}" if c != 1 else f"q^{i}")
        return " + ".join(parts)


ZQ_ZERO = GenericScalar()
ZQ_ONE = GenericScalar((1,))
ZQ_Q = GenericScalar((0, 1))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mod_mul(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    """Multiply two GF(p) polynomials and reduce mod a monic modulus."""
    n = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    # reduce degree down to < n
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(n):
                out[i - n + j] = (out[i - n + j] - c * modulus[j]) % p
    while len(out) > n:
        out.pop()
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_is_irreducible(modulus: tuple, p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(modulus) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            div = []
            t = idx
            for _ in range(d):
                div.append(t % p)
                t //= p
            div.append(1)
            if _poly_divides(div, modulus, p):
                return False
    return True


def _poly_divides(div: list, target: tuple, p: int) -> bool:
    rem = list(target)
    dd = len(div) - 1
    inv_lead = pow(div[-1], p - 2, p)
    while len(rem) - 1 >= dd:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        factor = rem[-1] * inv_lead % p
        shift = len(rem) - 1 - dd
        for i, c in enumerate(div):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return not rem


def _lowest_lex_irreducible(p: int, deg: int) -> tuple:
    """Monic irreducible of given degree with smallest little-endian encoding."""
    for idx in range(p**deg):
        coeffs = []
        t = idx
        for _ in range(deg):
            coeffs.append(t % p)
            t //= p
        cand = tuple(coeffs) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible polynomial found")


@dataclass(frozen=True)
class FieldTower:
    """E = GF(q^2) over GF(p) with a fixed generator of E^x."""

    p: int
    f: int
    modulus_2f: tuple
    generator: tuple  # coefficient vector in GF(q^2), little-endian over GF(p)

    @property
    def q(self) -> int:
        return self.p**self.f

    def zero(self) -> "FieldElement":
        return FieldElement(self, ())

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,))

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, (n,))

    def gen(self) -> "FieldElement":
        return FieldElement(self, self.generator)

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        return FieldElement(self, tuple(coeffs))

    def gen_power(self, k: int) -> "FieldElement":
        return self.gen() ** (k % (self.q**2 - 1))

    def ext_elements(self):
        """All elements of GF(q^2)."""
        out = [self.zero()]
        x = self.one()
        for _ in range(self.q**2 - 1):
            out.append(x)
            x = x * self.gen()
        return out

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "f": self.f,
            "modulus_2f": list(self.modulus_2f),
            "generator": list(self.generator),
        }


class FieldElement:
    """Element of GF(q^2) as a GF(p)-coefficient vector."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs: tuple):
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "coeffs", _trim(tuple(c % tower.p for c in coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "FieldElement") -> "FieldElement":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return FieldElement(
            self.tower,
            tuple(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % self.tower.p for i in range(n)),
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.tower, tuple(-c % self.tower.p for c in self.coeffs))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(
            self.tower, _poly_mod_mul(self.coeffs, other.coeffs, self.tower.modulus_2f, self.tower.p)
        )

    def __pow__(self, k: int) -> "FieldElement":
        if self.is_zero():
            if k <= 0:
                raise ZeroDivisionError("0 cannot be raised to a nonpositive power")
            return self
        k %= self.tower.q**2 - 1
        result = self.tower.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.tower.q**2 - 2)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def frobenius(self) -> "FieldElement":
        """x -> x^q, the generator of Gal(GF(q^2)/GF(q))."""
        return self**self.tower.q

    def in_base_field(self) -> bool:
        """Is this element in GF(q), the subfield fixed by Frobenius?"""
        return self.frobenius() == self

    def __eq__(self, other) -> bool:
        # coeffs first: comparing the tower dataclass is the costly part
        return (
            isinstance(other, FieldElement)
            and self.coeffs == other.coeffs
            and (self.tower is other.tower or self.tower == other.tower)
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "0" if self.is_zero() else f"g^{discrete_log(self)}"

    def to_json(self) -> list:
        return list(self.coeffs)


@lru_cache(maxsize=None)
def build_tower(p: int, f: int) -> FieldTower:
    """Construct GF(p^2f) deterministically: the lowest-lexicographic
    modulus and the smallest generator."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if f < 1:
        raise ValueError("f must be positive")
    q = p**f
    if q * q > MAX_Q_SQUARED:
        raise ValueError(f"q^2 = {q * q} exceeds the guard {MAX_Q_SQUARED}")

    modulus_2f = _lowest_lex_irreducible(p, 2 * f)

    # generator: the element with the smallest integer encoding that has
    # full multiplicative order q^2 - 1
    order = q * q - 1
    prime_divisors = sorted({d for d in range(2, order + 1) if order % d == 0 and _is_prime(d)})
    generator = None
    for idx in range(1, q * q):
        coeffs = []
        t = idx
        for _ in range(2 * f):
            coeffs.append(t % p)
            t //= p
        cand = tuple(_trim(coeffs))
        tower_stub = FieldTower(p, f, modulus_2f, cand)
        x = FieldElement(tower_stub, cand)
        if x.is_zero():
            continue
        if all(not (x ** (order // ell)) == tower_stub.one() for ell in prime_divisors):
            generator = cand
            break
    if generator is None:
        raise RuntimeError("no multiplicative generator found")
    return FieldTower(p, f, modulus_2f, generator)


@lru_cache(maxsize=None)
def _log_table(tower: FieldTower) -> dict:
    """{coefficient vector of g^k: k} for 0 <= k < q^2 - 1, built once per tower."""
    return {x.coeffs: k for k, x in enumerate(tower.ext_elements()[1:])}


def discrete_log(x: FieldElement) -> int:
    """Discrete log base the tower generator, in [0, q^2-2], by table lookup."""
    if x.is_zero():
        raise ValueError("discrete log of zero")
    return _log_table(x.tower)[x.coeffs]

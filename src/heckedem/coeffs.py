"""Exact coefficient arithmetic.

Two coefficient domains are provided:

* ``GenericScalar``: integer polynomials in the deformation variable q,
  with arbitrary-precision coefficients.
* ``FieldTower`` / ``FieldElement``: the field E = GF(q^2), q = p^f, as
  GF(p)-coefficient vectors modulo one irreducible polynomial, with an
  explicit multiplicative generator g of E^x.  GF(q) is not encoded on its
  own: it is the subfield of E fixed by Frobenius x -> x^q.

Each field element also carries an integer code: 0 for zero, k + 1 for
g^k.  A tower builds its tables once, when it is constructed: the interned
element of every code, the map from coefficient vectors to codes, and the
Zech table, Z(n) with 1 + g^n = g^Z(n) (Lidl-Niederreiter, *Finite
Fields*, 2.5).  Products, inverses, powers, Frobenius and discrete logs are
then index arithmetic mod q^2 - 1, and a sum is one Zech lookup; each
returns one of the tower's interned elements.  GF(p)[x] arithmetic runs
only while a tower is built: one remainder modulo a monic polynomial
(``_poly_rem``) reduces the products that list the powers of g, test the
order of each generator candidate and trial-divide the candidate moduli.

Everything is immutable and deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

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
        if len(a) == 1 or len(b) == 1:
            # by a nonzero constant: no convolution, and nothing to trim;
            # by 1, the other factor itself, which is immutable
            c, a, rest = (a[0], b, other) if len(a) == 1 else (b[0], a, self)
            if c == 1:
                return rest
            new = object.__new__(GenericScalar)
            object.__setattr__(new, "coeffs", tuple([c * x for x in a]))
            return new
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


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n, ascending, by trial division; none for n < 2."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _digits(n: int, p: int, count: int) -> list:
    """The ``count`` lowest base-p digits of n, little-endian."""
    out = []
    for _ in range(count):
        n, r = divmod(n, p)
        out.append(r)
    return out


def _poly_rem(a, modulus, p: int) -> tuple:
    """The remainder of a GF(p) polynomial modulo a monic one, trimmed."""
    n = len(modulus) - 1
    out = list(a)
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i]
        if c:
            for j in range(n):
                out[i - n + j] = (out[i - n + j] - c * modulus[j]) % p
    return _trim(out[:n])


def _poly_mod_mul(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    """Multiply two GF(p) polynomials and reduce mod a monic modulus."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_rem(out, modulus, p)


def _poly_is_irreducible(modulus: tuple, p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(modulus) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            if not _poly_rem(modulus, _digits(idx, p, d) + [1], p):
                return False
    return True


def _lowest_lex_irreducible(p: int, deg: int) -> tuple:
    """Monic irreducible of given degree with smallest little-endian encoding."""
    for idx in range(p**deg):
        cand = tuple(_digits(idx, p, deg)) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible polynomial found")


class FieldTower:
    """E = GF(q^2) over GF(p) with a fixed generator g of E^x.

    Construction builds the element tables, indexed by code (0 is zero,
    k + 1 is g^k): the interned elements, the coefficient-vector-to-code
    map, and the Zech table.  Raises ValueError when ``generator`` does
    not generate E^x.  Immutable; towers compare and hash by
    (p, f, modulus_2f, generator), and ``q`` = p^f is derived.
    """

    __slots__ = ("p", "f", "modulus_2f", "generator", "q", "_hash", "_elements", "_powers", "_codes", "_zech", "_neg")

    def __init__(self, p: int, f: int, modulus_2f: tuple, generator: tuple):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "modulus_2f", modulus_2f)
        object.__setattr__(self, "generator", generator)  # coefficient vector in GF(q^2), little-endian over GF(p)
        object.__setattr__(self, "q", p**f)
        object.__setattr__(self, "_hash", hash((p, f, modulus_2f, generator)))
        self.__post_init__()

    def __post_init__(self):
        """Build the tables from the fields ``__init__`` set: ``_elements``
        by code, ``_powers`` g^k for 0 <= k < 2(q^2 - 1), ``_codes`` from
        coefficient vector to code, ``_zech`` from n to the code of 1 + g^n
        and ``_neg`` from a code to that of its negative."""
        p = self.p
        order = self.q**2 - 1
        one = (1,)
        vectors = [one]  # vectors[k] is g^k
        x = one
        for k in range(1, order + 1):
            x = _poly_mod_mul(x, self.generator, self.modulus_2f, p)
            if (x == one) != (k == order):  # g must have order exactly q^2 - 1
                raise ValueError(f"{self.generator} does not generate GF({order + 1})^x")
            vectors.append(x)
        vectors.pop()  # g^order = 1 again
        codes = {(): 0}
        codes.update((x, k + 1) for k, x in enumerate(vectors))
        elements = tuple(FieldElement._interned(self, x, code) for x, code in codes.items())
        half = order // 2  # -1 = g^half
        zech = tuple(codes[_trim(((x[0] + 1) % p,) + x[1:])] for x in vectors)  # x is nonzero, so x[0] exists
        neg = (0,) + tuple((k + half) % order + 1 for k in range(order))
        tables = {"_elements": elements, "_powers": elements[1:] * 2, "_codes": codes, "_zech": zech, "_neg": neg}
        for name, table in tables.items():
            object.__setattr__(self, name, table)

    def __setattr__(self, name, value):
        raise AttributeError("FieldTower is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = (self.p, self.f, self.modulus_2f, self.generator)
        return self is other or mine == (other.p, other.f, other.modulus_2f, other.generator)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, f={self.f}, modulus_2f={self.modulus_2f}, generator={self.generator})"

    def zero(self) -> "FieldElement":
        return self._elements[0]

    def one(self) -> "FieldElement":
        return self._elements[1]

    def from_int(self, n: int) -> "FieldElement":
        return self.element((n,))

    def gen(self) -> "FieldElement":
        return self._elements[2]

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        return self._elements[self._code_of(coeffs)]

    def _code_of(self, coeffs: Sequence[int]) -> int:
        code = self._codes.get(_trim(c % self.p for c in coeffs))
        if code is None:
            raise ValueError(f"{tuple(coeffs)} is not a coefficient vector of GF({self.q**2})")
        return code

    def gen_power(self, k: int) -> "FieldElement":
        return self._powers[k % (self.q**2 - 1)]

    def ext_elements(self):
        """All elements of GF(q^2): 0, then g^0, g^1, ..."""
        return list(self._elements)


class FieldElement:
    """Element of GF(q^2): its GF(p)-coefficient vector and its code.

    The code is 0 for zero and k + 1 for g^k.  Products, inverses and
    powers add or scale logs mod q^2 - 1; a sum is one Zech lookup,
    g^a + g^b = g^(a + Z(b - a)) with g^Z(n) = 1 + g^n.  Every result is
    one of the tower's interned elements.  The hash is the code: equal
    towers fix the same generator, so equal elements have equal codes.
    """

    __slots__ = ("tower", "coeffs", "code")

    def __init__(self, tower: FieldTower, coeffs: tuple):
        code = tower._code_of(coeffs)
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "coeffs", tower._elements[code].coeffs)
        object.__setattr__(self, "code", code)

    @classmethod
    def _interned(cls, tower: FieldTower, coeffs: tuple, code: int) -> "FieldElement":
        x = object.__new__(cls)
        object.__setattr__(x, "tower", tower)
        object.__setattr__(x, "coeffs", coeffs)
        object.__setattr__(x, "code", code)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def is_zero(self) -> bool:
        return not self.code

    def __add__(self, other: "FieldElement") -> "FieldElement":
        t = self.tower
        a, b = self.code, other.code
        if not a or not b:
            return t._elements[a or b]
        z = t._zech[b - a]  # a negative index wraps mod q^2 - 1
        return t._powers[a + z - 2] if z else t._elements[0]

    def __neg__(self) -> "FieldElement":
        return self.tower._elements[self.tower._neg[self.code]]

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        t = self.tower
        a, b = self.code, t._neg[other.code]
        if not a or not b:
            return t._elements[a or b]
        z = t._zech[b - a]
        return t._powers[a + z - 2] if z else t._elements[0]

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        a, b = self.code, other.code
        if a and b:
            return self.tower._powers[a + b - 2]
        return self.tower._elements[0]

    def __pow__(self, k: int) -> "FieldElement":
        if not self.code:
            if k <= 0:
                raise ZeroDivisionError("0 cannot be raised to a nonpositive power")
            return self.tower._elements[0]
        return self.tower._powers[(self.code - 1) * k % (self.tower.q**2 - 1)]

    def inverse(self) -> "FieldElement":
        if not self.code:
            raise ZeroDivisionError("inverse of zero")
        return self.tower._powers[self.tower.q**2 - self.code]  # log (q^2 - 1) - (code - 1)

    def frobenius(self) -> "FieldElement":
        """x -> x^q, the generator of Gal(GF(q^2)/GF(q))."""
        return self**self.tower.q

    def in_base_field(self) -> bool:
        """Is this element in GF(q), the subfield fixed by Frobenius?"""
        return self.frobenius() == self

    def __eq__(self, other) -> bool:
        # code first: comparing two towers built apart is the costly part
        return (
            isinstance(other, FieldElement)
            and self.code == other.code
            and (self.tower is other.tower or self.tower == other.tower)
        )

    def __hash__(self) -> int:
        return self.code

    def __repr__(self) -> str:
        return "0" if self.is_zero() else f"g^{discrete_log(self)}"

    def to_json(self) -> list:
        return list(self.coeffs)


def _poly_mod_pow(a: tuple, k: int, modulus: tuple, p: int) -> tuple:
    """a^k modulo a monic modulus over GF(p), k >= 0, by square-and-multiply."""
    out = (1,)
    while k:
        if k & 1:
            out = _poly_mod_mul(out, a, modulus, p)
        k >>= 1
        if k:
            a = _poly_mod_mul(a, a, modulus, p)
    return out


@lru_cache(maxsize=None)
def build_tower(p: int, f: int) -> FieldTower:
    """Construct GF(p^2f) deterministically: the lowest-lexicographic
    modulus and the smallest generator.

    A candidate is rejected by its order before any table is built: it
    generates E^x exactly when x^((q^2 - 1)/l) != 1 for each prime l
    dividing q^2 - 1.  The tower's own power loop stays the final check."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    if _prime_factors(p) != [p]:
        raise ValueError(f"p = {p} is not prime")
    if f < 1:
        raise ValueError("f must be positive")
    q = p**f
    if q * q > MAX_Q_SQUARED:
        raise ValueError(f"q^2 = {q * q} exceeds the guard {MAX_Q_SQUARED}")

    modulus_2f = _lowest_lex_irreducible(p, 2 * f)

    # generator: the element with the smallest integer encoding that has
    # full multiplicative order q^2 - 1, searched on coefficient vectors
    order = q * q - 1
    cofactors = [order // ell for ell in _prime_factors(order)]
    for idx in range(1, q * q):
        cand = _trim(_digits(idx, p, 2 * f))
        if all(_poly_mod_pow(cand, k, modulus_2f, p) != (1,) for k in cofactors):
            return FieldTower(p, f, modulus_2f, cand)
    raise RuntimeError("no multiplicative generator found")


def discrete_log(x: FieldElement) -> int:
    """Discrete log base the tower generator, in [0, q^2-2]: the code minus one."""
    if x.is_zero():
        raise ValueError("discrete log of zero")
    return x.code - 1

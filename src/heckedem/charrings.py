"""Character rings of the dual side and their Demazure operators.

* ``SparsePoly``: the immutable sparse core of every polynomial class in
  the package, a dict from monomial keys to nonzero coefficients with the
  ring operations and the product that adds exponent tuples of any
  length; the two Laurent rings own a faster one, on pairs.  Every
  ring-operation result is built in one pass: an operation drops a
  coefficient where its sum cancels (``linalg.accumulate``, the one
  sparse-sum rule of the package), and ``SparsePoly._new`` then runs only
  the subclass's ``_clean`` invariant, not the public constructors.
* ``LaurentPoly``: the base of the two rings below, on keys (a, b) in
  Z^2, and the one holder of their product, their constructors, the swap
  ``s_action`` (with ``is_invariant``) and the invariants ``xi1``, ``xi2``.
* ``GroupRingElement``: Laurent polynomials Z[Lambda] in e^{(a,b)}, the
  K-side model.  Invariants under the swap s are generated by
  xi1 = e^{(1,0)} + e^{(0,1)} and xi2 = e^{(1,1)} (invertible); the ring
  is free of rank 2 over the invariants on {1, e^{(-1,0)}}.
* ``SymElement``: polynomials in eta1, eta2 localized at xi2' = eta1*eta2,
  the Chow-side model.  Since eta1^{-1} = eta2 * xi2'^{-1}, this is the
  full Laurent ring in eta1, eta2.  Invariants are generated by
  xi1' = eta1 + eta2 and xi2'; basis {1, (eta1 - eta2)/2} over the
  invariants (``half``: 2 must be invertible).

All Demazure quotients are computed by exact division with the remainder
checked to vanish; no rational-function arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .coeffs import FieldTower, Frozen, ZQ_ONE, ZQ_Q, ZQ_ZERO
from .linalg import accumulate


# ---------------------------------------------------------------------------
# coefficient-ring adapters


class ZqRing(Frozen):
    """Z[q] viewed as a coefficient ring.  It has no fields, so all
    instances are equal and hash alike."""

    __slots__ = ()

    is_field = False
    zero = ZQ_ZERO
    one = ZQ_ONE
    q = ZQ_Q

    def _key(self) -> tuple:
        return ()

    def __repr__(self):
        return "Z[q]"


ZQ = ZqRing()


class FieldRing(Frozen):
    """The field E = GF(q^2) of a tower as a coefficient ring.

    The deformation variable q specializes to 0 here: q = p^f vanishes
    in characteristic p.  ``level`` accepts only "ext": E is the one field.
    Rings compare and hash by (tower, level); zero, one and q are read
    from the tower once, at construction.
    """

    __slots__ = ("tower", "level", "zero", "one", "q")

    is_field = True

    def __init__(self, tower: FieldTower, level: str = "ext"):
        if level != "ext":
            raise ValueError(f"unknown field level {level!r}; GF(q^2) is the only field")
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "zero", tower.zero())
        object.__setattr__(self, "one", tower.one())
        object.__setattr__(self, "q", tower.zero())

    def _key(self) -> tuple:
        return (self.tower, self.level)

    def from_int(self, n: int):
        return self.tower.from_int(n)

    def __repr__(self):
        return f"GF({self.tower.q ** 2})"


# ---------------------------------------------------------------------------
# the sparse core


class SparsePoly(Frozen):
    """Immutable finite sum of coefficient * monomial.

    ``terms`` maps monomial keys to nonzero coefficients: the public
    constructor drops the zeros of its input, and each ring operation
    deletes a key where its sum cancels.  Negation, the swap s and scaling
    by a nonzero c keep every coefficient nonzero, since each coefficient
    ring here (Z[q], GF(q^2), Z) is a domain; only ``map_coeffs`` filters.
    Keys are exponent tuples of any length, and the product adds them;
    ``LaurentPoly`` (pairs) and ``HeckeElement`` (basis labels) own theirs.  Ring
    operations build their results through ``_new`` only, and normal forms
    and random draws through ``_of``; a subclass with more state than
    ``ring`` extends both.  Named constructors, s, xi1 and xi2 are on
    ``LaurentPoly``.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: dict | None = None):
        object.__setattr__(self, "ring", ring)
        terms = {key: c for key, c in terms.items() if not c.is_zero()} if terms else {}
        object.__setattr__(self, "terms", self._clean(terms))

    @staticmethod
    def _clean(terms: dict) -> dict:
        """The class invariant on terms that hold no zero coefficient: none here."""
        return terms

    @classmethod
    def _of(cls, ring, terms: dict):
        """An element of cls over ring with the given terms, which hold no
        zero coefficient: the one construction path of ring-operation
        results, of normal forms over the center and of the random draws of
        ``verify``.  It runs only the class's ``_clean`` invariant, not the
        public constructors."""
        new = object.__new__(cls)
        object.__setattr__(new, "ring", ring)
        object.__setattr__(new, "terms", cls._clean(terms))
        return new

    def _new(self, terms: dict):
        """``_of`` in the class and ring of self."""
        return self._of(self.ring, terms)

    # ring operations ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return self._new(out)

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
        return self._new(out)

    def scale(self, c):
        if c.is_zero():
            return self._new({})
        return self._new({key: c * v for key, v in self.terms.items()})

    def map_coeffs(self, fn):
        """Apply ``fn`` to every coefficient, e.g. a specialization of q; a
        coefficient mapped to zero drops."""
        return self._new({key: d for key, c in self.terms.items() if not (d := fn(c)).is_zero()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


class LaurentPoly(SparsePoly):
    """The base of the two Laurent rings of the dual side, keys (a, b) in
    Z^2: their product, constructors, the swap s of the two exponents and
    the invariants xi1, xi2, which mean nothing on the other sparse classes."""

    __slots__ = ()

    def __mul__(self, other):
        """``SparsePoly.__mul__`` on unpacked exponent pairs: no tuple(map) per pair."""
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                accumulate(out, (a1 + a2, b1 + b2), c1 * c2)
        return self._new(out)

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def one(cls, ring):
        return cls(ring, {(0, 0): ring.one})

    @classmethod
    def monomial(cls, ring, a: int, b: int):
        return cls(ring, {(a, b): ring.one})

    @classmethod
    def from_scalar(cls, ring, c):
        return cls(ring, {(0, 0): c})

    @classmethod
    def xi1(cls, ring):
        """The first invariant, e^{(1,0)} + e^{(0,1)} (eta1 + eta2 on the Chow side)."""
        return cls(ring, {(1, 0): ring.one, (0, 1): ring.one})

    @classmethod
    def xi2(cls, ring, power: int = 1):
        """A power of the second invariant, e^{(1,1)} (eta1*eta2 on the Chow side)."""
        return cls.monomial(ring, power, power)

    def s_action(self):
        """The swap s of the two exponents."""
        return self._new({(b, a): c for (a, b), c in self.terms.items()})

    def is_invariant(self) -> bool:
        return self.s_action() == self


def eval_laurent(poly: dict, zero, x1, x2_power):
    """Evaluate sum c * x1^m * x2^k over poly = {(m, k): c}, m >= 0.

    ``x2_power(k)`` returns x2^k for any sign of k (x2 is a unit); each
    power x1^m is formed once per call."""
    out, powers = zero, [x1]  # powers[m - 1] = x1^m
    for (m, k), c in poly.items():
        if m < 0:
            raise ValueError("the first variable is not invertible")
        term = x2_power(k)
        if m:
            while len(powers) < m:
                powers.append(powers[-1] * x1)
            term = term * powers[m - 1]
        out = out + term.scale(c)
    return out


def to_xi_poly(a: LaurentPoly) -> dict:
    """Express an s-invariant element of either character ring as a
    Laurent polynomial {(m, k): coeff} in xi1, xi2 (xi1', xi2').

    Peels the extreme term: xi1^m * xi2^k has the unique maximal-spread
    monomial of exponent (m+k, k), with coefficient 1.
    """
    if not a.is_invariant():
        raise ValueError("to_xi_poly needs an s-invariant element")
    cls, ring = type(a), a.ring
    zero, x1 = cls.zero(ring), cls.xi1(ring)
    rest = a
    out: dict = {}
    while not rest.is_zero():
        (i, j) = max(rest.terms, key=lambda e: (e[0] - e[1], e[0]))
        if i < j:
            raise ArithmeticError("invariant element has no dominant term; bug")
        c = rest.terms[(i, j)]
        if c.is_zero():
            raise ArithmeticError("zero coefficient in a sparse element; peeling it makes no progress")
        key = (i - j, j)
        accumulate(out, key, c)
        rest = rest - eval_laurent({key: c}, zero, x1, lambda k: cls.xi2(ring, k))
    return out


def _divide_by_one_minus_alpha(num: LaurentPoly) -> LaurentPoly:
    """Exact division by (1 - e^{(1,-1)}) in a two-variable Laurent ring.

    Multiplication by e^{(1,-1)} preserves the level n = a + b, so the
    division splits into independent one-dimensional problems per level.
    With N_t the coefficient of e^{(t, n-t)}, the quotient satisfies
    N_t = Q_t - Q_{t-1}, so Q_t is a prefix sum; exactness means the
    full sum on each level vanishes.
    """
    ring = num.ring
    levels: dict[int, dict[int, object]] = {}
    for (a, b), c in num.terms.items():
        levels.setdefault(a + b, {})[a] = c
    out: dict = {}
    for n, line in levels.items():
        ts = sorted(line)
        acc = ring.zero
        for t in range(ts[0], ts[-1] + 1):
            if t in line:
                acc = acc + line[t]
            if not acc.is_zero():
                out[(t, n - t)] = acc
        if not acc.is_zero():
            raise ArithmeticError("division by 1 - e^{(1,-1)} left a remainder")
    return num._new(out)


def _check_invariant_parts(a0, a1, name: str):
    if not (a0.is_invariant() and a1.is_invariant()):
        raise ArithmeticError(f"{name} produced non-invariant parts")
    return a0, a1


# ---------------------------------------------------------------------------
# K-side: the group ring Z[Lambda]


class GroupRingElement(LaurentPoly):
    """Finite sum of c * e^{(a,b)} with coefficients in a fixed ring."""

    __slots__ = ()

    # its own entry, so that perfbench/tracer.py can wrap this class's product
    __mul__ = LaurentPoly.__mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = [f"({c})*e^{exp}" for exp, c in sorted(self.terms.items())]
        return " + ".join(parts)


def demazure_k(a: GroupRingElement, variant: str = "D") -> GroupRingElement:
    """K-side Demazure operators D, D', D(q) = D - q*D'."""
    ring = a.ring
    alpha = GroupRingElement.monomial(ring, 1, -1)
    if variant == "D":
        return _divide_by_one_minus_alpha(a - a.s_action())
    if variant == "D'":
        return _divide_by_one_minus_alpha(a - a.s_action() * alpha)
    if variant == "D(q)":
        return demazure_k(a, "D") - demazure_k(a, "D'").scale(ring.q)
    raise ValueError(f"unknown variant {variant!r}")


def decompose_k(a: GroupRingElement) -> tuple[GroupRingElement, GroupRingElement]:
    """Write a = a0 + a1*e^{(-1,0)} with a0, a1 invariant under s."""
    d = demazure_k(a, "D")
    return _check_invariant_parts(a - d, d * GroupRingElement.monomial(a.ring, 1, 0), "decompose_k")


# ---------------------------------------------------------------------------
# Chow side: Sym(Lambda) localized at xi2' = eta1*eta2


class SymElement(LaurentPoly):
    """Laurent polynomial in eta1, eta2.

    terms: map (i, j) -> coeff of eta1^i * eta2^j, exponents of any sign.
    ``SymElement(ring, terms, denom)`` divides the given terms by
    (eta1*eta2)^denom.  The ``denom`` property is the least d >= 0 such
    that (eta1*eta2)^d times the element is a polynomial.
    """

    __slots__ = ()

    # its own entry, so that perfbench/tracer.py can wrap this class's product
    __mul__ = LaurentPoly.__mul__

    def __init__(self, ring, terms: dict | None = None, denom: int = 0):
        if denom and terms:
            terms = {(i - denom, j - denom): c for (i, j), c in terms.items()}
        super().__init__(ring, terms)

    @property
    def denom(self) -> int:
        return max([0] + [-min(exp) for exp in self.terms])

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        d = self.denom
        parts = [f"({c})*n1^{i + d}*n2^{j + d}" for (i, j), c in sorted(self.terms.items())]
        body = " + ".join(parts)
        return body if d == 0 else f"({body}) / (n1*n2)^{d}"


def demazure_ch(a: SymElement, variant: str = "D") -> SymElement:
    """Chow-side Demazure operators D, D', D(q) = D - q*D'."""
    ring = a.ring
    root = SymElement(ring, {(1, 0): ring.one, (0, 1): -ring.one})
    if variant == "D":
        num = a - a.s_action()
    elif variant == "D'":
        num = a - a.s_action() * (SymElement.one(ring) - root)
    elif variant == "D(q)":
        return demazure_ch(a, "D") - demazure_ch(a, "D'").scale(ring.q)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # eta1 - eta2 = -eta2 * (1 - e^{(1,-1)}) with e^{(1,-1)} = eta1/eta2
    return _divide_by_one_minus_alpha(num._new({(i, j - 1): -c for (i, j), c in num.terms.items()}))


@lru_cache(maxsize=None)
def half(ring):
    """1/2 in ``ring``, once per ring; ValueError unless it is a field of
    odd characteristic (a raise is not cached)."""
    if ring.is_field:
        two = ring.from_int(2)
        if not two.is_zero():
            return two.inverse()
    raise ValueError(f"1/2 needs a coefficient field of odd characteristic, not {ring}")


def delta_ch(ring) -> SymElement:
    """The basis element (eta1 - eta2)/2."""
    h = half(ring)
    return SymElement(ring, {(1, 0): h, (0, 1): -h})


def decompose_ch(a: SymElement) -> tuple[SymElement, SymElement]:
    """Write a = a0 + a1*(eta1-eta2)/2 with a0, a1 invariant."""
    a1 = demazure_ch(a, "D")
    return _check_invariant_parts(a - a1 * delta_ch(a.ring), a1, "decompose_ch")

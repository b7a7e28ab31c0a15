"""Character rings of the dual side and their Demazure operators.

* ``SparsePoly``: the immutable sparse core of every polynomial class in
  the package, a dict from monomial keys to nonzero coefficients with the
  ring operations and the product that adds exponent tuples.
* ``GroupRingElement``: Laurent polynomials Z[Lambda] in e^{(a,b)}, the
  K-side model.  Invariants under the swap s are generated by
  xi1 = e^{(1,0)} + e^{(0,1)} and xi2 = e^{(1,1)} (invertible); the ring
  is free of rank 2 over the invariants on {1, e^{(-1,0)}}.
* ``SymElement``: polynomials in eta1, eta2 localized at xi2' = eta1*eta2,
  the Chow-side model.  Since eta1^{-1} = eta2 * xi2'^{-1}, this is the
  full Laurent ring in eta1, eta2.  Invariants are generated by
  xi1' = eta1 + eta2 and xi2'; basis {1, (eta1 - eta2)/2} over the
  invariants (2 must be invertible).

All Demazure quotients are computed by exact division with the remainder
checked to vanish; no rational-function arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .coeffs import FieldTower, GenericScalar, ZQ_ONE, ZQ_Q, ZQ_ZERO


# ---------------------------------------------------------------------------
# coefficient-ring adapters


class ZqRing:
    """Z[q] viewed as a coefficient ring."""

    is_field = False

    @property
    def zero(self):
        return ZQ_ZERO

    @property
    def one(self):
        return ZQ_ONE

    @property
    def q(self):
        return ZQ_Q

    def from_int(self, n: int):
        return GenericScalar.const(n)

    def __eq__(self, other):
        return isinstance(other, ZqRing)

    def __hash__(self):
        return hash("ZqRing")

    def __repr__(self):
        return "Z[q]"


ZQ = ZqRing()


@dataclass(frozen=True)
class FieldRing:
    """The field E = GF(q^2) of a tower as a coefficient ring.

    The deformation variable q specializes to 0 here: q = p^f vanishes
    in characteristic p.  ``level`` accepts only "ext": E is the one field.
    """

    tower: FieldTower
    level: str = "ext"

    is_field = True

    def __post_init__(self):
        if self.level != "ext":
            raise ValueError(f"unknown field level {self.level!r}; GF(q^2) is the only field")

    @property
    def zero(self):
        return self.tower.zero()

    @property
    def one(self):
        return self.tower.one()

    @property
    def q(self):
        return self.tower.zero()

    def from_int(self, n: int):
        return self.tower.from_int(n)

    def __repr__(self):
        return f"GF({self.tower.q ** 2})"


# ---------------------------------------------------------------------------
# the sparse core


class SparsePoly:
    """Immutable finite sum of coefficient * monomial.

    ``terms`` maps monomial keys to nonzero coefficients; zero
    coefficients are dropped on construction.  Keys are exponent tuples,
    and the product adds them.  ``HeckeElement`` keys are basis labels
    instead, and it brings its own product.  A subclass with more state
    than ``ring`` overrides ``_new``.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: dict | None = None):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", self._clean(terms) if terms else {})

    @staticmethod
    def _clean(terms: dict) -> dict:
        return {key: c for key, c in terms.items() if not c.is_zero()}

    def _new(self, terms: dict):
        """An element of the same ring with the given terms."""
        return type(self)(self.ring, terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # constructors of the two-variable Laurent rings ----------------------
    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def one(cls, ring):
        return cls(ring, {(0, 0): ring.one})

    @classmethod
    def monomial(cls, ring, a: int, b: int, coeff=None):
        return cls(ring, {(a, b): coeff if coeff is not None else ring.one})

    @classmethod
    def from_scalar(cls, ring, c):
        return cls(ring, {(0, 0): c})

    # ring operations ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return self._new(out)

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                prod = c1 * c2
                out[exp] = out[exp] + prod if exp in out else prod
        return self._new(out)

    def scale(self, c):
        return self._new({key: c * v for key, v in self.terms.items()})

    def map_coeffs(self, fn):
        """Apply ``fn`` to every coefficient, e.g. a specialization of q."""
        return self._new({key: fn(c) for key, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


def eval_laurent(poly: dict, zero, x1, x2_power):
    """Evaluate sum c * x1^m * x2^k over poly = {(m, k): c}, m >= 0.

    ``x2_power(k)`` returns x2^k for any sign of k (x2 is a unit)."""
    out = zero
    for (m, k), c in poly.items():
        if m < 0:
            raise ValueError("the first variable is not invertible")
        term = x2_power(k)
        for _ in range(m):
            term = term * x1
        out = out + term.scale(c)
    return out


def to_xi_poly(a: SparsePoly) -> dict:
    """Express an s-invariant element of either character ring as a
    Laurent polynomial {(m, k): coeff} in xi1, xi2 (xi1', xi2').

    Peels the extreme term: xi1^m * xi2^k has the unique maximal-spread
    monomial of exponent (m+k, k), with coefficient 1.
    """
    if not a.is_invariant():
        raise ValueError("to_xi_poly needs an s-invariant element")
    cls, ring = type(a), a.ring
    zero, x1 = cls.zero(ring), cls(ring, {(1, 0): ring.one, (0, 1): ring.one})
    rest = a
    out: dict = {}
    while not rest.is_zero():
        (i, j) = max(rest.terms, key=lambda e: (e[0] - e[1], e[0]))
        if i < j:
            raise ArithmeticError("invariant element has no dominant term; bug")
        c = rest.terms[(i, j)]
        key = (i - j, j)
        out[key] = out[key] + c if key in out else c
        rest = rest - eval_laurent({key: c}, zero, x1, lambda k: cls.monomial(ring, k, k))
    return {key: c for key, c in out.items() if not c.is_zero()}


to_xi_poly_ch = to_xi_poly


def _divide_by_one_minus_alpha(num: SparsePoly) -> SparsePoly:
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


class GroupRingElement(SparsePoly):
    """Finite sum of c * e^{(a,b)} with coefficients in a fixed ring."""

    __slots__ = ()

    # its own entry, so that perfbench/tracer.py can wrap this class's product
    __mul__ = SparsePoly.__mul__

    def s_action(self) -> "GroupRingElement":
        return GroupRingElement(self.ring, {(b, a): c for (a, b), c in self.terms.items()})

    def is_invariant(self) -> bool:
        return self.s_action() == self

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = [f"({c})*e^{exp}" for exp, c in sorted(self.terms.items())]
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {f"({a},{b})": list(c.coeffs) for (a, b), c in sorted(self.terms.items())}


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


def xi1_k(ring) -> GroupRingElement:
    return GroupRingElement(ring, {(1, 0): ring.one, (0, 1): ring.one})


def xi2_k(ring, power: int = 1) -> GroupRingElement:
    return GroupRingElement.monomial(ring, power, power)


def xi_plus(ring, poly: dict) -> GroupRingElement:
    """Substitute xi1 for e^{(1,0)} and xi2 for e^{(1,1)}.

    ``poly`` maps (m, k) to a coefficient, encoding the Laurent monomial
    e^{(1,0)}^m * e^{(1,1)}^k with m >= 0 and k arbitrary.
    """
    return eval_laurent(poly, GroupRingElement.zero(ring), xi1_k(ring), lambda k: xi2_k(ring, k))


# ---------------------------------------------------------------------------
# Chow side: Sym(Lambda) localized at xi2' = eta1*eta2


class SymElement(SparsePoly):
    """Laurent polynomial in eta1, eta2.

    terms: map (i, j) -> coeff of eta1^i * eta2^j, exponents of any sign.
    ``SymElement(ring, terms, denom)`` divides the given terms by
    (eta1*eta2)^denom.  The ``denom`` property is the least d >= 0 such
    that (eta1*eta2)^d times the element is a polynomial.
    """

    __slots__ = ()

    # its own entry, so that perfbench/tracer.py can wrap this class's product
    __mul__ = SparsePoly.__mul__

    def __init__(self, ring, terms: dict | None = None, denom: int = 0):
        if denom and terms:
            terms = {(i - denom, j - denom): c for (i, j), c in terms.items()}
        super().__init__(ring, terms)

    @property
    def denom(self) -> int:
        return max([0] + [-min(exp) for exp in self.terms])

    def s_action(self) -> "SymElement":
        return SymElement(self.ring, {(j, i): c for (i, j), c in self.terms.items()})

    def is_invariant(self) -> bool:
        return self.s_action() == self

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
    return _divide_by_one_minus_alpha(SymElement(ring, {(i, j - 1): -c for (i, j), c in num.terms.items()}))


def delta_ch(ring) -> SymElement:
    """The basis element (eta1 - eta2)/2; needs 2 invertible."""
    half = _half(ring)
    return SymElement(ring, {(1, 0): half, (0, 1): -half})


def _half(ring):
    two = ring.from_int(2)
    if not ring.is_field:
        raise ValueError("decomposition basis needs 2 invertible in the coefficient ring")
    if two.is_zero():
        raise ValueError("coefficient ring has characteristic 2")
    return two.inverse()


def decompose_ch(a: SymElement) -> tuple[SymElement, SymElement]:
    """Write a = a0 + a1*(eta1-eta2)/2 with a0, a1 invariant."""
    a1 = demazure_ch(a, "D")
    return _check_invariant_parts(a - a1 * delta_ch(a.ring), a1, "decompose_ch")


def xi1_ch(ring) -> SymElement:
    return SymElement(ring, {(1, 0): ring.one, (0, 1): ring.one})


def xi2_ch(ring, power: int = 1) -> SymElement:
    return SymElement.monomial(ring, power, power)

"""Generic Hecke algebras of GL2 on the T_w basis.

Three flavors share one multiplication engine, differing only in the
quadratic relation and the idempotent bookkeeping:

* ``iwahori``: T_g^2 = (q-1) T_g + q at the affine generators;
* ``nil``:     T_g^2 = q;
* ``h2``:      the nil algebra twisted by the rank-1 idempotents e_1, e_2,
               with (e_i x T_w)(e_i' x T_w') = 0 unless i' = w^{-1}.i.

The engine folds the S/U word of w2 (``_translation_word``) into T_w
letter by letter (``_basis_product``).  A product writes each term as
T_w = zeta2^k T_{w'} with w' translation-free (``zeta2_split``), folds
each pair (w', w2') once per quadratic relation and ring into a
process-wide product table, and reads T_w T_{w2} off it with every key
shifted by e^{(k1 + k2, k1 + k2)}: zeta2 is central of length 0, so the
shifted fold is the fold itself.

Distinguished elements S = T_s, U = T_u, S0 = T_{s0} = U S U^{-1}, and the
central pair zeta1, zeta2.  The algebra is free over its center on the
basis {1, S, U, SU}; ``normal_form_over_center`` computes coordinates in
one pass, multiplying the letters of each T_w into that basis by one rule
table, ``RIGHT_MUL``: per letter and target coordinate, the source
coordinates with their coefficient (1, -1, q, -q or q - 1) and the shift
that zeta1 or zeta2 makes in a (m, k) key.  The coordinates stay term
dicts {(m, k): coefficient} of zeta1^m zeta2^k until the end, so a
central factor moves a key and a zero q or q - 1 adds no term.
"""

from __future__ import annotations

from . import linalg, weyl
from .charrings import SparsePoly, eval_laurent
from .coeffs import FieldTower, GenericScalar, ZQ_ONE
from .linalg import accumulate
from .weyl import WeylElement, act_on_index, length

FLAVORS = ("iwahori", "nil", "h2")


def q_minus_1(flavor: str, ring):
    """The (q-1) of T_g^2 = (q-1) T_g + q at an affine generator g: q - 1 on
    iwahori, 0 on nil and h2 (T_g^2 = q); the one home of that choice."""
    return ring.q - ring.one if flavor == "iwahori" else ring.zero


class HeckeElement(SparsePoly):
    """Finite sum of coeff * T_w (times an idempotent index for h2).

    Term keys are WeylElements for iwahori/nil and pairs (i, WeylElement)
    with i in {1, 2} for h2.
    """

    __slots__ = ("flavor",)

    def __init__(self, flavor: str, ring, terms: dict | None = None):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        object.__setattr__(self, "flavor", flavor)
        super().__init__(ring, terms)

    @classmethod
    def _of(cls, ring, terms: dict, flavor: str) -> "HeckeElement":
        new = super()._of(ring, terms)
        object.__setattr__(new, "flavor", flavor)
        return new

    def _new(self, terms: dict) -> "HeckeElement":
        return self._of(self.ring, terms, self.flavor)

    # constructors -------------------------------------------------------
    @staticmethod
    def zero(flavor: str, ring) -> "HeckeElement":
        return HeckeElement(flavor, ring, {})

    @staticmethod
    def basis(flavor: str, ring, w: WeylElement, idem: int | None = None) -> "HeckeElement":
        if flavor == "h2":
            if idem not in (1, 2):
                raise ValueError("h2 basis elements need an idempotent index in {1, 2}")
            return HeckeElement(flavor, ring, {(idem, w): ring.one})
        if idem is not None:
            raise ValueError(f"flavor {flavor!r} has no idempotent index")
        return HeckeElement(flavor, ring, {w: ring.one})

    @staticmethod
    def one(flavor: str, ring) -> "HeckeElement":
        return T_w(flavor, ring, weyl.E)

    # linear structure: the sparse core, within one flavor and ring --------
    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        self._check_compatible(other)
        return super().__add__(other)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.flavor == other.flavor

    __hash__ = SparsePoly.__hash__

    def _check_compatible(self, other: "HeckeElement"):
        if self.flavor != other.flavor:
            raise ValueError(f"flavor mismatch: {self.flavor} vs {other.flavor}")
        if self.ring != other.ring:
            raise ValueError("coefficient ring mismatch")

    # multiplication -------------------------------------------------------
    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        """The product, one pair of terms at a time through the product table.

        Each factor's terms are split once (``zeta2_split``); the pair
        (w, w2) reads T_{w'} T_{w2'} from ``_PRODUCTS`` and shifts every
        key by the summed zeta2 powers; nil and h2 share one table."""
        self._check_compatible(other)
        flavor, ring = self.flavor, self.ring
        rows = _PRODUCTS.setdefault((flavor == "iwahori", ring), {})
        h2 = flavor == "h2"
        right: dict = {}  # idempotent index (None outside h2) -> [(k2, w2', c2)]
        for key2, c2 in other.terms.items():
            i2, w2 = key2 if h2 else (None, key2)
            k2, w2 = zeta2_split(w2)
            right.setdefault(i2, []).append((k2, w2, c2))
        out: dict = {}
        for key1, c1 in self.terms.items():
            i, w = key1 if h2 else (None, key1)
            pairs = right.get(act_on_index(w, i) if h2 else None, ())
            k1, w1 = zeta2_split(w)
            row = rows.setdefault(w1, {})
            for k2, w2, c2 in pairs:
                entry = row.get(w2)
                if entry is None:
                    entry = row[w2] = tuple(_basis_product(w1, w2, q_minus_1(flavor, ring), ring).items())
                c = c1 * c2
                k = k1 + k2
                for v, factor in entry:
                    if k:
                        v = v.shift(k)
                    # c and the table's factors are nonzero, so is their product
                    accumulate(out, (i, v) if h2 else v, c * factor)
        return self._new(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=_term_sort_key):
            c = self.terms[key]
            parts.append(f"({c})*T[{key}]")
        return " + ".join(parts)

    def to_json(self) -> dict:
        items = []
        for key in sorted(self.terms, key=_term_sort_key):
            c = self.terms[key]
            if self.flavor == "h2":
                i, w = key
                items.append({"idem": i, "w": w.to_json(), "coeff": list(c.coeffs)})
            else:
                items.append({"w": key.to_json(), "coeff": list(c.coeffs)})
        return {"flavor": self.flavor, "terms": items}


def _term_sort_key(key):
    if isinstance(key, WeylElement):
        return (0, *key)
    i, w = key
    return (i, *w)


# The product table: (relation has a (q-1) T_g term, ring) -> {w': {w2':
# T_{w'} T_{w2'} as a tuple of (v, c) pairs}} for translation-free w', w2',
# filled on a miss by the letter fold (``_basis_product``) and kept for the
# whole process: whoever patches an input of the fold (``_translation_word``,
# ``length``, ``q_minus_1``) must ``_PRODUCTS.clear()``, before and after.
_PRODUCTS: dict = {}


def _basis_product(w: WeylElement, w2: WeylElement, q1, ring) -> dict:
    """T_w * T_{w2} as a map WeylElement -> coefficient, for a
    translation-free w2, under T_S^2 = q1 T_S + q with q1 = ``q_minus_1``.

    Folds the letters of ``_translation_word(w2)`` one at a time: U has
    length 0 and moves every key; at S, an ascent gives T_{vs} and a
    descent applies the quadratic relation.

    ``HeckeElement.__mul__`` calls it once per translation-free pair
    (w', w2') and relation and ring, on a miss of the product table, and
    shifts every key by (k1 + k2, k1 + k2): zeta2 is central of length 0.
    The table is never filled by a closed form or a length-additive
    shortcut: the braid checks in ``verify.suite_relations`` would then
    hold by construction.
    """
    state = {w: ring.one}
    q = ring.q
    for letter in _translation_word(w2):
        if letter == "U":
            state = {v * weyl.U: c for v, c in state.items()}
            continue
        # a key takes at most two terms per letter: one that cancels never comes back, so keys keep their order
        new: dict = {}
        for v, c in state.items():
            vs = v * weyl.S
            if length(vs) > length(v):
                accumulate(new, vs, c)
            else:
                if not q1.is_zero():  # 0 on nil and h2
                    accumulate(new, v, c * q1)
                if not q.is_zero():  # q = 0 over a field
                    accumulate(new, vs, c * q)
        state = new
    return state


# distinguished elements ---------------------------------------------------


def T_w(flavor: str, ring, w: WeylElement) -> HeckeElement:
    """T_w, with both idempotent components e_1 T_w + e_2 T_w in the h2 flavor."""
    if flavor == "h2":
        return HeckeElement(flavor, ring, {(1, w): ring.one, (2, w): ring.one})
    return HeckeElement.basis(flavor, ring, w)


def T_S(flavor: str, ring) -> HeckeElement:
    return T_w(flavor, ring, weyl.S)


def T_U(flavor: str, ring, power: int = 1) -> HeckeElement:
    return T_w(flavor, ring, weyl._u_power(power))


def T_S0(flavor: str, ring) -> HeckeElement:
    return T_w(flavor, ring, weyl.S0)


# ---------------------------------------------------------------------------
# center


class CenterElement(SparsePoly):
    """Laurent polynomial in zeta1, zeta2 (zeta2 invertible).

    terms: map (m, k) -> coeff for zeta1^m * zeta2^k, m >= 0, k in Z.
    """

    __slots__ = ()

    @staticmethod
    def _clean(terms: dict) -> dict:
        if any(m < 0 for m, _ in terms):
            raise ValueError("zeta1 is not invertible")
        return terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*z1^{m}*z2^{k}" for (m, k), c in sorted(self.terms.items()))


def zeta1_embedded(flavor: str, ring) -> HeckeElement:
    """zeta1 = U(S - (q-1)) + SU, with the (q-1) of ``q_minus_1``: US + SU
    on nil and h2."""
    S, U = T_S(flavor, ring), T_U(flavor, ring)
    return U * S - U.scale(q_minus_1(flavor, ring)) + S * U


def zeta2_embedded(flavor: str, ring) -> HeckeElement:
    """zeta2 = U^2 = T_{e^{(1,1)}}."""
    return T_U(flavor, ring, 2)


# ---------------------------------------------------------------------------
# normal form over the center


def zeta2_split(w: WeylElement) -> tuple[int, WeylElement]:
    """Write T_w = zeta2^k * T_{w'} with k = min(n1, n2), w' = e^{(-k,-k)} w.

    zeta2 = T_{e^{(1,1)}} is central of length 0, so this holds in every
    flavor.  The translation-free w' depends only on n1 - n2 and the
    finite part of w.
    """
    k = min(w.n1, w.n2)
    return k, w.shift(-k) if k else w


def _translation_word(w: WeylElement) -> tuple[str, ...]:
    """The word in the letters 'S', 'U' whose product is T_w, for a
    translation-free w (see ``zeta2_split``).

    The word is length-additive, so the product of the basis elements
    named by the letters is T of the remaining group element.
    """
    m = w.n1 - w.n2
    if w.finite == "e":
        return ("U", "S") * m if m >= 0 else ("S", "U") * -m
    return ("U", "S") * (m - 1) + ("U",) if m >= 1 else ("S", "U") * -m + ("S",)


# Right multiplication of a + bS + cU + dSU by a letter, written as data:
# per letter and target coordinate (1, S, U, SU), the terms (source
# coordinate, coefficient, shift of the (m, k) key of zeta1^m zeta2^k).
# From S^2 = (q-1)S + q, US = zeta1 - SU + (q-1)U, SUS = zeta1 S - qU
# and U^2 = zeta2:
#   (a, b, c, d) S = (q b + zeta1 c, a + (q-1) b + zeta1 d, (q-1) c - q d, -c)
#   (a, b, c, d) U = (zeta2 c, zeta2 d, a, b)
RIGHT_MUL = {
    "S": (
        ((1, "q", (0, 0)), (2, "1", (1, 0))),
        ((0, "1", (0, 0)), (1, "q-1", (0, 0)), (3, "1", (1, 0))),
        ((2, "q-1", (0, 0)), (3, "-q", (0, 0))),
        ((2, "-1", (0, 0)),),
    ),
    "U": (
        ((2, "1", (0, 1)),),
        ((3, "1", (0, 1)),),
        ((0, "1", (0, 0)),),
        ((1, "1", (0, 0)),),
    ),
}


def normal_form_over_center(x: HeckeElement) -> tuple:
    """Coordinates (c_1, c_S, c_U, c_SU) of x over the center.

    Writes each T_w as zeta2^k times a word in S, U and multiplies the
    letters in from the right by the rule ``RIGHT_MUL``, with the (q-1) of
    ``q_minus_1``.  The coordinates are term dicts {(m, k): coefficient}
    of zeta1^m zeta2^k summed by ``accumulate``: zeta1 and zeta2 move a
    key, a coefficient 1 multiplies nothing and a zero q or q - 1 adds
    nothing; a ``CenterElement`` is built only for each final coordinate.
    """
    flavor, ring = x.flavor, x.ring
    if flavor not in ("iwahori", "nil"):
        raise ValueError("normal form over the center is defined for iwahori and nil flavors")
    q = ring.q
    coeff = {"1": None, "-1": -ring.one, "q": q, "-q": -q, "q-1": q_minus_1(flavor, ring)}
    # None stands for 1; a zero q (over a field) or q - 1 (on nil) drops its term
    rule = {
        letter: [
            [(src, f, shift) for src, name, shift in terms if (f := coeff[name]) is None or not f.is_zero()]
            for terms in targets
        ]
        for letter, targets in RIGHT_MUL.items()
    }
    total = ({}, {}, {}, {})
    for key, c in x.terms.items():
        k, w0 = zeta2_split(key)
        coords = ({(0, k): c}, {}, {}, {})
        for letter in _translation_word(w0):
            new = ({}, {}, {}, {})
            for out, terms in zip(new, rule[letter]):
                for src, f, (dm, dk) in terms:
                    for (m, n), v in coords[src].items():
                        accumulate(out, (m + dm, n + dk), v if f is None else v * f)
            coords = new
        for out, part in zip(total, coords):
            for mk, v in part.items():
                accumulate(out, mk, v)
    return tuple(CenterElement._of(ring, out) for out in total)


def recompose_from_center(coords, flavor: str, ring) -> HeckeElement:
    """Inverse of normal_form_over_center: sum c_w * T-basis word, each
    c_w expanded in the T_w basis at zeta1 and zeta2 = U^2, with zeta1 and
    the zero built once for all four coordinates."""
    S, U = T_S(flavor, ring), T_U(flavor, ring)
    basis = [HeckeElement.one(flavor, ring), S, U, S * U]
    zero = HeckeElement.zero(flavor, ring)
    zeta1 = zeta1_embedded(flavor, ring)
    zeta2_power = lambda k: T_U(flavor, ring, 2 * k)
    out = zero
    for cz, elt in zip(coords, basis):
        if not cz.is_zero():
            out = out + eval_laurent(cz.terms, zero, zeta1, zeta2_power) * elt
    return out


# ---------------------------------------------------------------------------
# the 2x2 matrix model of h2 at q = 0


class ZRingElement(SparsePoly):
    """Element of Z[X, Y, z2^{+-1}] / (XY) with integer coefficients.

    terms: map (dx, dy, dz) -> nonzero integer, as a constant
    ``GenericScalar`` (so the sparse core's ``is_zero`` applies), with
    dx, dy >= 0 and dx*dy = 0.
    """

    __slots__ = ()

    def __init__(self, terms: dict | None = None):
        super().__init__(None, terms)

    @staticmethod
    def _clean(terms: dict) -> dict:
        return {key: c for key, c in terms.items() if not (key[0] > 0 and key[1] > 0)}  # XY = 0

    @staticmethod
    def const(n: int) -> "ZRingElement":
        return ZRingElement({(0, 0, 0): GenericScalar.const(n)})

    @staticmethod
    def gen(name: str, power: int = 1) -> "ZRingElement":
        if name == "X":
            return ZRingElement({(power, 0, 0): ZQ_ONE})
        if name == "Y":
            return ZRingElement({(0, power, 0): ZQ_ONE})
        if name == "z2":
            return ZRingElement({(0, 0, power): ZQ_ONE})
        raise ValueError(name)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*X^{x}*Y^{y}*z2^{z}" for (x, y, z), c in sorted(self.terms.items()))


_ZM_S = (
    (ZRingElement(), ZRingElement.gen("Y")),
    (ZRingElement.gen("z2", -1) * ZRingElement.gen("X"), ZRingElement()),
)
_ZM_U = ((ZRingElement(), ZRingElement.gen("z2")), (ZRingElement.const(1), ZRingElement()))
_ZM_E1 = ((ZRingElement.const(1), ZRingElement()), (ZRingElement(), ZRingElement()))
_ZM_E2 = ((ZRingElement(), ZRingElement()), (ZRingElement(), ZRingElement.const(1)))


def specialize_q0(x: SparsePoly) -> SparsePoly:
    """Set q = 0 in a Hecke or group-ring element with Z[q] coefficients."""
    return x.map_coeffs(lambda c: GenericScalar.const(c.evaluate(0)))


def h2_matrix_model(x: HeckeElement):
    """The 2x2 matrix model of the h2 flavor at q = 0, over Z[X,Y,z2^{+-1}]/(XY).

    e_i T_w = zeta2^k e_i T_{w'} (``zeta2_split``) maps to E_i times the
    matrices of the S/U word of w' (``_translation_word``) times z2^k,
    since U^2 = z2 Id in the model.  Only specialized coefficients are accepted: every coefficient must be
    a constant in q (the model's quadratic relation S^2 = 0 holds at q = 0
    only).
    """
    if x.flavor != "h2":
        raise ValueError("matrix model is for the h2 flavor")
    zero = ZRingElement()
    out = ((zero, zero), (zero, zero))
    for (i, w), c in x.terms.items():
        if len(c.coeffs) > 1:
            raise ValueError("matrix model requires q = 0; coefficient has positive q-degree")
        k, w0 = zeta2_split(w)
        m = _ZM_E1 if i == 1 else _ZM_E2
        for letter in _translation_word(w0):
            m = linalg.mat_mul(m, _ZM_S if letter == "S" else _ZM_U)
        out = linalg.mat_add(out, linalg.mat_scale(m, ZRingElement({(0, 0, k): c})))
    return out


# ---------------------------------------------------------------------------
# finite-torus idempotents and components


def group_algebra_mul(x: dict, y: dict, q: int) -> dict:
    out: dict = {}
    n = q - 1
    for (a1, a2), c1 in x.items():
        for (b1, b2), c2 in y.items():
            accumulate(out, ((a1 + b1) % n, (a2 + b2) % n), c1 * c2)
    return out


def idempotent(tower: FieldTower, gamma) -> dict:
    """e_gamma, the sum of e_lambda over the labels of an orbit gamma, in
    E[T], T = (GF(q)^x)^2, stored by discrete logs.

    e_lambda = |T|^{-1} sum_t lambda(t)^{-1} T_t, with lambda the character
    (t1, t2) -> t1^{m1} t2^{m2}.  The result maps (a1, a2) in (Z/(q-1))^2
    to the coefficient of T_t for t = (g0^a1, g0^a2), g0 the fixed
    generator of GF(q)^x inside GF(q^2), in sorted order.
    """
    q = tower.q
    n = q - 1
    size = n * n  # |T|
    inv_size = tower.from_int(size).inverse()
    elt: dict = {}
    for m1, m2 in gamma:
        for a1 in range(n):
            for a2 in range(n):
                # lambda(t)^{-1} = g0^{-(a1 m1 + a2 m2)}
                c = tower.gen_power((q + 1) * (-(a1 * m1 + a2 * m2) % n)) * inv_size
                accumulate(elt, (a1, a2), c)
    return dict(sorted(elt.items()))


def orbit(lam) -> tuple:
    """The W0-orbit of a character lam = (m1, m2): its swap labels, sorted."""
    m1, m2 = lam
    return tuple(sorted({(m1, m2), (m2, m1)}))


def orbits(tower: FieldTower) -> list:
    """W0-orbits on the character group of T (pairs mod q-1 up to swap),
    one per label m1 <= m2, in order of that label."""
    n = tower.q - 1
    return [orbit((m1, m2)) for m1 in range(n) for m2 in range(m1, n)]


def component_iso(gamma) -> dict:
    """Dispatch record for the component algebra attached to an orbit.

    Singleton orbits select the iwahori flavor; regular (size-2) orbits
    select h2, with e_1 attached to the lexicographically smaller label.
    """
    gamma = tuple(sorted(tuple(lab) for lab in gamma))
    if len(gamma) == 1:
        return {"flavor": "iwahori", "labels": gamma}
    if len(gamma) == 2:
        return {"flavor": "h2", "labels": gamma}
    raise ValueError("orbits have size 1 or 2")

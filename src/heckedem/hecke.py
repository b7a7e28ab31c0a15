"""Generic Hecke algebras of GL2 on the T_w basis.

Three flavors share one multiplication engine, differing only in the
quadratic relation and the idempotent bookkeeping:

* ``iwahori``: T_g^2 = (q-1) T_g + q at the affine generators;
* ``nil``:     T_g^2 = q;
* ``h2``:      the nil algebra twisted by the rank-1 idempotents e_1, e_2,
               with (e_i x T_w)(e_i' x T_w') = 0 unless i' = w^{-1}.i.

Distinguished elements S = T_s, U = T_u, S0 = T_{s0} = U S U^{-1}, and the
central pair zeta1, zeta2.  The algebra is free over its center on the
basis {1, S, U, SU}; ``normal_form_over_center`` computes coordinates by
a terminating word-rewriting procedure.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg, weyl
from .charrings import SparsePoly, eval_laurent
from .coeffs import FieldTower, GenericScalar
from .weyl import WeylElement, act_on_index, length, reduced_word

FLAVORS = ("iwahori", "nil", "h2")


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

    def _new(self, terms: dict) -> "HeckeElement":
        return HeckeElement(self.flavor, self.ring, terms)

    # constructors -------------------------------------------------------
    @staticmethod
    def zero(flavor: str, ring) -> "HeckeElement":
        return HeckeElement(flavor, ring, {})

    @staticmethod
    def basis(flavor: str, ring, w: WeylElement, idem: int | None = None, coeff=None) -> "HeckeElement":
        c = coeff if coeff is not None else ring.one
        if flavor == "h2":
            if idem not in (1, 2):
                raise ValueError("h2 basis elements need an idempotent index in {1, 2}")
            return HeckeElement(flavor, ring, {(idem, w): c})
        if idem is not None:
            raise ValueError(f"flavor {flavor!r} has no idempotent index")
        return HeckeElement(flavor, ring, {w: c})

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
        self._check_compatible(other)
        ring = self.ring
        out: dict = {}
        for key1, c1 in self.terms.items():
            for key2, c2 in other.terms.items():
                if self.flavor == "h2":
                    i, w = key1
                    i2, w2 = key2
                    if i2 != act_on_index(w, i):
                        continue
                else:
                    w, w2 = key1, key2
                    i = None
                c = c1 * c2
                for v, factor in _basis_product(w, w2, self.flavor, ring).items():
                    key = (i, v) if self.flavor == "h2" else v
                    add = c * factor
                    out[key] = out[key] + add if key in out else add
        return HeckeElement(self.flavor, self.ring, out)

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
    if isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], int):
        i, w = key
        return (i, w.n1, w.n2, w.finite)
    return (0, key.n1, key.n2, key.finite)


def _basis_product(w: WeylElement, w2: WeylElement, flavor: str, ring) -> dict:
    """T_w * T_{w2} as a map WeylElement -> coefficient.

    Expands w2 into a reduced word and folds one letter at a time:
    ascent gives T_{wg}; descent applies the flavor's quadratic relation;
    the Omega part acts freely on the right.
    """
    word = reduced_word(w2)
    state = {w: ring.one}
    q = ring.q
    q_minus_1 = q - ring.one
    for letter in word.letters:
        gen = weyl.S0 if letter == "s0" else weyl.S
        new: dict = {}
        for v, c in state.items():
            vg = v * gen
            if length(vg) > length(v):
                new[vg] = new[vg] + c if vg in new else c
            else:
                if flavor == "iwahori":
                    add = c * q_minus_1
                    new[v] = new[v] + add if v in new else add
                add = c * q
                new[vg] = new[vg] + add if vg in new else add
        state = {v: c for v, c in new.items() if not c.is_zero()}
    if word.omega_power:
        u_pow = weyl._u_power(word.omega_power)
        state = {v * u_pow: c for v, c in state.items()}
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


def idem_element(ring, i: int) -> HeckeElement:
    """The idempotent e_i of the h2 flavor."""
    return HeckeElement("h2", ring, {(i, weyl.E): ring.one})


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
        return SparsePoly._clean(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*z1^{m}*z2^{k}" for (m, k), c in sorted(self.terms.items()))


def zeta1_embedded(flavor: str, ring) -> HeckeElement:
    """zeta1 = U(S - (q-1)) + SU (iwahori) or US + SU (nil/h2)."""
    S, U = T_S(flavor, ring), T_U(flavor, ring)
    if flavor == "iwahori":
        q_minus_1 = ring.q - ring.one
        return U * S - U.scale(q_minus_1) + S * U
    return U * S + S * U


def zeta2_embedded(flavor: str, ring) -> HeckeElement:
    """zeta2 = U^2 = T_{e^{(1,1)}}."""
    return T_U(flavor, ring, 2)


def center_embed(z: CenterElement, flavor: str, ring=None) -> HeckeElement:
    """Expand a zeta-polynomial into the T_w basis."""
    if ring is None:
        ring = z.ring
    zero, zeta1 = HeckeElement.zero(flavor, ring), zeta1_embedded(flavor, ring)
    return eval_laurent(z.terms, zero, zeta1, lambda k: T_U(flavor, ring, 2 * k))


# ---------------------------------------------------------------------------
# normal form over the center


def _translation_word(w: WeylElement) -> tuple[int, tuple[str, ...]]:
    """Write T_w = zeta2^k * T-word in the letters 'S', 'U'.

    The word is length-additive, so the product of the basis elements
    named by the letters is T of the remaining group element.
    """
    n1, n2 = w.n1, w.n2
    if w.finite == "e":
        if n1 >= n2:
            return n2, ("U", "S") * (n1 - n2)
        return n1, ("S", "U") * (n2 - n1)
    m = n1 - n2
    if m >= 1:
        return n2, ("U", "S") * (m - 1) + ("U",)
    return n1, ("S", "U") * (-m) + ("S",)


_NORMAL_WORDS = {(): (0, 0), ("S",): (1, 0), ("U",): (2, 0), ("S", "U"): (3, 0)}


def normal_form_over_center(x: HeckeElement) -> tuple:
    """Coordinates (c_1, c_S, c_U, c_SU) of x over the center.

    Rewrites each T_w as a zeta2-power times a word in S, U, then reduces
    words with the relations SS -> quadratic, UU -> zeta2,
    US -> zeta1 - (1-q)U - SU (iwahori) or zeta1 - SU (nil), until only
    the normal words (), (S,), (U,), (S,U) remain.
    """
    flavor, ring = x.flavor, x.ring
    if flavor not in ("iwahori", "nil"):
        raise ValueError("normal form over the center is defined for iwahori and nil flavors")
    q = ring.q
    q_minus_1 = q - ring.one
    # state: word tuple -> CenterElement coefficient
    state: dict[tuple, CenterElement] = {}

    def bump(st, word, cz: CenterElement):
        if cz.is_zero():
            return
        st[word] = st[word] + cz if word in st else cz

    for key, c in x.terms.items():
        k, word = _translation_word(key)
        bump(state, word, CenterElement.monomial(ring, 0, k, c))

    while True:
        pending = None
        for word in state:
            if word not in _NORMAL_WORDS:
                pending = word
                break
        if pending is None:
            break
        cz = state.pop(pending)
        rewritten = False
        for idx in range(len(pending) - 1):
            pair = pending[idx : idx + 2]
            left, right = pending[:idx], pending[idx + 2 :]
            if pair == ("U", "U"):
                bump(state, left + right, cz * CenterElement.monomial(ring, 0, 1))
                rewritten = True
                break
            if pair == ("S", "S"):
                if flavor == "iwahori":
                    bump(state, left + ("S",) + right, cz.scale(q_minus_1))
                bump(state, left + right, cz.scale(q))
                rewritten = True
                break
            if pair == ("U", "S"):
                bump(state, left + right, cz * CenterElement.monomial(ring, 1, 0))
                bump(state, left + ("S", "U") + right, -cz)
                if flavor == "iwahori":
                    # - (1-q) U = (q-1) U
                    bump(state, left + ("U",) + right, cz.scale(q_minus_1))
                rewritten = True
                break
        if not rewritten:
            raise RuntimeError(f"irreducible abnormal word {pending}; rewriting bug")
        state = {w: cz for w, cz in state.items() if not cz.is_zero()}

    coords = [CenterElement.zero(ring)] * 4
    for word, cz in state.items():
        coords[_NORMAL_WORDS[word][0]] = cz
    return tuple(coords)


def recompose_from_center(coords, flavor: str, ring) -> HeckeElement:
    """Inverse of normal_form_over_center: sum c_w * T-basis word."""
    S, U = T_S(flavor, ring), T_U(flavor, ring)
    basis = [HeckeElement.one(flavor, ring), S, U, S * U]
    out = HeckeElement.zero(flavor, ring)
    for cz, elt in zip(coords, basis):
        if not cz.is_zero():
            out = out + center_embed(cz, flavor, ring) * elt
    return out


# ---------------------------------------------------------------------------
# the 2x2 matrix model of h2 at q = 0


class ZRingElement(SparsePoly):
    """Element of Z[X, Y, z2^{+-1}] / (XY) with integer coefficients.

    terms: map (dx, dy, dz) -> int with dx, dy >= 0 and dx*dy = 0.
    """

    __slots__ = ()

    def __init__(self, terms: dict | None = None):
        super().__init__(None, terms)

    @staticmethod
    def _clean(terms: dict) -> dict:
        return {key: c for key, c in terms.items() if c and not (key[0] > 0 and key[1] > 0)}  # XY = 0

    def _new(self, terms: dict) -> "ZRingElement":
        return ZRingElement(terms)

    @staticmethod
    def const(n: int) -> "ZRingElement":
        return ZRingElement({(0, 0, 0): n})

    @staticmethod
    def gen(name: str, power: int = 1) -> "ZRingElement":
        if name == "X":
            return ZRingElement({(power, 0, 0): 1})
        if name == "Y":
            return ZRingElement({(0, power, 0): 1})
        if name == "z2":
            return ZRingElement({(0, 0, power): 1})
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
_ZM_U_INV = ((ZRingElement(), ZRingElement.const(1)), (ZRingElement.gen("z2", -1), ZRingElement()))
_ZM_E1 = ((ZRingElement.const(1), ZRingElement()), (ZRingElement(), ZRingElement()))
_ZM_E2 = ((ZRingElement(), ZRingElement()), (ZRingElement(), ZRingElement.const(1)))
# s0 = u s u^{-1}
_ZM_S0 = linalg.mat_mul(linalg.mat_mul(_ZM_U, _ZM_S), _ZM_U_INV)


def specialize_q0(x: SparsePoly) -> SparsePoly:
    """Set q = 0 in a Hecke or group-ring element with Z[q] coefficients."""
    return x.map_coeffs(lambda c: GenericScalar.const(c.evaluate(0)))


def h2_matrix_model(x: HeckeElement):
    """The 2x2 matrix model of the h2 flavor at q = 0, over Z[X,Y,z2^{+-1}]/(XY).

    Only specialized coefficients are accepted: every coefficient must be
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
        n = c.coeffs[0] if c.coeffs else 0
        word = reduced_word(w)
        m = _ZM_E1 if i == 1 else _ZM_E2
        for letter in word.letters:
            m = linalg.mat_mul(m, _ZM_S if letter == "s" else _ZM_S0)
        step = _ZM_U if word.omega_power >= 0 else _ZM_U_INV
        for _ in range(abs(word.omega_power)):
            m = linalg.mat_mul(m, step)
        out = linalg.mat_add(out, linalg.mat_scale(m, ZRingElement.const(n)))
    return out


# ---------------------------------------------------------------------------
# finite-torus idempotents and components


@dataclass(frozen=True)
class ToralIdempotent:
    """An idempotent of E[T] for T = (GF(q)^x)^2, stored by discrete logs.

    element maps (a1, a2) in (Z/(q-1))^2 to the coefficient of T_t for
    t = (g0^a1, g0^a2), g0 the fixed generator of GF(q)^x inside GF(q^2).
    """

    tower: FieldTower
    labels: tuple  # the character exponent pairs this idempotent selects
    element: tuple  # sorted tuple of ((a1,a2), FieldElement)

    def as_dict(self) -> dict:
        return dict(self.element)


def group_algebra_mul(x: dict, y: dict, q: int) -> dict:
    out: dict = {}
    n = q - 1
    for (a1, a2), c1 in x.items():
        for (b1, b2), c2 in y.items():
            key = ((a1 + b1) % n, (a2 + b2) % n)
            prod = c1 * c2
            out[key] = out[key] + prod if key in out else prod
    return {k: c for k, c in out.items() if not c.is_zero()}


def idempotent(tower: FieldTower, labels) -> ToralIdempotent:
    """e_lambda (single exponent pair) or e_gamma (several) in E[T].

    e_lambda = |T|^{-1} sum_t lambda(t)^{-1} T_t, with lambda the character
    (t1, t2) -> t1^{m1} t2^{m2}.
    """
    if isinstance(labels[0], int):
        labels = (tuple(labels),)
    labels = tuple(tuple(lab) for lab in labels)
    q = tower.q
    n = q - 1
    size = n * n  # |T|
    inv_size = tower.from_int(size).inverse()
    elt: dict = {}
    for m1, m2 in labels:
        for a1 in range(n):
            for a2 in range(n):
                # lambda(t)^{-1} = g0^{-(a1 m1 + a2 m2)}
                c = tower.gen_power((q + 1) * (-(a1 * m1 + a2 * m2) % n)) * inv_size
                key = (a1, a2)
                elt[key] = elt[key] + c if key in elt else c
    elt = {k: c for k, c in elt.items() if not c.is_zero()}
    return ToralIdempotent(tower, labels, tuple(sorted(elt.items())))


def orbits(tower: FieldTower) -> list:
    """W0-orbits on the character group of T: pairs (m1, m2) mod q-1 up to swap."""
    n = tower.q - 1
    seen = set()
    out = []
    for m1 in range(n):
        for m2 in range(n):
            lam = (m1, m2)
            if lam in seen:
                continue
            orb = tuple(sorted({lam, (m2, m1)}))
            seen.update(orb)
            out.append(orb)
    return out


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

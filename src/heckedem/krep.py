"""The K-theoretic Demazure representation of the Iwahori Hecke algebra.

2x2 matrices over the s-invariant subring of Z[Lambda], with respect to
the basis {1, e^{(-1,0)}}:

    A0(q)(S) = [[q, q*xi1*e^{(-1,-1)}], [0, -1]]       (the operator -D_s(q))
    A(q)(U)  = [[xi1, e^{(-1,-1)}*xi1^2 - 1], [-e^{(1,1)}, -xi1]]

The center acts by zeta1 -> xi1, zeta2 -> xi2.  A(q) is one ``Demazure``
record (``A_Q``), as the Chow-side Anil is (``chowrep.A_NIL``), and both
are read the same way: a general element is mapped term by term through
one table of words (``word_image``): T_w = zeta2^k T_{w'} with w'
translation-free (``hecke.zeta2_split``), the image of T_{w'} is computed
once per (record, ring, w') through its normal form over the center, and
the image of c T_w is c times it with every exponent shifted by (k, k),
since xi2^k = e^{(k,k)} (by (2k, 2k) for Anil).  Both records specialize
at a central character theta = (tau1, tau2) through one table
(``_theta_images``) of flat terms, compiled once per (record, flavor,
ring), one evaluator (``specialize``) that only multiplies and adds them,
and one builder (``_rank2_module``) that checks the relations column by
column (``FiniteModule.validate``): A(q) gives the finite 2-dimensional
modules, in the Pittie-Steinberg basis {1, e^{(0,1)}}, and Anil's A2 the
8-dimensional one.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from . import linalg
from .charrings import (
    FieldRing,
    GroupRingElement,
    decompose_k,
    eval_laurent,
    to_xi_poly,
)
from .coeffs import Frozen
from .hecke import HeckeElement, T_S, T_U, normal_form_over_center, q_minus_1, specialize_q0, zeta2_split
from .linalg import accumulate
from .weyl import act_on_index


# ---------------------------------------------------------------------------
# generic 2x2 matrices over the group ring


def rep_A0_S(ring):
    """The matrix of A0(q)(S) = -D_s(q) on the basis {1, e^{(-1,0)}}."""
    q = ring.q
    zero = GroupRingElement.zero(ring)
    q_elt = GroupRingElement.from_scalar(ring, q)
    # xi1 * e^{(-1,-1)} = e^{(0,-1)} + e^{(-1,0)}
    xi1_shift = GroupRingElement(ring, {(0, -1): ring.one, (-1, 0): ring.one})
    minus_one = GroupRingElement(ring, {(0, 0): -ring.one})
    return ((q_elt, xi1_shift.scale(q)), (zero, minus_one))


def rep_A_U(ring):
    """The matrix of A(q)(U): [[xi1, e^{(-1,-1)}xi1^2 - 1], [-xi2, -xi1]]."""
    one = ring.one
    x1 = GroupRingElement.xi1(ring)
    # e^{(-1,-1)} * xi1^2 - 1 = e^{(1,-1)} + 1 + e^{(-1,1)}
    b = GroupRingElement(ring, {(1, -1): one, (0, 0): one, (-1, 1): one})
    c = GroupRingElement(ring, {(1, 1): -one})
    return ((x1, b), (c, -x1))


class Demazure(Frozen):
    """A rank-2 Demazure representation, given on the basis {1, S, U, SU}
    of its flavor over the center.

    ``cls`` is the matrix entries' ring (``GroupRingElement`` or
    ``SymElement``); ``S`` and ``U`` build the images of S and U over a
    coefficient ring; the center maps by zeta1 -> ``zeta1(ring)`` and
    zeta2 -> the monomial of exponent (d, d), d = ``zeta2_degree``.  The
    record is immutable and compares and hashes by identity, since it
    keys ``word_image``."""

    __slots__ = ("flavor", "cls", "S", "U", "zeta1", "zeta2_degree")

    def __init__(self, flavor: str, cls: type, S: Callable, U: Callable, zeta1: Callable, zeta2_degree: int):
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "zeta1", zeta1)
        object.__setattr__(self, "zeta2_degree", zeta2_degree)

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self) -> str:
        return f"Demazure(flavor={self.flavor!r}, cls={self.cls.__name__}, zeta2_degree={self.zeta2_degree})"

    def basis(self, ring) -> tuple:
        """{Id, MS, MU, MS MU}: the images of the basis {1, S, U, SU}."""
        MS, MU = self.S(ring), self.U(ring)
        return (linalg.mat_identity(self.cls.one(ring), 2), MS, MU, linalg.mat_mul(MS, MU))


# S and U are looked up at call time, so a patched rep_A_U reaches the table
A_Q = Demazure("iwahori", GroupRingElement, lambda r: rep_A0_S(r), lambda r: rep_A_U(r), GroupRingElement.xi1, 1)


def rep_over_center(rep: Demazure, x: HeckeElement):
    """``rep`` on x through its normal form over the center.

    Writes x = c_1 + c_S S + c_U U + c_SU SU over the center, maps each
    central coordinate into ``rep.cls`` and sums against ``rep.basis``."""
    ring, d = x.ring, rep.zeta2_degree
    zero, zeta1 = rep.cls.zero(ring), rep.zeta1(ring)
    zeta2_power = lambda k: rep.cls.monomial(ring, d * k, d * k)
    out = ((zero, zero), (zero, zero))
    for cz, mat in zip(normal_form_over_center(x), rep.basis(ring)):
        if not cz.is_zero():
            out = linalg.mat_add(out, linalg.mat_scale(mat, eval_laurent(cz.terms, zero, zeta1, zeta2_power)))
    return out


@lru_cache(maxsize=None)
def word_image(rep: Demazure, ring, w):
    """rep(T_w) for a translation-free w, through its normal form over the
    center; computed once per (rep, ring, w).

    The table keeps the images of every representation's S and U builders
    for the whole process: whoever replaces one must also
    ``cache_clear()`` this table, before and after, or read stale images."""
    return rep_over_center(rep, HeckeElement.basis(rep.flavor, ring, w))


def represent(rep: Demazure, x: HeckeElement):
    """``rep`` on x = sum c_w T_w, read term by term from ``word_image``.

    Writes T_w = zeta2^k T_{w'} (``zeta2_split``): the image of c T_w is
    c times that of T_{w'} with every exponent shifted by (d k, d k), d =
    ``rep.zeta2_degree``.  On the h2 flavor, the twisted form of a nil
    representation, the matrix is 4x4 in 2x2 blocks, one per pair of
    components: e_i T_w goes to block (i, j), j the component that perm(w)
    routes into i.  Every zero entry of the result is one shared element,
    ``rep.cls.zero(ring)``.  The caller checks that x's flavor and ring
    suit rep."""
    ring, h2 = x.ring, x.flavor == "h2"
    n = 4 if h2 else 2
    acc = [[{} for _ in range(n)] for _ in range(n)]
    for key, c in x.terms.items():
        if h2:
            i, w = key
            rows, col = acc[2 * i - 2 : 2 * i], 2 * act_on_index(w, i) - 2
        else:
            w, rows, col = key, acc, 0
        k, w0 = zeta2_split(w)
        shift = rep.zeta2_degree * k
        for acc_row, row in zip(rows, word_image(rep, ring, w0)):
            for out, entry in zip(acc_row[col : col + 2], row):
                for (a, b), v in entry.terms.items():
                    accumulate(out, (a + shift, b + shift), c * v)
    zero = rep.cls.zero(ring)
    return tuple(tuple(zero._new(d) if d else zero for d in row) for row in acc)


def rep_A(x: HeckeElement):
    """The representation A(q) on a general iwahori-flavor element; the
    center maps by zeta1 -> xi1, zeta2 -> xi2 = e^{(1,1)}."""
    if x.flavor != "iwahori":
        raise ValueError("rep_A is defined on the iwahori flavor")
    return represent(A_Q, x)


def apply_matrix_k(M, a: GroupRingElement) -> GroupRingElement:
    """Apply a 2x2 invariant-ring matrix to a via the basis {1, e^{(-1,0)}}."""
    ring = a.ring
    a0, a1 = decompose_k(a)
    e_minus = GroupRingElement.monomial(ring, -1, 0)
    b0 = M[0][0] * a0 + M[0][1] * a1
    b1 = M[1][0] * a0 + M[1][1] * a1
    return b0 + b1 * e_minus


def check_theorem_constraints(ring) -> dict:
    """The displayed A(q)(U) is the unique solution of the extension
    constraints: a = -d, bc = xi2 - a^2, (q+1)a + q*xi1*e^{(-1,-1)}*c = xi1,
    identically in q.  Returns whether each identity holds, by name."""
    MU = rep_A_U(ring)
    a, b = MU[0]
    c, d = MU[1]
    x1, x2 = GroupRingElement.xi1(ring), GroupRingElement.xi2(ring)
    q = GroupRingElement.from_scalar(ring, ring.q)
    one = GroupRingElement.one(ring)
    shift = GroupRingElement.monomial(ring, -1, -1)  # e^{(-1,-1)}
    return {
        "a_eq_minus_d": (a + d).is_zero(),
        "bc_eq_xi2_minus_a2": (b * c - (x2 - a * a)).is_zero(),
        "trace_condition": ((q + one) * a + q * x1 * shift * c - x1).is_zero(),
    }


def independence_determinant(rep: Demazure, ring, at_q0: bool = False):
    """Determinant of the 4x4 coordinate matrix of {1, rep(S), rep(U),
    rep(SU)}, optionally at q = 0.

    The entries' ring is an integral domain, so a nonzero determinant
    proves linear independence over the invariant ring.
    """
    rows = tuple((M[0][0], M[0][1], M[1][0], M[1][1]) for M in rep.basis(ring))
    if at_q0:
        rows = tuple(tuple(specialize_q0(x) for x in row) for row in rows)
    return linalg.det(rows)


# ---------------------------------------------------------------------------
# finite modules


class FiniteModule(Frozen):
    """A finite-dimensional module over one algebra flavor, fixed by how
    the algebra's generators act and by the scalar U^2 acts by.

    ``gens`` holds the dim x dim generator matrices over the field ring in
    canonical order: e1 (h2 only), S, U; ``dim`` is read off them, and U^2
    acts by ``zeta2``, a field element.  Nothing derived from them is
    stored: U^-1 = zeta2^-1 U and e2 = 1 - e1 add nothing to spinning or
    isomorphism tests, since a subspace (or intertwiner) compatible with U
    and e1 is compatible with them, and ``gen_dict`` reads them off for
    display.  Modules compare and hash by (flavor, ring, gens, zeta2).
    """

    __slots__ = ("flavor", "ring", "gens", "zeta2")

    def __init__(self, flavor: str, ring: FieldRing, gens: tuple, zeta2):
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "zeta2", zeta2)

    def _key(self) -> tuple:
        return (self.flavor, self.ring, self.gens, self.zeta2)

    def __repr__(self) -> str:
        return f"FiniteModule(flavor={self.flavor!r}, ring={self.ring!r}, dim={self.dim}, zeta2={self.zeta2!r})"

    @property
    def dim(self) -> int:
        return len(self.gens[0])

    def gen_dict(self) -> dict:
        """The matrices by name, in the order e1, e2 (h2 only), S, U, Uinv,
        with e2 = 1 - e1 and Uinv = zeta2^-1 U computed on each call."""
        *e1, S, U = self.gens
        d = {}
        if e1:
            ident = linalg.mat_identity(self.ring.one, self.dim)
            d["e1"], d["e2"] = e1[0], linalg.mat_add(ident, linalg.mat_scale(e1[0], -self.ring.one))
        d["S"], d["U"], d["Uinv"] = S, U, linalg.mat_scale(U, self.zeta2.inverse())
        return d

    def generator_matrices(self) -> tuple:
        return self.gens

    def validate(self):
        """Check the defining relations at q = 0: U^2 = zeta2, S^2 = (q-1)S
        with the (q-1) of ``hecke.q_minus_1`` (S^2 = -S on iwahori, 0 on nil
        and h2), and on h2 e1^2 = e1 and e1 X = X e2 for X = S, U, as
        e1 X + X e1 = X; raises ValueError.  Each relation is checked on
        every column: column j of ``linalg.pattern(X)`` is X e_j, to which
        ``linalg.mat_vec`` applies the other factor, and the two sides are
        compared as sparse columns, which hold only nonzero entries, so
        equal columns are equal entry by entry."""
        mat_vec, z = linalg.mat_vec, self.zeta2
        *e1, S, U = map(linalg.pattern, self.gens)
        Sc, Uc = [dict(col) for col in S], [dict(col) for col in U]
        if any(mat_vec(U, u) != ({} if z.is_zero() else {j: z}) for j, u in enumerate(Uc)):
            raise ValueError("U^2 != zeta2")
        c = q_minus_1(self.flavor, self.ring)
        if any(mat_vec(S, s) != _times(c, s) for s in Sc):
            raise ValueError("S^2 != (q-1)S at q = 0")
        for E in e1:
            Ec = [dict(col) for col in E]
            if any(mat_vec(E, e) != e for e in Ec):
                raise ValueError("e1 is not idempotent")
            for name, X, Xc in (("S", S, Sc), ("U", U, Uc)):
                if any(_plus(mat_vec(E, x), mat_vec(X, e)) != x for x, e in zip(Xc, Ec)):
                    raise ValueError(f"e1 {name} != {name} e2")
        return self


def _times(c, v: dict) -> dict:
    """The sparse column c v: empty when c is 0, as a product of nonzero field elements is not."""
    return {i: c * x for i, x in v.items()} if not c.is_zero() else {}


def _plus(v: dict, w: dict) -> dict:
    """v + w for sparse columns, summed into v."""
    for i, x in w.items():
        accumulate(v, i, x)
    return v


@lru_cache(maxsize=None)
def _theta_images(rep: Demazure, flavor: str, ring: FieldRing) -> tuple:
    """``represent(rep, T_S)`` and ``represent(rep, T_U)`` on ``flavor`` over
    the field, where q = 0, compiled for ``specialize``: per image, its
    dimension n over E and its terms (row, col, m, j, c), each adding
    c xi1^m u2^j to entry (row, col) at theta.

    Each entry of an image is a polynomial in xi1, xi2, over A = E[x]/(x^d
    - u2), x = xi2 and d = ``rep.zeta2_degree``: xi2^k sends x^u to u2^j
    x^t for k + u = d j + t, and x^t times the record's basis vector r sits
    at 2d (r // 2) + 2t + r % 2.  For d = 1 that is the record's own basis;
    for the 4x4 h2 images at d = 2 it is [1_1, d1_1, x1_1, xd1_1, 1_2, d1_2,
    x1_2, xd1_2], with d = delta.  None of this depends on theta, so each
    (rep, flavor, ring) compiles it once; like ``word_image``, the table
    keeps the images of the S and U builders for the whole process."""
    d = rep.zeta2_degree
    pos = lambda r, t: 2 * d * (r // 2) + 2 * t + r % 2
    out = []
    for x in (T_S(flavor, ring), T_U(flavor, ring)):
        image, terms = represent(rep, x), []
        for r, row in enumerate(image):
            for s, entry in enumerate(row):
                for (m, k), c in to_xi_poly(entry).items():
                    for u in range(d):
                        j, t = divmod(k + u, d)
                        terms.append((pos(r, t), pos(s, u), m, j, c))
        out.append((d * len(image), tuple(terms)))
    return tuple(out)


def specialize(rep: Demazure, flavor: str, ring: FieldRing, x1, u2) -> tuple:
    """The matrices of S and U at xi1 = x1 and x^d = u2, summed from the
    terms that ``_theta_images`` compiled."""
    zero, out = ring.zero, []
    for n, terms in _theta_images(rep, flavor, ring):
        M = [[zero] * n for _ in range(n)]
        for r, s, m, j, c in terms:
            if m:
                c = c * x1**m
            M[r][s] += c * u2**j if j else c
        out.append(tuple(map(tuple, M)))
    return tuple(out)


def _rank2_module(flavor: str, ring: FieldRing, S, U, u2) -> FiniteModule:
    """The module of even dimension with generators S and U, where U^2 =
    u2, and on the h2 flavor e1, the projector onto the first half of the
    basis, each a ``linalg.Matrix``.  Validated before it is returned, so a
    U whose square is not u2 raises ValueError."""
    gens = (S, U)
    if flavor == "h2":
        n, zero, one = len(S), ring.zero, ring.one
        gens = (tuple(tuple(one if r == c < n // 2 else zero for c in range(n)) for r in range(n)),) + gens
    return FiniteModule(flavor, ring, tuple(map(linalg.Matrix, gens)), u2).validate()


def reduce_at_theta(theta, field_ring: FieldRing) -> FiniteModule:
    """The 2-dimensional module at the central character theta = (tau1, tau2),
    in the Pittie-Steinberg basis {1, e^{(0,1)}}.

    Specializes A(q) at q = 0, xi1 = tau1, xi2 = tau2 on the basis {1,
    e^{(-1,0)}}, then conjugates by the change of basis e^{(0,1)} = xi2 *
    e^{(-1,0)}, i.e. by diag(1, tau2)."""
    tau1, tau2 = theta
    if tau2.is_zero():
        raise ValueError("tau2 must be nonzero (zeta2 acts invertibly)")
    t2i = tau2.inverse()
    MS, MU = (((a, b * tau2), (c * t2i, d)) for (a, b), (c, d) in specialize(A_Q, "iwahori", field_ring, tau1, tau2))
    return _rank2_module("iwahori", field_ring, MS, MU, tau2)  # U^2 = zeta2


def standard_module(tau1, tau2, field_ring: FieldRing) -> FiniteModule:
    """M2(tau1, tau2): basis {m, Um} with Sm = -m, SUm = tau1 m, U^2 m = tau2 m."""
    if tau2.is_zero():
        raise ValueError("tau2 must be nonzero")
    zero, one = field_ring.zero, field_ring.one
    return _rank2_module("iwahori", field_ring, ((-one, tau1), (zero, zero)), ((zero, tau2), (one, zero)), tau2)


def standard_module_h2(b, field_ring: FieldRing) -> FiniteModule:
    """The 2-dimensional h2-flavor standard module with U^2 = b, S = 0."""
    if b.is_zero():
        raise ValueError("b must be nonzero")
    zero, one = field_ring.zero, field_ring.one
    return _rank2_module("h2", field_ring, ((zero, zero), (zero, zero)), ((zero, b), (one, zero)), b)


def is_isomorphic(m1: FiniteModule, m2: FiniteModule) -> bool:
    """Are m1 and m2 isomorphic?  Exact, from the Hom space (no search).

    Every pair compared here has a simple side of the common dimension: a
    reduction at theta against M2(0, tau2), a factor of the 8-dimensional
    module against the h2 standard module.  A nonzero map out of or into a
    simple module is injective or surjective, so with equal dimensions it
    is an isomorphism: Hom(m1, m2) is 0 when they are not isomorphic and
    End of the simple side when they are, which is E by Schur's lemma
    since the simple modules here are absolutely simple (Burnside, see
    ``is_irreducible``).  ``linalg.solve_intertwiner`` raises ValueError
    on a Hom space of dimension 2 or more."""
    if m1.flavor != m2.flavor or m1.ring != m2.ring or m1.dim != m2.dim:
        return False
    X = linalg.solve_intertwiner(m1.generator_matrices(), m2.generator_matrices(), m1.ring)
    return X is not None


def faithfulness_rank(m: FiniteModule) -> int:
    """Dimension of the algebra the generators span in End(E^dim), by
    ``linalg.algebra_dim``: the span of all words in them.  On a
    2-dimensional module at theta the reduced algebra is spanned by the
    images of {1, S, U, SU}, so this is their rank, and the representation
    is faithful exactly when it is 4."""
    return linalg.algebra_dim(m.generator_matrices(), m.ring)


def is_irreducible(m: FiniteModule) -> bool:
    """Is m simple over the algebraic closure of GF(p)?

    Burnside: exactly when the generators span all of End(E^dim).  For
    every module built here this is also simplicity over E.  A module
    reducible over E stays reducible over the closure; on the
    2-dimensional ones S or e1 has two distinct eigenvalues in E, so an
    invariant line over the closure is one of its eigenlines and is
    already defined over E."""
    return faithfulness_rank(m) == m.dim**2

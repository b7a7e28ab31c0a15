"""The K-theoretic Demazure representation of the Iwahori Hecke algebra.

2x2 matrices over the s-invariant subring of Z[Lambda], with respect to
the basis {1, e^{(-1,0)}}:

    A0(q)(S) = [[q, q*xi1*e^{(-1,-1)}], [0, -1]]       (the operator -D_s(q))
    A(q)(U)  = [[xi1, e^{(-1,-1)}*xi1^2 - 1], [-e^{(1,1)}, -xi1]]

The center acts by zeta1 -> xi1, zeta2 -> xi2; general elements are mapped
through their normal form over the center.  Specializing q = 0 and the
invariants at a central character theta = (tau1, tau2) yields the finite
2-dimensional modules, written in the Pittie-Steinberg basis {1, e^{(0,1)}}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import linalg
from .charrings import (
    ZQ,
    FieldRing,
    GroupRingElement,
    decompose_k,
    eval_laurent,
    to_xi_poly,
    xi1_k,
    xi2_k,
)
from .coeffs import GenericScalar
from .hecke import HeckeElement, normal_form_over_center, specialize_q0


# ---------------------------------------------------------------------------
# generic 2x2 matrices over the group ring


def identity2(cls, ring):
    """The 2x2 identity matrix over the group or symmetric ring ``cls``."""
    one, zero = cls.one(ring), cls.zero(ring)
    return ((one, zero), (zero, one))


def gr_identity(ring):
    return identity2(GroupRingElement, ring)


def basis_matrices(cls, ring, MS, MU) -> tuple:
    """{Id, MS, MU, MS MU}: the images of the basis {1, S, U, SU} over the center."""
    return (identity2(cls, ring), MS, MU, linalg.mat_mul(MS, MU))


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
    x1 = xi1_k(ring)
    # e^{(-1,-1)} * xi1^2 - 1 = e^{(1,-1)} + 1 + e^{(-1,1)}
    b = GroupRingElement(ring, {(1, -1): one, (0, 0): one, (-1, 1): one})
    c = GroupRingElement(ring, {(1, 1): -one})
    return ((x1, b), (c, -x1))


def rep_over_center(x: HeckeElement, cls, MS, MU, zeta1, zeta2_power):
    """A 2x2 representation on a general element, given on generators.

    Writes x = c_1 + c_S S + c_U U + c_SU SU over the center, maps each
    central coordinate to ``cls`` by zeta1 -> ``zeta1`` and zeta2^k ->
    ``zeta2_power(k)``, and sums against {Id, MS, MU, MS MU}.
    """
    zero = cls.zero(x.ring)
    out = ((zero, zero), (zero, zero))
    for cz, mat in zip(normal_form_over_center(x), basis_matrices(cls, x.ring, MS, MU)):
        if not cz.is_zero():
            out = linalg.mat_add(out, linalg.mat_scale(mat, eval_laurent(cz.terms, zero, zeta1, zeta2_power)))
    return out


def rep_A(x: HeckeElement):
    """The representation A(q) on a general iwahori-flavor element; the
    center maps by zeta1 -> xi1, zeta2 -> xi2."""
    if x.flavor != "iwahori":
        raise ValueError("rep_A is defined on the iwahori flavor")
    ring = x.ring
    return rep_over_center(
        x, GroupRingElement, rep_A0_S(ring), rep_A_U(ring), xi1_k(ring), lambda k: xi2_k(ring, k)
    )


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
    identically in q.  Returns the verified identities."""
    MU = rep_A_U(ring)
    a, b = MU[0]
    c, d = MU[1]
    x1 = xi1_k(ring)
    x2 = xi2_k(ring)
    q = GroupRingElement.from_scalar(ring, ring.q)
    one = GroupRingElement.one(ring)
    shift = GroupRingElement.monomial(ring, -1, -1)  # e^{(-1,-1)}
    results = {
        "a_eq_minus_d": (a + d).is_zero(),
        "bc_eq_xi2_minus_a2": (b * c - (x2 - a * a)).is_zero(),
        "trace_condition": ((q + one) * a + q * x1 * shift * c - x1).is_zero(),
    }
    if not all(results.values()):
        raise AssertionError(f"A(q)(U) violates the extension constraints: {results}")
    return results


def invariant_matrix_flatten(mats) -> tuple:
    """Flatten a list of 2x2 matrices into rows of a 4-column matrix."""
    return tuple((M[0][0], M[0][1], M[1][0], M[1][1]) for M in mats)


def independence_determinant(ring, at_q0: bool = False) -> GroupRingElement:
    """Determinant of the 4x4 coordinate matrix of {1, A(S), A(U), A(SU)}.

    The group ring is an integral domain, so a nonzero determinant proves
    linear independence over the invariant ring.
    """
    rows = invariant_matrix_flatten(basis_matrices(GroupRingElement, ring, rep_A0_S(ring), rep_A_U(ring)))
    if at_q0:
        rows = tuple(tuple(specialize_q0(x) for x in row) for row in rows)
    return linalg.det(rows)


# ---------------------------------------------------------------------------
# finite modules


@dataclass(frozen=True)
class FiniteModule:
    """A finite-dimensional module over one algebra flavor.

    gens maps generator names to dim x dim matrices over the field ring.
    Canonical generator order (for isomorphism tests): e1, e2 (h2 only),
    then S, U, Uinv.
    """

    flavor: str
    ring: FieldRing
    dim: int
    gens: tuple  # tuple of (name, matrix)
    labels: tuple = ()

    def gen_dict(self) -> dict:
        return dict(self.gens)

    def generator_matrices(self) -> list:
        d = self.gen_dict()
        names = ("e1", "e2", "S", "U", "Uinv") if self.flavor == "h2" else ("S", "U", "Uinv")
        return [d[name] for name in names]

    def validate(self):
        """Check the defining relations at q = 0; raises ValueError."""
        d = self.gen_dict()
        S, U, Uinv = d["S"], d["U"], d["Uinv"]
        ident = linalg.mat_identity(self.ring, self.dim)
        if linalg.mat_mul(U, Uinv) != ident:
            raise ValueError("U * Uinv != identity")
        S2 = linalg.mat_mul(S, S)
        if self.flavor == "iwahori":
            if S2 != linalg.mat_scale(S, -self.ring.one):
                raise ValueError("S^2 != -S at q = 0")
        elif any(not x.is_zero() for row in S2 for x in row):
            raise ValueError("S^2 != 0 at q = 0")
        if self.flavor == "h2":
            e1, e2 = d["e1"], d["e2"]
            if linalg.mat_mul(e1, e1) != e1 or linalg.mat_mul(e2, e2) != e2:
                raise ValueError("e1, e2 are not idempotent")
            if linalg.mat_add(e1, e2) != ident:
                raise ValueError("e1 + e2 != identity")
        return self


def _substitute_invariant(a: GroupRingElement, tau1, tau2):
    """Evaluate an invariant element at xi1 = tau1, xi2 = tau2.

    Coefficients must be q-constants (the element comes from a q = 0
    specialization); tau2 is invertible in the field."""
    acc = None
    for (m, k), c in to_xi_poly(a).items():
        if isinstance(c, GenericScalar):
            if len(c.coeffs) > 1:
                raise ValueError("substitution requires q = 0 coefficients")
            cval = tau1.tower.from_int(c.coeffs[0] if c.coeffs else 0)
        else:
            cval = c
        term = cval * (tau1 ** m if m else tau1.tower.one()) * (tau2 ** k if k else tau2.tower.one())
        acc = term if acc is None else acc + term
    return acc if acc is not None else tau1.tower.zero()


def reduce_at_theta(theta, field_ring: FieldRing) -> FiniteModule:
    """The 2-dimensional module at the central character theta = (tau1, tau2),
    in the Pittie-Steinberg basis {1, e^{(0,1)}}.

    Substitutes q = 0 and xi1 -> tau1, xi2 -> tau2 into the generic
    matrices on the basis {1, e^{(-1,0)}}, then conjugates by the change
    of basis e^{(0,1)} = xi2 * e^{(-1,0)}, i.e. by diag(1, tau2)."""
    tau1, tau2 = theta
    if tau2.is_zero():
        raise ValueError("tau2 must be nonzero (zeta2 acts invertibly)")
    ring = field_ring
    zero, one = ring.zero, ring.one

    MU_gen = rep_A_U(ZQ)
    MU0 = tuple(tuple(specialize_q0(x) for x in row) for row in MU_gen)
    MU = tuple(tuple(_substitute_invariant(x, tau1, tau2) for x in row) for row in MU0)
    # S at q = 0: [[0, 0], [0, -1]] (independent of theta)
    MS = ((zero, zero), (zero, -one))
    # change of basis diag(1, tau2): conjugate
    t2i = tau2.inverse()
    MU = (
        (MU[0][0], MU[0][1] * tau2),
        (MU[1][0] * t2i, MU[1][1]),
    )
    MUinv = linalg.mat_scale(MU, tau2.inverse())  # U^{-1} = U * zeta2^{-1}
    mod = FiniteModule(
        flavor="iwahori",
        ring=ring,
        dim=2,
        gens=(("S", MS), ("U", MU), ("Uinv", MUinv)),
        labels=("1", "e^{(0,1)}"),
    )
    return mod.validate()


def standard_module(tau1, tau2, field_ring: FieldRing) -> FiniteModule:
    """M2(tau1, tau2): basis {m, Um} with Sm = -m, SUm = tau1 m, U^2 m = tau2 m."""
    if tau2.is_zero():
        raise ValueError("tau2 must be nonzero")
    ring = field_ring
    zero, one = ring.zero, ring.one
    MU = ((zero, tau2), (one, zero))
    MS = ((-one, tau1), (zero, zero))
    MUinv = linalg.mat_scale(MU, tau2.inverse())
    mod = FiniteModule(
        flavor="iwahori",
        ring=ring,
        dim=2,
        gens=(("S", MS), ("U", MU), ("Uinv", MUinv)),
        labels=("m", "Um"),
    )
    return mod.validate()


def standard_module_h2(b, field_ring: FieldRing) -> FiniteModule:
    """The 2-dimensional h2-flavor standard module with U^2 = b, S = 0."""
    if b.is_zero():
        raise ValueError("b must be nonzero")
    ring = field_ring
    zero, one = ring.zero, ring.one
    MU = ((zero, b), (one, zero))
    MS = ((zero, zero), (zero, zero))
    MUinv = linalg.mat_scale(MU, b.inverse())
    E1 = ((one, zero), (zero, zero))
    E2 = ((zero, zero), (zero, one))
    mod = FiniteModule(
        flavor="h2",
        ring=ring,
        dim=2,
        gens=(("e1", E1), ("e2", E2), ("S", MS), ("U", MU), ("Uinv", MUinv)),
        labels=("m1", "m2"),
    )
    return mod.validate()


def is_isomorphic(m1: FiniteModule, m2: FiniteModule) -> bool:
    if m1.flavor != m2.flavor or m1.ring != m2.ring or m1.dim != m2.dim:
        return False
    X = linalg.solve_intertwiner(m1.generator_matrices(), m2.generator_matrices(), m1.ring)
    return X is not None


def projective_lines(ring: FieldRing, dim: int):
    """Representatives of all lines of E^dim: first nonzero coordinate 1."""
    elements = ring.tower.ext_elements()
    for lead in range(dim):
        for tail in product(elements, repeat=dim - lead - 1):
            yield (ring.zero,) * lead + (ring.one,) + tail


def submodule_lattice(m: FiniteModule, seeds=None) -> list:
    """Invariant subspaces found by spinning seed vectors, closed under sums.

    With seeds = all projective lines (the default for dim <= 4) the cyclic
    submodules are all found, hence so is the full lattice after closing
    under sums.  Returns RREF row-tuples, sorted by dimension.
    """
    if seeds is None:
        if m.dim > 4:
            raise ValueError("default exhaustive seeding is limited to dim <= 4; pass seeds")
        seeds = list(projective_lines(m.ring, m.dim))
    ops = m.generator_matrices()
    found = {(): ((), [])}
    for v in seeds:
        sub = linalg.spin([v], ops, m.ring)
        found[sub[0]] = sub
    # close under sums
    changed = True
    while changed:
        changed = False
        items = list(found.values())
        for a in items:
            for b in items:
                rows = list(a[0]) + list(b[0])
                sub = linalg.rref(rows)
                if sub[0] not in found:
                    found[sub[0]] = sub
                    changed = True
    return sorted(found.values(), key=lambda s: (len(s[0]), s[0]))


def is_irreducible(m: FiniteModule) -> bool:
    """Exhaustive: every nonzero vector spins to the whole space."""
    ops = m.generator_matrices()
    for v in projective_lines(m.ring, m.dim):
        rows, _ = linalg.spin([v], ops, m.ring)
        if len(rows) != m.dim:
            return False
    return True


def faithfulness_rank(m: FiniteModule) -> int:
    """Rank of {Id, S, U, SU} as vectors in E^(dim^2).

    The reduced algebra at theta is spanned by these four images; the
    representation is faithful exactly when the rank is 4."""
    d = m.gen_dict()
    S, U = d["S"], d["U"]
    ident = linalg.mat_identity(m.ring, m.dim)
    SU = linalg.mat_mul(S, U)
    rows = [tuple(x for row in M for x in row) for M in (ident, S, U, SU)]
    return linalg.rank(rows)

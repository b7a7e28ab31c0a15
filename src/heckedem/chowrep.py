"""Chow-side Demazure representations of the nil Hecke algebra.

2x2 matrices over the invariant subring of Z[eta1, eta2] localized at
xi2' = eta1*eta2, with respect to the basis {1, delta}, delta =
(eta1 - eta2)/2 (p odd).  Over GF(p):

    Anil(S) = [[0, -1], [0, 0]]
    Anil(U) = [[xi1^2/2 - xi2, -xi1(xi1^2/4 - xi2)], [xi1, -(xi1^2/2 - xi2)]]

The center maps by zeta1 -> -xi1, zeta2 -> xi2^2 = (eta1*eta2)^2.  Anil
is the ``krep.Demazure`` record ``A_NIL``, read like ``krep.A_Q`` term by
term from the one table ``krep.word_image`` of translation-free words,
each the product of Anil(S) and Anil(U) along its letters: with T_w =
zeta2^k T_{w'}, the image of c T_w is c times that of T_{w'} with every
exponent shifted by (2k, 2k).

A naive extension with U^2 = xi2 is impossible: the constraint system,
solved over ``SparsePoly``, forces a^2 = xi2 at xi1 = 0, which has no
solution in GF(p)[xi2^{+-1}] by degree parity.

The twisted representation A2 acts on two copies of the rank-2 free
module (one per component of the doubled flag variety) by
A2(e_i T_w) = p_i o diag(Anil(T_w)) o perm(w); it places each term's
Anil image, read from the same table, in its block.  Specializing A2 at a
supersingular central character theta with theta(zeta2) = b, i.e. at
xi1' = 0 and over A = E[xi2']/(xi2'^2 - b), through the same
``krep.specialize`` and builder as the 2-dimensional modules, yields the
8-dimensional module, with composition series of dimensions [2, 4, 6, 8] and four
factors isomorphic to the standard module L.  Its socle, the span of the
images of Hom(L, M8), is the 4-dimensional stage: that decides that the
module is not semisimple, and with a semisimple quotient by it, that its
Loewy length is 2.
"""

from __future__ import annotations

from . import krep, linalg
from .charrings import ZQ, FieldRing, SparsePoly, SymElement, decompose_ch, delta_ch, half
from .hecke import HeckeElement
from .krep import FiniteModule, is_isomorphic, standard_module_h2


# ---------------------------------------------------------------------------
# the rank-2 representation of the nil algebra


def rep_A0nil_S(ring):
    """A0nil(q)(S) = -D_s(q) on the basis {1, delta}: [[q, q-1], [0, -q]].

    Valid over any coefficient ring (the entries are integral even though
    delta itself needs 2 invertible).  The Hecke deformation variable maps
    to q^2: the matrix squares to q^2 * Id.
    """
    q = ring.q
    sc = SymElement.from_scalar
    return (
        (sc(ring, q), sc(ring, q - ring.one)),
        (SymElement.zero(ring), sc(ring, -q)),
    )


def rep_Anil_U(ring: FieldRing):
    """The distinguished Anil(U) over a field of odd characteristic."""
    h = half(ring)
    x1, x2 = SymElement.xi1(ring), SymElement.xi2(ring)
    a = (x1 * x1).scale(h) - x2
    b = -(x1 * ((x1 * x1).scale(h * h) - x2))
    c = x1
    return ((a, b), (c, -a))


# S and U are looked up at call time, as for krep.A_Q
A_NIL = krep.Demazure(
    "nil", SymElement, lambda r: rep_A0nil_S(r), lambda r: rep_Anil_U(r), lambda r: -SymElement.xi1(r), 2
)


def rep_Anil(x: HeckeElement):
    """The representation Anil on a general nil-flavor element over GF(p);
    the center maps by zeta1 -> -xi1, zeta2 -> xi2^2."""
    if x.flavor != "nil":
        raise ValueError("rep_Anil is defined on the nil flavor")
    half(x.ring)  # raises outside odd characteristic, also on x = 0
    return krep.represent(A_NIL, x)


def eta1_squared_s_matrix(ring: FieldRing):
    """The matrix of a -> eta1^2 * s(a) on the basis {1, delta}.

    Cross-check: this operator coincides with Anil(U)."""
    eta1_sq = SymElement.monomial(ring, 2, 0)
    cols = []
    for basis_vec in (SymElement.one(ring), delta_ch(ring)):
        image = eta1_sq * basis_vec.s_action()
        cols.append(decompose_ch(image))
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


# ---------------------------------------------------------------------------
# the naive-extension obstruction, over Z[a, b, c, d, xi1, xi2] (SparsePoly over ZQ)
_ONE, _ZERO = SparsePoly(ZQ, {(0,) * 6: ZQ.one}), SparsePoly(ZQ)
_A, _B, _C, _D, _XI1, _XI2 = (SparsePoly(ZQ, {tuple(int(j == i) for j in range(6)): ZQ.one}) for i in range(6))
_NAIVE_S = ((_ZERO, -_ONE), (_ZERO, _ZERO))


def _naive_system(U) -> tuple:
    """The equations on U (US + SU + xi1 Id, U^2 - xi2 Id off the diagonal) and (U^2 - xi2 Id)[0][0]."""
    anti = linalg.mat_add(linalg.mat_mul(U, _NAIVE_S), linalg.mat_mul(_NAIVE_S, U))
    anti = linalg.mat_add(anti, ((_XI1, _ZERO), (_ZERO, _XI1)))
    square = linalg.mat_add(linalg.mat_mul(U, U), ((-_XI2, _ZERO), (_ZERO, -_XI2)))
    return [e for row in anti for e in row] + [square[0][1], square[1][0]], square[0][0]


def _solve_unit(eqs: list, i: int, j: int) -> SparsePoly:
    """x_i = -u rest from the first equation u x_i + rest with u = +-1 and rest free of x_i and x_j."""
    for eq in eqs:
        for u in (ZQ.one, -ZQ.one):
            rest = eq - (_A, _B, _C, _D)[i].scale(u)
            if all(k[i] == k[j] == 0 for k in rest.terms):
                return rest.scale(-u)
    raise ArithmeticError("constraint system should determine c and d")


def check_naive_obstruction() -> dict:
    """Derive the constraint system for a naive U with U^2 = xi2 and
    US + SU = -xi1 over S = [[0,-1],[0,0]], then refute it at xi1 = 0.

    c and d occur linearly with unit coefficients; their values leave
    a^2 + b*xi1 = xi2, and a^2 = xi2 at xi1 = 0 has no solution in
    GF(p)[xi2^{+-1}] by degree parity.  Checks raise ArithmeticError."""
    eqs, _ = _naive_system(((_A, _B), (_C, _D)))
    c, d = _solve_unit(eqs, 2, 3), _solve_unit(eqs, 3, 2)
    solved, residual = _naive_system(((_A, _B), (c, d)))  # c and d substituted in every equation
    if not all(e.is_zero() for e in solved):
        raise ArithmeticError("constraint system should determine c and d")
    if d != -_A or c != _XI1:
        raise ArithmeticError(f"unexpected linear solution c = {c.terms}, d = {d.terms}")
    at_zero = SparsePoly(ZQ, {k: v for k, v in residual.terms.items() if k[4] == 0})  # xi1 = 0
    if at_zero != _A * _A - _XI2:
        raise ArithmeticError(f"unexpected residual at xi1 = 0: {at_zero.terms}")
    if residual != _A * _A + _B * _XI1 - _XI2:
        raise ArithmeticError(f"unexpected residual {residual.terms}")
    return {
        "system": {"d": "-a", "c": "xi1", "residual": "a**2 + b*xi1 - xi2 = 0"},
        "specialized": "a^2 = xi2 in GF(p)[xi2^(+-1)]",
        "solvable": False,
        "witness": (
            "for nonzero a = sum c_k xi2^k the extreme degrees of a^2 are "
            "2*max(k) and 2*min(k), both even (leading coefficients square "
            "to nonzero field elements); xi2 sits in the odd degree 1"
        ),
        "sanity": {"a=xi2": "a^2 = xi2^2 != xi2"},
    }


def square_has_even_extremes(coeff_exponents: dict, ring: FieldRing) -> bool:
    """Oracle for the parity witness: square a Laurent polynomial in xi2
    with integer coefficients over the field ring and check its support
    extremes are even."""
    poly = SparsePoly(ring, {(k,): ring.from_int(c) for k, c in coeff_exponents.items()})
    support = [k for (k,) in (poly * poly).terms]
    return not support or (min(support) % 2 == 0 and max(support) % 2 == 0)


# ---------------------------------------------------------------------------
# the twisted representation A2


def rep_A2(x: HeckeElement):
    """A2 on the h2 flavor: 4x4 block matrices (2 blocks of 2) over the
    localized invariant ring; A2(e_i T_w) = p_i o diag(Anil(T_w)) o perm(w)."""
    if x.flavor != "h2":
        raise ValueError("rep_A2 is defined on the h2 flavor")
    half(x.ring)  # raises outside odd characteristic, also on x = 0
    return krep.represent(A_NIL, x)


def a2_block(mat, i: int, j: int):
    return tuple(tuple(mat[2 * (i - 1) + r][2 * (j - 1) + s] for s in range(2)) for r in range(2))


# ---------------------------------------------------------------------------
# the 8-dimensional supersingular reduction


def reduce_regular_at_theta(theta, field_ring: FieldRing) -> FiniteModule:
    """The 8-dimensional module at a supersingular theta = (0, b): A2 at
    xi1' = 0 over E[xi2']/(xi2'^2 - b) (``krep.specialize``), in the basis
    [1_1, d1_1, x1_1, xd1_1, 1_2, d1_2, x1_2, xd1_2] (d = delta, x = xi2').
    The builder checks U^2 = b."""
    tau1, b = theta
    if not tau1.is_zero():
        raise ValueError("theta must be supersingular: theta(zeta1) = 0")
    if b.is_zero():
        raise ValueError("b must be nonzero")
    half(field_ring)  # raises outside odd characteristic
    MS, MU = krep.specialize(A_NIL, "h2", field_ring, tau1, b)
    return krep._rank2_module("h2", field_ring, MS, MU, b)


def explicit_chain(m: FiniteModule) -> list:
    """The preferred composition chain 0 < V2 < V4 < V6 < V8 from the
    basis vectors: V2 = <1_1, x1_2>, V4 = A1_1 + A1_2, V6 = V4 + <d1_1,
    xd1_2>, V8 everything.  Returned as RREF (rows, pivots) pairs, written
    directly: unit vectors in index order are their own RREF, pivoted at
    their indices.  ``quotient_module`` proves each member invariant."""
    e = linalg.mat_identity(m.ring.one, 8)
    members = ([0, 6], [0, 2, 4, 6], [0, 1, 2, 4, 6, 7], list(range(8)))
    return [(tuple(e[i] for i in pivots), pivots) for pivots in members]


def quotient_module(m: FiniteModule, big, small) -> FiniteModule:
    """The module big/small for subspaces small <= big, given in RREF: each
    generator acts by its ``linalg.quotient_action``, which proves big
    invariant modulo small or raises ArithmeticError, and U^2 by m's zeta2."""
    return FiniteModule(m.flavor, m.ring, tuple(linalg.quotient_action(m.gens, big, small)), m.zeta2)


def composition_series(m: FiniteModule, b) -> dict:
    """Composition series of the 8-dimensional module.

    The quotients of the explicit chain prove it invariant
    (``quotient_module`` raises ArithmeticError at the first member that
    is not); reports its dimensions and whether every subquotient is
    isomorphic to the standard rank-2 module L with U^2 = b, which it
    hands on as ``standard``.
    """
    chain = explicit_chain(m)
    factors = [quotient_module(m, big, small) for small, big in zip([((), [])] + chain, chain)]
    target = standard_module_h2(b, m.ring)
    return {
        "chain": chain,
        "dims": [len(rows) for rows, _ in chain],
        "factors": factors,
        "standard": target,
        "all_factors_standard": all(is_isomorphic(f, target) for f in factors),
    }


def socle(m: FiniteModule, simple: FiniteModule) -> tuple:
    """The sum of all submodules of m isomorphic to ``simple``, as RREF.

    It is the span of the images of a basis of Hom(simple, m).  When every
    composition factor of m is isomorphic to ``simple``, this is the socle
    of m."""
    homs = linalg.hom_space(simple.generator_matrices(), m.generator_matrices(), m.ring)
    return linalg.rref([tuple(row[j] for row in X) for X in homs for j in range(simple.dim)])


def semisimplify(m: FiniteModule, b) -> dict:
    """Structure report: the composition series, and the socle, which
    decides semisimplicity.

    When every composition factor is the standard module L with U^2 = b,
    ``socle(m, L)`` is the socle of m, and m is semisimple exactly when the
    socle is all of m (L is the series' ``standard``); otherwise
    ``semisimple`` is None.
    ``eigenvectors_in_4dim_stage`` says that the socle is the 4-dimensional
    stage, which is the joint kernel of S and S0 = U S U^-1: they kill L,
    and on their joint kernel the algebra acts through e1 and U alone, a
    copy of M_2(E)."""
    series = composition_series(m, b)
    soc = socle(m, series["standard"])
    return {
        **series,
        "socle": soc,
        "semisimple": len(soc[0]) == m.dim if series["all_factors_standard"] else None,
        # an RREF is unique, so equal subspaces have equal rows
        "eigenvectors_in_4dim_stage": soc[0] == series["chain"][1][0],
    }

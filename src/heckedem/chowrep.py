"""Chow-side Demazure representations of the nil Hecke algebra.

2x2 matrices over the invariant subring of Z[eta1, eta2] localized at
xi2' = eta1*eta2, with respect to the basis {1, delta}, delta =
(eta1 - eta2)/2 (p odd).  Over GF(p):

    Anil(S) = [[0, -1], [0, 0]]
    Anil(U) = [[xi1^2/2 - xi2, -xi1(xi1^2/4 - xi2)], [xi1, -(xi1^2/2 - xi2)]]

The center maps by zeta1 -> -xi1, zeta2 -> xi2^2.  A naive extension with
U^2 = xi2 is impossible: the constraint system forces a^2 = xi2 at
xi1 = 0, which has no solution in GF(p)[xi2^{+-1}] by degree parity.

The twisted representation A2 acts on two copies of the rank-2 free
module (one per component of the doubled flag variety) by
A2(e_i T_w) = p_i o diag(Anil(T_w)) o perm(w).  Specializing at a
supersingular central character theta with theta(zeta2) = b yields the
8-dimensional module over A = E[xi2]/(xi2^2 - b), with composition
series of dimensions [2, 4, 6, 8] and four isomorphic simple factors.
"""

from __future__ import annotations

from . import linalg
from .charrings import FieldRing, SymElement, decompose_ch, delta_ch, xi1_ch, xi2_ch
from .hecke import HeckeElement
from .krep import (
    FiniteModule,
    basis_matrices,
    identity2,
    invariant_matrix_flatten,
    is_isomorphic,
    rep_over_center,
    standard_module_h2,
)
from .weyl import act_on_index


# ---------------------------------------------------------------------------
# the rank-2 representation of the nil algebra


def sym_identity(ring):
    return identity2(SymElement, ring)


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
    half = ring.from_int(2).inverse()
    quarter = half * half
    x1 = xi1_ch(ring)
    x2 = xi2_ch(ring)
    a = (x1 * x1).scale(half) - x2
    b = -(x1 * ((x1 * x1).scale(quarter) - x2))
    c = x1
    return ((a, b), (c, -a))


def rep_Anil(x: HeckeElement):
    """The representation Anil on a general nil-flavor element over GF(p);
    the center maps by zeta1 -> -xi1, zeta2 -> xi2^2."""
    if x.flavor != "nil":
        raise ValueError("rep_Anil is defined on the nil flavor")
    ring = x.ring
    if not ring.is_field or ring.from_int(2).is_zero():
        raise ValueError("Anil needs a coefficient field of odd characteristic")
    return rep_over_center(
        x, SymElement, rep_A0nil_S(ring), rep_Anil_U(ring), -xi1_ch(ring), lambda k: xi2_ch(ring, 2 * k)
    )


def eta1_squared_s_matrix(ring: FieldRing):
    """The matrix of a -> eta1^2 * s(a) on the basis {1, delta}.

    Cross-check: this operator coincides with Anil(U)."""
    eta1_sq = SymElement.monomial(ring, 2, 0)
    cols = []
    for basis_vec in (SymElement.one(ring), delta_ch(ring)):
        image = eta1_sq * basis_vec.s_action()
        cols.append(decompose_ch(image))
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


def nil_independence_determinant(ring: FieldRing) -> SymElement:
    """Determinant of the 4x4 coordinate matrix of {1, Anil(S), Anil(U),
    Anil(SU)} over the (localized) invariant ring, a domain."""
    mats = basis_matrices(SymElement, ring, rep_A0nil_S(ring), rep_Anil_U(ring))
    return linalg.det(invariant_matrix_flatten(mats))


# ---------------------------------------------------------------------------
# the naive-extension obstruction


def check_naive_obstruction() -> dict:
    """Derive the constraint system for a naive U with U^2 = xi2 and
    US + SU = -xi1 over S = [[0,-1],[0,0]], then refute it at xi1 = 0.

    The surviving equation a^2 = xi2 has no solution in GF(p)[xi2^{+-1}]:
    squares have even extreme degrees while xi2 is concentrated in the
    odd degree 1.  Checks of the derivation raise ArithmeticError.
    """
    import sympy  # imported here: nothing else needs it, and it dominates import time

    a, b, c, d, x1, x2 = sympy.symbols("a b c d xi1 xi2")
    S = sympy.Matrix([[0, -1], [0, 0]])
    U = sympy.Matrix([[a, b], [c, d]])
    anti = U * S + S * U + x1 * sympy.eye(2)
    square = U * U - x2 * sympy.eye(2)
    linear_eqs = [anti[i, j] for i in range(2) for j in range(2)]
    linear_eqs += [square[0, 1], square[1, 0]]
    sol = sympy.solve(linear_eqs, [c, d], dict=True)
    if len(sol) != 1:
        raise ArithmeticError("constraint system should determine c and d")
    sol = sol[0]
    if sol[d] != -a or sol[c] != x1:
        raise ArithmeticError(f"unexpected linear solution {sol}")
    residual = sympy.expand(square[0, 0].subs(sol))  # a^2 + b*xi1 - xi2
    at_zero = residual.subs(x1, 0)  # a^2 - xi2
    if at_zero != a**2 - x2:
        raise ArithmeticError(f"unexpected residual at xi1 = 0: {at_zero}")
    return {
        "system": {"d": "-a", "c": "xi1", "residual": str(residual) + " = 0"},
        "specialized": "a^2 = xi2 in GF(p)[xi2^(+-1)]",
        "solvable": False,
        "witness": (
            "for nonzero a = sum c_k xi2^k the extreme degrees of a^2 are "
            "2*max(k) and 2*min(k), both even (leading coefficients square "
            "to nonzero field elements); xi2 sits in the odd degree 1"
        ),
        "sanity": {"a=xi2": "a^2 = xi2^2 != xi2"},
    }


def square_has_even_extremes(coeff_exponents: dict, p: int) -> bool:
    """Oracle for the parity witness: square a Laurent polynomial in xi2
    over GF(p) and check its support extremes are even."""
    out: dict = {}
    for k1, c1 in coeff_exponents.items():
        for k2, c2 in coeff_exponents.items():
            out[k1 + k2] = (out.get(k1 + k2, 0) + c1 * c2) % p
    support = [k for k, c in out.items() if c]
    if not support:
        return True
    return min(support) % 2 == 0 and max(support) % 2 == 0


# ---------------------------------------------------------------------------
# the twisted representation A2


def rep_A2(x: HeckeElement):
    """A2 on the h2 flavor: 4x4 block matrices (2 blocks of 2) over the
    localized invariant ring; A2(e_i T_w) = p_i o diag(Anil(T_w)) o perm(w)."""
    if x.flavor != "h2":
        raise ValueError("rep_A2 is defined on the h2 flavor")
    ring = x.ring
    zero = SymElement.zero(ring)
    out = [[zero] * 4 for _ in range(4)]
    for (i, w), c in x.terms.items():
        shadow = HeckeElement.basis("nil", ring, w, coeff=c)
        N = rep_Anil(shadow)
        # column block j such that perm(w) routes component j into i
        j = act_on_index(w, i)
        r0, c0 = 2 * (i - 1), 2 * (j - 1)
        for r in range(2):
            for s in range(2):
                out[r0 + r][c0 + s] = out[r0 + r][c0 + s] + N[r][s]
    return tuple(tuple(row) for row in out)


def a2_block(mat, i: int, j: int):
    return tuple(tuple(mat[2 * (i - 1) + r][2 * (j - 1) + s] for s in range(2)) for r in range(2))


def a2_is_zero(mat) -> bool:
    return all(entry.is_zero() for row in mat for entry in row)


# ---------------------------------------------------------------------------
# the 8-dimensional supersingular reduction


def reduce_regular_at_theta(theta, field_ring: FieldRing) -> FiniteModule:
    """The 8-dimensional module at a supersingular theta = (0, b).

    Basis order: [1_1, d1_1, x1_1, xd1_1, 1_2, d1_2, x1_2, xd1_2] where
    d = delta and x = xi2 with x^2 = b.  Generator actions are A-linear
    extensions of S.1_i = 0, S.(d 1_i) = -1_{si}, U.1_i = -x 1_{si},
    U.(d 1_i) = x d 1_{si}.
    """
    tau1, b = theta
    if not tau1.is_zero():
        raise ValueError("theta must be supersingular: theta(zeta1) = 0")
    if b.is_zero():
        raise ValueError("b must be nonzero")
    ring = field_ring
    zero, one = ring.zero, ring.one

    def mat_from_action(action):
        # action: basis index -> list of (index, coeff); columns convention
        cols = [action(j) for j in range(8)]
        M = [[zero] * 8 for _ in range(8)]
        for j, img in enumerate(cols):
            for idx, coeff in img:
                M[idx][j] = M[idx][j] + coeff
        return tuple(tuple(row) for row in M)

    # index layout: block i in {0,1} for components 1,2; within a block:
    # 0: 1_i, 1: d1_i, 2: x1_i, 3: xd1_i
    def other(blk):
        return 1 - blk

    def s_action(j):
        blk, pos = divmod(j, 4)
        if pos == 1:  # d1_i -> -1_{si}
            return [(4 * other(blk) + 0, -one)]
        if pos == 3:  # x d1_i -> -x 1_{si}
            return [(4 * other(blk) + 2, -one)]
        return []

    def u_action(j):
        blk, pos = divmod(j, 4)
        o = 4 * other(blk)
        if pos == 0:  # 1_i -> -x 1_{si}
            return [(o + 2, -one)]
        if pos == 1:  # d1_i -> x d1_{si}
            return [(o + 3, one)]
        if pos == 2:  # x 1_i -> -x^2 1_{si} = -b 1_{si}
            return [(o + 0, -b)]
        return [(o + 1, b)]  # x d1_i -> b d1_{si}

    def e_action(which):
        def act(j):
            blk = j // 4
            return [(j, one)] if blk == which else []

        return act

    MS = mat_from_action(s_action)
    MU = mat_from_action(u_action)
    MUinv = linalg.mat_scale(MU, b.inverse())
    E1 = mat_from_action(e_action(0))
    E2 = mat_from_action(e_action(1))
    mod = FiniteModule(
        flavor="h2",
        ring=ring,
        dim=8,
        gens=(("e1", E1), ("e2", E2), ("S", MS), ("U", MU), ("Uinv", MUinv)),
        labels=("1_1", "d1_1", "x1_1", "xd1_1", "1_2", "d1_2", "x1_2", "xd1_2"),
    )
    mod.validate()
    # the quadratic constant: xi2^2 acts as b
    if linalg.mat_mul(MU, MU) != linalg.mat_scale(linalg.mat_identity(ring, 8), b):
        raise ArithmeticError("U^2 != b on the 8-dimensional module")
    return mod


def _unit_vector(ring, n: int, i: int):
    return tuple(ring.one if j == i else ring.zero for j in range(n))


def explicit_chain(m: FiniteModule) -> list:
    """The preferred composition chain 0 < V2 < V4 < V6 < V8 from the
    basis vectors: V2 = <1_1, x1_2>, V4 = A1_1 + A1_2, V6 = V4 + <d1_1,
    xd1_2>, V8 everything.  Returned as RREF (rows, pivots) pairs."""
    ring = m.ring
    e = lambda i: _unit_vector(ring, 8, i)
    chains = [
        [e(0), e(6)],
        [e(0), e(2), e(4), e(6)],
        [e(0), e(2), e(4), e(6), e(1), e(7)],
        [e(i) for i in range(8)],
    ]
    return [linalg.rref(rows) for rows in chains]


def quotient_module(m: FiniteModule, big, small) -> FiniteModule:
    """The module big/small for invariant subspaces small <= big.

    Quotient basis: rows of big whose pivot is not a pivot of small.
    """
    ring = m.ring
    big_rows, big_piv = big
    small_rows, small_piv = small
    q_basis = [r for r, p in zip(big_rows, big_piv) if p not in small_piv]
    dim = len(q_basis)
    cols = [list(v) for v in q_basis] + [list(v) for v in small_rows]

    def induced(M):
        out = [[ring.zero] * dim for _ in range(dim)]
        for j, v in enumerate(q_basis):
            w = linalg.mat_vec(M, v)
            sol = linalg.solve_columns(cols, w, ring)
            if sol is None:
                raise ValueError("subspace is not invariant")
            for i in range(dim):
                out[i][j] = sol[i]
        return tuple(tuple(row) for row in out)

    gens = tuple((name, induced(mat)) for name, mat in m.gens)
    return FiniteModule(flavor=m.flavor, ring=ring, dim=dim, gens=gens)


def composition_series(m: FiniteModule, b) -> dict:
    """Composition series of the 8-dimensional module.

    Verifies the explicit chain is invariant, has dimensions [2,4,6,8],
    and that every subquotient is isomorphic to the standard rank-2
    module with U^2 = b.
    """
    ring = m.ring
    ops = m.generator_matrices()
    chain = explicit_chain(m)
    dims = []
    for rows, piv in chain:
        spun = linalg.spin(list(rows), ops, ring)
        if spun[0] != rows:
            raise AssertionError("chain member is not an invariant subspace")
        dims.append(len(rows))
    target = standard_module_h2(b, ring)
    factors = []
    prev = ((), [])
    for stage in chain:
        fac = quotient_module(m, stage, prev)
        factors.append(fac)
        prev = stage
    all_std = all(is_isomorphic(f, target) for f in factors)
    return {
        "chain": chain,
        "dims": dims,
        "factors": factors,
        "all_factors_standard": all_std,
    }


def affine_eigenvectors_in(m: FiniteModule, sub) -> tuple:
    """The space of vectors in the subspace killed by S and S0 = U S U^{-1},
    in ambient coordinates (RREF)."""
    ring = m.ring
    d = m.gen_dict()
    S = d["S"]
    S0 = linalg.mat_mul(linalg.mat_mul(d["U"], S), d["Uinv"])
    rows, _ = sub
    k = len(rows)
    constraint = []
    for op in (S, S0):
        images = [linalg.mat_vec(op, v) for v in rows]
        for coord in range(m.dim):
            constraint.append(tuple(images[j][coord] for j in range(k)))
    null = linalg.nullspace(tuple(constraint), ring)
    ambient = []
    for comb in null:
        v = [ring.zero] * m.dim
        for c, basis_vec in zip(comb, rows):
            for i in range(m.dim):
                v[i] = v[i] + c * basis_vec[i]
        ambient.append(tuple(v))
    return linalg.rref(ambient)


def semisimplify(m: FiniteModule, b) -> dict:
    """Semisimplification report: four standard factors, and a proof that
    the module is not semisimple.

    In the 6-dimensional stage the joint kernel of the affine generators
    S and S0 is exactly the 4-dimensional stage; a direct sum of standard
    modules would be killed by S entirely, so no complement exists.
    """
    series = composition_series(m, b)
    chain = series["chain"]
    eig = affine_eigenvectors_in(m, chain[2])
    inside_v4 = linalg.subspace_eq(eig, chain[1])
    return {
        "factors": series["factors"],
        "all_factors_standard": series["all_factors_standard"],
        "dims": series["dims"],
        "semisimple": False if inside_v4 else None,
        "eigenvectors_in_4dim_stage": inside_v4,
    }


def reduced_spin_seeds(ring, dim: int = 8):
    """Spinning seeds: the dim basis lines e_i plus every e_i + c*e_j with
    i < j and c in E^x, so dim + C(dim, 2)*(|E| - 1) vectors.  For dim = 8
    over E = GF(q^2) that is 8 + 28(q^2 - 1), 232 at q = 3.

    Exhausting all of E^8 is out of reach.  The set makes no claim to
    meet every submodule: the chain checks verify separately that the
    members of the explicit composition chain are among the spun
    subspaces."""
    elements = ring.tower.ext_elements()[1:]
    seeds = []
    for i in range(dim):
        seeds.append(_unit_vector(ring, dim, i))
    for i in range(dim):
        for j in range(i + 1, dim):
            for c in elements:
                v = list(_unit_vector(ring, dim, i))
                v[j] = c
                seeds.append(tuple(v))
    return seeds

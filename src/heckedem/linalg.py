"""Exact linear algebra.

Matrices are tuples of tuples; vectors are tuples.  The matrix helpers
(identity, sum, scaling, product, determinant) work over any ring whose
elements support +, - and *: finite fields, and the group, symmetric,
center and Hecke rings.  Row reduction, rank, nullspace, solving,
invariant-subspace spinning and the intertwiner search for module
isomorphism need a field.  Everything is deterministic and exact.
"""

from __future__ import annotations

from itertools import product

# largest number of candidates the intertwiner scan will try: (q^2)^d for
# a d-dimensional solution space over GF(q^2)
MAX_INTERTWINER_SCAN = 1 << 22


def mat_identity(ring, n: int):
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n)
    )


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(A, c):
    return tuple(tuple(c * a for a in row) for row in A)


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for t in range(1, k):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(A, v):
    return tuple(
        _dot(row, v) for row in A
    )


def _dot(row, v):
    acc = row[0] * v[0]
    for a, b in zip(row[1:], v[1:]):
        acc = acc + a * b
    return acc


def det(M):
    """Determinant by cofactor expansion along the first row (no division)."""
    if len(M) == 1:
        return M[0][0]
    terms = [a * det(tuple(row[:j] + row[j + 1 :] for row in M[1:])) for j, a in enumerate(M[0])]
    acc = terms[0]
    for j in range(1, len(terms)):
        acc = acc - terms[j] if j % 2 else acc + terms[j]
    return acc


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    if not rows:
        return (), []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    out = [tuple(row) for row in rows[:r]]
    return tuple(out), pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(A, ring):
    """Basis of {v : A v = 0}, as tuples."""
    if not A:
        return []
    ncols = len(A[0])
    R, pivots = rref(A)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ring.zero] * ncols
        v[fc] = ring.one
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fc]
        basis.append(tuple(v))
    return basis


def is_invertible(A, ring) -> bool:
    return rank(A) == len(A)


def solve_columns(cols, target, ring):
    """Solve sum_j x_j cols[j] = target; returns x or None."""
    n, m = len(target), len(cols)
    aug = tuple(tuple([cols[j][i] for j in range(m)] + [target[i]]) for i in range(n))
    R, pivots = rref(aug)
    if m in pivots:
        return None
    x = [ring.zero] * m
    for row, p in zip(R, pivots):
        x[p] = row[m]
    return tuple(x)


def row_space_contains(basis_rref, v) -> bool:
    """Does v lie in the row space given in RREF with known pivots?"""
    rows, pivots = basis_rref
    v = list(v)
    for row, p in zip(rows, pivots):
        if not v[p].is_zero():
            c = v[p]
            v = [x - c * y for x, y in zip(v, row)]
    return all(x.is_zero() for x in v)


def spin(seeds, operators, ring):
    """Smallest subspace containing the seeds and stable under the operators.

    Returns the subspace in RREF form: (rows, pivots).
    """
    rows, pivots = rref(list(seeds))
    queue = list(rows)
    while queue:
        v = queue.pop()
        for op in operators:
            w = mat_vec(op, v)
            if not row_space_contains((rows, pivots), w):
                rows, pivots = rref(list(rows) + [w])
                queue.append(w)
    return rows, pivots


def subspace_eq(a, b) -> bool:
    """Equality of subspaces given as RREF (rows, pivots) pairs."""
    return a[0] == b[0]


def solve_intertwiner(gens1, gens2, ring):
    """Find an invertible X with X A = B X for all generator pairs (A, B).

    gens1 and gens2 are parallel lists of n x n matrices over GF(q^2).
    The solution space of the linear constraints is computed exactly; then
    all projective combinations of its basis are scanned for
    invertibility.  Returns X or None; raises ValueError when the scan
    would exceed MAX_INTERTWINER_SCAN candidates.
    """
    n = len(gens1[0])
    # unknown X with entries x[i*n+j]; constraint (X A - B X)[i][j] = 0
    rows = []
    for A, B in zip(gens1, gens2):
        for i in range(n):
            for j in range(n):
                row = [ring.zero] * (n * n)
                # (X A)[i][j] = sum_k x[i][k] A[k][j]
                for k in range(n):
                    row[i * n + k] = row[i * n + k] + A[k][j]
                # (B X)[i][j] = sum_k B[i][k] x[k][j]
                for k in range(n):
                    row[k * n + j] = row[k * n + j] - B[i][k]
                rows.append(tuple(row))
    basis = nullspace(tuple(rows), ring)
    if not basis:
        return None
    elements = ring.tower.ext_elements()
    d = len(basis)
    if len(elements) ** d > MAX_INTERTWINER_SCAN:
        raise ValueError("intertwiner solution space too large for an exhaustive scan")
    # projective scan: first nonzero coordinate normalized to 1
    for lead in range(d):
        tails = product(elements, repeat=d - lead - 1)
        for tail in tails:
            coeffs = (ring.zero,) * lead + (ring.one,) + tail
            X = [[ring.zero] * n for _ in range(n)]
            for c, vec in zip(coeffs, basis):
                if c.is_zero():
                    continue
                for i in range(n):
                    for j in range(n):
                        X[i][j] = X[i][j] + c * vec[i * n + j]
            Xt = tuple(tuple(r) for r in X)
            if is_invertible(Xt, ring):
                return Xt
    return None

"""Exact linear algebra.

Matrices are tuples of tuples; vectors are tuples.  The matrix helpers
(identity, sum, scaling, product, determinant) work over any ring whose
elements support +, - and * and have ``is_zero``: finite fields, and the
group, symmetric, center and Hecke rings.  Operators are applied through
their nonzero pattern (``nonzeros``), built once per matrix by the call
that applies it: ``mat_vec`` and ``mat_mul`` multiply only nonzero
entries, and Hom-space constraints are written from them.  Row reduction,
rank, nullspace, remainders against an echelon basis, invariant-subspace
spinning, Hom spaces between modules and isomorphism from a Hom space of
dimension at most 1 need a field; every echelon form is grown by one
insertion step.  Everything is deterministic and exact.
"""

from __future__ import annotations


def mat_identity(ring, n: int):
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n)
    )


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(A, c):
    return tuple(tuple(c * a for a in row) for row in A)


def nonzeros(A):
    """The nonzero pattern of A: for each row, its (column, entry) pairs
    whose entry is nonzero."""
    return [[(j, a) for j, a in enumerate(row) if not a.is_zero()] for row in A]


def mat_mul(A, B):
    """A B, multiplying only the nonzero entries of each row of A.

    A row of A with no nonzero entry gives A[i][0] * B[0][j], a zero of
    the ring's own element type."""
    cols = range(len(B[0]))
    out = []
    for i, terms in enumerate(nonzeros(A)):
        (t0, a0), *rest = terms or [(0, A[i][0])]
        row = []
        for j in cols:
            acc = a0 * B[t0][j]
            for t, a in rest:
                acc = acc + a * B[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(P, v, zero):
    """A v for the pattern P = ``nonzeros(A)``.

    Each row sums entry * v[column] over its terms whose vector entry is
    nonzero; a row with no such term gives ``zero``."""
    out = []
    for terms in P:
        acc = None
        for j, a in terms:
            x = v[j]
            if not x.is_zero():
                acc = a * x if acc is None else acc + a * x
        out.append(zero if acc is None else acc)
    return tuple(out)


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
    """Reduced row echelon form, the rows inserted one at a time by
    ``_insert``; returns (rows, pivot column list)."""
    basis, pivots = [], []
    for v in rows:
        _insert(basis, pivots, v)
    return tuple(map(tuple, basis)), pivots


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


def is_invertible(A) -> bool:
    return rank(A) == len(A)


def remainder(basis_rref, v) -> list:
    """v minus its multiples of the RREF rows, taken at their pivot columns:
    zero at every pivot, and all zero iff v lies in their row space."""
    rows, pivots = basis_rref
    v = list(v)
    for row, p in zip(rows, pivots):
        c = v[p]
        if not c.is_zero():
            v = [x - c * y for x, y in zip(v, row)]
    return v


def row_space_contains(basis_rref, v) -> bool:
    """Does v lie in the row space given in RREF with known pivots?"""
    return all(x.is_zero() for x in remainder(basis_rref, v))


def _insert(rows, pivots, v) -> bool:
    """Extend the RREF basis held in the lists (rows, pivots) by v in place.

    A nonzero ``remainder`` of v, scaled to a leading 1, is cleared from
    the other rows at its pivot column and inserted in pivot order.
    Returns False, changing nothing, when v is already in the span.
    Rows are lists while the basis grows, since a tuple per elimination
    step would fill the interpreter's tuple free list; callers return tuples.
    """
    r = remainder((rows, pivots), v)
    c = next((j for j, x in enumerate(r) if not x.is_zero()), None)
    if c is None:
        return False
    inv = r[c].inverse()
    r = [x * inv for x in r]
    for i, row in enumerate(rows):
        factor = row[c]
        if not factor.is_zero():
            rows[i] = [x - factor * y for x, y in zip(row, r)]
    at = sum(p < c for p in pivots)
    rows.insert(at, r)
    pivots.insert(at, c)
    return True


def spin(seeds, operators, ring):
    """Smallest subspace containing the seeds and stable under the operators.

    Returns the subspace in RREF form: (rows, pivots).  Every vector that
    ``_insert`` adds to the echelon basis is queued for the operators,
    which are applied through their nonzero patterns.
    """
    patterns, zero = [nonzeros(op) for op in operators], ring.zero
    rows, pivots = [], []
    queue = [v for v in seeds if _insert(rows, pivots, v)]
    while queue:
        v = queue.pop()
        for P in patterns:
            w = mat_vec(P, v, zero)
            if _insert(rows, pivots, w):
                queue.append(w)
    return tuple(map(tuple, rows)), pivots


def subspace_eq(a, b) -> bool:
    """Equality of subspaces given as RREF (rows, pivots) pairs."""
    return a[0] == b[0]


def hom_space(gens1, gens2, ring):
    """Basis of {X : X A = B X for every generator pair (A, B)}.

    gens1 and gens2 are parallel lists of n1 x n1 and n2 x n2 matrices over
    a field, the actions of the same generators on two modules M1 and M2
    (ValueError when the lists differ in length); each basis element X is
    an n2 x n1 matrix, and together they span Hom(M1, M2).  The
    constraints are linear in the entries of X, so the space is one
    nullspace; each constraint row is written from the nonzero entries of
    A and B alone.
    """
    n1, n2, zero = len(gens1[0]), len(gens2[0]), ring.zero
    # unknown X with entries x[i*n1+j]; constraint (X A - B X)[i][j] = 0
    rows = []
    for A, B in zip(gens1, gens2, strict=True):
        A_cols, B_rows = nonzeros(zip(*A)), nonzeros(B)
        for i in range(n2):
            for j in range(n1):
                row = [zero] * (n2 * n1)
                # (X A)[i][j] = sum_k x[i][k] A[k][j]
                for k, a in A_cols[j]:
                    row[i * n1 + k] = row[i * n1 + k] + a
                # (B X)[i][j] = sum_k B[i][k] x[k][j]
                for k, b in B_rows[i]:
                    row[k * n1 + j] = row[k * n1 + j] - b
                rows.append(tuple(row))
    return [tuple(v[i * n1 : (i + 1) * n1] for i in range(n2)) for v in nullspace(tuple(rows), ring)]


def solve_intertwiner(gens1, gens2, ring):
    """Find an invertible X with X A = B X for all generator pairs (A, B).

    gens1 and gens2 are parallel lists of n x n matrices over a field.
    Returns X or None, read off ``hom_space``: when it is at most
    1-dimensional every intertwiner is a multiple of its basis element, so
    an invertible one exists exactly when that element is invertible.
    Raises ValueError on a Hom space of dimension 2 or more, which Schur's
    lemma rules out when one side is absolutely simple."""
    basis = hom_space(gens1, gens2, ring)
    if len(basis) > 1:
        raise ValueError(f"Hom space has dimension {len(basis)}; isomorphism is decided only up to dimension 1")
    if basis and is_invertible(basis[0]):
        return basis[0]
    return None

"""Exact linear algebra.

Matrices are tuples of tuples in every public signature, and so are the
rows of the RREF (rows, pivots) pairs returned.  The matrix helpers
(identity, sum, scaling, product, determinant) work over any ring whose
elements support +, - and * and have ``is_zero``; ``mat_mul`` multiplies
only the nonzero entries of each row of its left factor (``nonzeros``).

Row reduction, rank, nullspace, remainders against an echelon basis,
invariant-subspace spinning, Hom spaces between modules and isomorphism
from a Hom space of dimension at most 1 need a field.  They share one
sparse echelon core: vectors and echelon rows are {column: nonzero entry}
dicts (``sparse``), every echelon form is grown by one insertion step
(``_insert``), and a row operation touches only the entries of the row it
subtracts.  ``mat_vec`` applies an operator through its column pattern
(``nonzeros(zip(*A))``), summing only over the support of the vector.
``spin`` keeps the column patterns of the operator list of its last call,
reused while every matrix in the list is the same object, so spinning
many seeds under one module's generators builds them once.  Hom-space
constraint rows are written sparse from the nonzero entries of the
generators.  Everything is deterministic and exact.
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


def mat_vec(C, v) -> dict:
    """A v for the column pattern C = ``nonzeros(zip(*A))`` and v given as
    {column: nonzero entry}.

    Sums entry * v[column] over the support of v only; the product comes
    back in the same sparse form, entries that cancel dropped."""
    out = {}
    for j, x in v.items():
        for i, a in C[j]:
            y = out.get(i)
            if y is None:
                out[i] = a * x
            else:
                y = y + a * x
                if y.is_zero():
                    del out[i]
                else:
                    out[i] = y
    return out


def det(M):
    """Determinant by cofactor expansion along the first row (no division)."""
    if len(M) == 1:
        return M[0][0]
    terms = [a * det(tuple(row[:j] + row[j + 1 :] for row in M[1:])) for j, a in enumerate(M[0])]
    acc = terms[0]
    for j in range(1, len(terms)):
        acc = acc - terms[j] if j % 2 else acc + terms[j]
    return acc


def sparse(v) -> dict:
    """v as {column: nonzero entry}; a dict is taken to be in that form already."""
    if isinstance(v, dict):
        return v
    return {j: x for j, x in enumerate(v) if not x.is_zero()}


def _dense(rows, n, zero) -> tuple:
    cols = range(n)
    return tuple(tuple([row.get(j, zero) for j in cols]) for row in rows)


def rref(rows):
    """Reduced row echelon form, the rows inserted one at a time by
    ``_insert``; returns (rows, pivot column list)."""
    basis, pivots = [], []
    for v in rows:
        _insert(basis, pivots, sparse(v))
    if not basis:
        return (), pivots
    one = basis[0][pivots[0]]
    return _dense(basis, len(rows[0]), one - one), pivots  # rref takes no ring: its zero is 1 - 1


def rank(rows) -> int:
    return len(rref(rows)[0])


def _kernel(vectors, ncols, ring) -> list:
    """Basis of {v : r . v = 0 for every given row r}, rows and basis
    vectors as {column: entry} dicts: one basis vector per free column."""
    rows, pivots = [], []
    for v in vectors:
        _insert(rows, pivots, v)
    taken = set(pivots)
    basis = {c: {c: ring.one} for c in range(ncols) if c not in taken}
    # an RREF row is zero at the other pivots, so every other column it has is free
    for row, pc in zip(rows, pivots):
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    return list(basis.values())


def nullspace(A, ring):
    """Basis of {v : A v = 0}, as tuples."""
    if not A:
        return []
    ncols = len(A[0])
    return list(_dense(_kernel(map(sparse, A), ncols, ring), ncols, ring.zero))


def is_invertible(A) -> bool:
    return rank(A) == len(A)


def _clear(v, p, row) -> None:
    """Subtract v[p] times row from v in place, over the entries of row,
    where row is 1 at its pivot p; entries that cancel are dropped."""
    m = -v.pop(p)
    for j, y in row.items():
        if j != p:
            x = v.get(j)
            if x is None:
                v[j] = m * y
            else:
                x = x + m * y
                if x.is_zero():
                    del v[j]
                else:
                    v[j] = x


def _reduce(rows, pivots, v) -> dict:
    """v minus its multiples of the RREF rows, taken at their pivot columns,
    as a new dict; rows and v are {column: entry} dicts."""
    v = dict(v)
    for row, p in zip(rows, pivots):
        if p in v:
            _clear(v, p, row)
    return v


def remainder(basis_rref, v) -> dict:
    """v minus its multiples of the RREF rows, taken at their pivot columns:
    zero at every pivot, and empty iff v lies in their row space.

    Rows (all of one kind) and v may be tuples or {column: entry} dicts;
    tuple rows are converted once, on entry.  The remainder is a new dict
    of its nonzero entries."""
    rows, pivots = basis_rref
    if rows and not isinstance(rows[0], dict):
        rows = [sparse(row) for row in rows]
    return _reduce(rows, pivots, sparse(v))


def row_space_contains(basis_rref, v) -> bool:
    """Does v lie in the row space given in RREF with known pivots?"""
    return not remainder(basis_rref, v)


def _insert(rows, pivots, v) -> bool:
    """Extend the RREF basis held in the lists (rows, pivots) by v in place.

    Rows and v are {column: entry} dicts.  A nonzero remainder of v,
    scaled to a leading 1, is cleared from the other rows at its pivot
    column and inserted in pivot order.  Returns False, changing nothing,
    when v is already in the span.
    """
    r = _reduce(rows, pivots, v)
    if not r:
        return False
    c = min(r)
    inv = r[c].inverse()
    r = {j: x * inv for j, x in r.items()}
    for row in rows:
        if c in row:
            _clear(row, c, r)
    at = sum(p < c for p in pivots)
    rows.insert(at, r)
    pivots.insert(at, c)
    return True


# the operator list of the last spin, held by reference, and its column patterns
_PATTERNS = [(), []]


def _column_patterns(operators) -> list:
    """Column patterns of the operators, reused while every matrix is the
    same object as in the last call (matrices are immutable tuples, and the
    memo keeps them alive, so the same object is the same matrix)."""
    ops, patterns = _PATTERNS
    if len(ops) != len(operators) or not all(a is b for a, b in zip(ops, operators)):
        ops = tuple(operators)
        patterns = [nonzeros(zip(*A)) for A in ops]
        _PATTERNS[:] = ops, patterns
    return patterns


def spin(seeds, operators, ring):
    """Smallest subspace containing the seeds and stable under the operators.

    Returns the subspace in RREF form: (rows, pivots).  Every vector that
    ``_insert`` adds to the echelon basis is queued for the operators,
    which are applied through their column patterns.
    """
    patterns = _column_patterns(operators)
    rows, pivots = [], []
    queue = [v for v in map(sparse, seeds) if _insert(rows, pivots, v)]
    while queue:
        v = queue.pop()
        for C in patterns:
            w = mat_vec(C, v)
            if _insert(rows, pivots, w):
                queue.append(w)
    return _dense(rows, len(seeds[0]) if rows else 0, ring.zero), pivots


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
    kernel; each constraint row is written sparse, from the nonzero
    entries of A and B alone.
    """
    n1, n2 = len(gens1[0]), len(gens2[0])
    # unknown X with entries x[i*n1+j]; constraint (X A - B X)[i][j] = 0
    rows = []
    for A, B in zip(gens1, gens2, strict=True):
        A_cols, B_rows = nonzeros(zip(*A)), nonzeros(B)
        for i in range(n2):
            for j in range(n1):
                # (X A)[i][j] = sum_k x[i][k] A[k][j]
                row = {i * n1 + k: a for k, a in A_cols[j]}
                # (B X)[i][j] = sum_k B[i][k] x[k][j]
                for k, b in B_rows[i]:
                    x = row.get(k * n1 + j)
                    row[k * n1 + j] = -b if x is None else x - b
                rows.append({c: x for c, x in row.items() if not x.is_zero()})
    zero = ring.zero
    return [
        tuple(tuple(v.get(i * n1 + j, zero) for j in range(n1)) for i in range(n2))
        for v in _kernel(rows, n1 * n2, ring)
    ]


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

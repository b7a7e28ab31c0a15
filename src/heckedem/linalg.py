"""Exact linear algebra.

Matrices are tuples of tuples in every public signature, and so are the
rows of the RREF (rows, pivots) pairs returned.  A ``Matrix`` is such a
tuple that keeps its nonzero pattern by column (``nonzeros``) once read.
Module builders (``krep._rank2_module``, ``quotient_action``) return
Matrix objects; ``pattern`` is the one reader, through which ``mat_mul``,
``spin``, ``algebra_dim``, ``quotient_action``, ``hom_space`` and the
builders' relation checks (``krep.FiniteModule.validate``) take patterns,
and it makes any other tuple a Matrix first.  The matrix
helpers (identity, zero test, sum, scaling, product, determinant) work
over any ring whose elements support +, - and * and have ``is_zero``;
``mat_mul`` multiplies only the nonzero entries of both factors.

Row reduction, rank, remainders against an echelon basis, spinning, the
dimension of the algebra that matrices generate, the action induced on a
quotient, Hom spaces between modules and isomorphism from a Hom space of
dimension at most 1 need a field.  They share one sparse echelon core:
vectors and echelon rows are {column: nonzero entry} dicts (``sparse``),
every echelon form is grown by one insertion step (``_insert``), and
every row operation is one loop (``_reduce``) that subtracts pivot rows
from a dict in place, touching only the entries of the rows it
subtracts.  ``_insert`` reduces the vector it is given in place, so
``_span`` queues remainders, and ``remainder`` and ``spin`` work on
copies, so no caller's vector changes.  Every
sparse sum of the package (echelon rows, and the term dicts of
``charrings``, ``hecke``, ``krep`` and ``verify``) goes through
``accumulate``, kept here as this module imports nothing from the package.
``mat_vec`` applies an operator through its pattern, summing only over
the support of the vector.  ``spin`` and ``algebra_dim`` share one
spinning loop (``_span``), which stops once the span is the whole space;
``algebra_dim`` spins the identity under X -> A X, whose pattern it reads
off A's own, so no n^2 x n^2 matrix is built.  Everything is
deterministic and exact.
"""

from __future__ import annotations

from bisect import bisect_left


def accumulate(out: dict, key, c) -> None:
    """Add the nonzero c into ``out[key]``, deleting the key where the sum
    cancels: the one place a sum of terms drops a zero, so no result needs
    a second pass.  A product of nonzero terms is nonzero, as every
    coefficient ring here (Z[q], GF(q^2), Z) is a domain."""
    x = out.get(key)
    if x is None:
        out[key] = c
    elif (x := x + c).is_zero():
        del out[key]
    else:
        out[key] = x


def mat_identity(one, n: int):
    """The n x n identity over the ring of ``one``, for any entry type; its zero is 1 - 1."""
    zero = one - one
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def is_zero(A) -> bool:
    return all(a.is_zero() for row in A for a in row)


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(A, c):
    return tuple(tuple(c * a for a in row) for row in A)


def nonzeros(A):
    """The nonzero pattern of A: per column, the (row, entry) pairs of its nonzero entries."""
    return [[(i, a) for i, a in enumerate(col) if not a.is_zero()] for col in zip(*A)]


class Matrix(tuple):
    """A matrix, as a tuple of row tuples, that keeps its nonzero pattern
    once ``pattern`` has read it; it compares, hashes and prints as the
    plain tuple."""


def pattern(A) -> list:
    """``nonzeros`` of A, computed once per ``Matrix`` and kept on it; any
    other tuple is made a Matrix first."""
    if not isinstance(A, Matrix):
        A = Matrix(A)
    p = A.__dict__.get("pattern")
    if p is None:
        p = A.pattern = nonzeros(A)
    return p


def mat_mul(A, B):
    """A B, over the nonzero entries of both factors: entry (i, j) is the
    sum of A[i][t] B[t][j] over the t, in order, at which both are nonzero,
    found by walking column j of ``pattern(B)`` and column t of
    ``pattern(A)``.  An entry with no such t is a zero entry of the
    factors: A[i][0] when that is zero, else B[0][j], which then is.  So no
    product of a zero is formed.  A product of nonzero entries may still
    be zero, as in Z[X, Y]/(XY), and is kept as it comes."""
    A_cols, cols = pattern(A), []
    for terms in pattern(B):
        col = [None] * len(A)
        for t, b in terms:
            for i, a in A_cols[t]:
                x = col[i]
                col[i] = a * b if x is None else x + a * b
        cols.append(col)
    out = []
    for Ai, row in zip(A, zip(*cols)):
        zero = Ai[0]
        if zero.is_zero():
            out.append(tuple([zero if x is None else x for x in row]))
        else:
            out.append(tuple([B[0][j] if x is None else x for j, x in enumerate(row)]))
    return tuple(out)


def mat_vec(C, v) -> dict:
    """A v for the pattern C = ``pattern(A)`` and v given as {column:
    nonzero entry}.

    Sums entry * v[column] over the support of v only; the product comes
    back in the same sparse form, entries that cancel dropped."""
    out = {}
    for j, x in v.items():
        for i, a in C[j]:
            accumulate(out, i, a * x)
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
    """v as a new {column: nonzero entry} dict; a dict is taken to be in
    that form already and is copied, so reducing the result in place
    leaves v as it was."""
    if isinstance(v, dict):
        return dict(v)
    return {j: x for j, x in enumerate(v) if not x.is_zero()}


def _dense(rows, n, zero) -> tuple:
    """The sparse rows as length-n tuples: a row of ``zero`` filled in from each row's entries."""
    out = []
    for row in rows:
        dense = [zero] * n
        for j, x in row.items():
            dense[j] = x
        out.append(tuple(dense))
    return tuple(out)


def rref(rows):
    """Reduced row echelon form, the rows inserted one at a time by
    ``_insert``; returns (rows, pivot column list)."""
    basis, pivots = [], []
    for v in rows:
        if isinstance(v, dict):
            raise ValueError("rref takes tuple rows: a dict row carries no width")
        _insert(basis, pivots, sparse(v))
    if not basis:
        return (), pivots
    one = basis[0][pivots[0]]
    return _dense(basis, len(rows[0]), one - one), pivots  # rref takes no ring: its zero is 1 - 1


def rank(rows) -> int:
    return len(rref(rows)[0])


def _kernel(vectors, ncols, ring) -> list:
    """Basis of {v : r . v = 0 for every given row r}, rows and basis
    vectors as {column: entry} dicts: one basis vector per free column.
    The rows are consumed by ``_insert``."""
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


def is_invertible(A) -> bool:
    return rank(A) == len(A)


def _reduce(rows, pivots, v) -> None:
    """Subtract from v, in place, its multiples of the RREF rows, taken at
    their pivot columns: the one row-operation loop of the echelon core.
    Rows and v are {column: entry} dicts; each row is 1 at its pivot, and
    only the entries of the rows that v meets at their pivots are read."""
    for row, p in zip(rows, pivots):
        if p in v:
            m = -v.pop(p)
            for j, y in row.items():
                if j != p:
                    accumulate(v, j, m * y)


def remainder(basis_rref, v) -> dict:
    """v minus its multiples of the RREF rows, taken at their pivot columns:
    zero at every pivot, and empty iff v lies in their row space.

    Rows (all of one kind) and v may be tuples or {column: entry} dicts;
    tuple rows are converted once, on entry.  The remainder is a new dict
    of its nonzero entries, reduced from a ``sparse`` copy of v, so v is
    left as it was."""
    rows, pivots = basis_rref
    if rows and not isinstance(rows[0], dict):
        rows = [sparse(row) for row in rows]
    v = sparse(v)
    _reduce(rows, pivots, v)
    return v


def row_space_contains(basis_rref, v) -> bool:
    """Does v lie in the row space given in RREF with known pivots?"""
    return not remainder(basis_rref, v)


def _insert(rows, pivots, v) -> bool:
    """Extend the RREF basis held in the lists (rows, pivots) by v in place.

    Rows and v are {column: entry} dicts, and v is consumed: ``_reduce``
    leaves its remainder against the rows in it.  A nonzero remainder,
    scaled to a leading 1 as a new row, is cleared from the other rows at
    its pivot column by the same ``_reduce`` and inserted in pivot order,
    found by bisecting the pivots, which stay sorted.  Returns False,
    leaving rows and pivots as they were, when v is already in the span.
    """
    _reduce(rows, pivots, v)
    if not v:
        return False
    c = min(v)
    inv = v[c].inverse()
    r = {j: x * inv for j, x in v.items()}
    for row in rows:
        if c in row:
            _reduce((r,), (c,), row)
    at = bisect_left(pivots, c)
    rows.insert(at, r)
    pivots.insert(at, c)
    return True


def _span(seeds, patterns, n) -> tuple:
    """The smallest subspace of E^n containing the sparse seeds and stable
    under the operators given by their patterns, as sparse RREF (rows,
    pivots).  The seeds are consumed.

    Each vector that ``_insert`` adds to the echelon basis is queued for
    the operators as the remainder that ``_insert`` leaves in it.  A
    remainder differs from the vector by an element of the span built so
    far, so the queued vectors span the same space and the closure and its
    RREF do not change.  The spin stops once the basis has n rows: the
    span is then all of E^n, whose RREF is unique, so stopping changes
    nothing."""
    rows, pivots = [], []
    queue = [v for v in seeds if _insert(rows, pivots, v)]
    while queue and len(rows) < n:
        v = queue.pop()
        for C in patterns:
            w = mat_vec(C, v)
            if _insert(rows, pivots, w):
                queue.append(w)
                if len(rows) == n:
                    break
    return rows, pivots


def spin(seeds, operators, ring):
    """Smallest subspace containing the seeds and stable under the operators.

    Seeds are tuples or {column: entry} dicts; the width n is that of the
    n x n operators, or of a tuple seed when there are none.  Returns the
    subspace in RREF form: (rows, pivots), spun by ``_span`` from a
    ``sparse`` copy of each seed, so no seed changes, with the operators
    applied through their patterns."""
    n = len(operators[0]) if operators else len(seeds[0]) if seeds else 0
    rows, pivots = _span(map(sparse, seeds), [pattern(A) for A in operators], n)
    return _dense(rows, n, ring.zero), pivots


def algebra_dim(gens, ring) -> int:
    """Dimension of the unital algebra that the n x n matrices gens generate
    in End(E^n): the span of every word in them.

    Spins the identity, flattened row by row, under X -> A X for each
    generator A.  That map sends the unit at column k n + j to A[i][k] at
    row i n + j, so its pattern is read off ``pattern(A)`` with no n^2 x
    n^2 matrix built."""
    n = len(gens[0])
    ident = {i * n + i: ring.one for i in range(n)}
    left = [[[(i * n + j, a) for i, a in col] for col in pattern(A) for j in range(n)] for A in gens]
    return len(_span([ident], left, n * n)[0])


def quotient_action(gens, big, small) -> list:
    """The actions that the generator matrices induce on big/small, for
    subspaces small <= big given in RREF (rows, pivots): one ``Matrix``
    per generator.

    Quotient basis: rows of big whose pivot is not a pivot of small.  The
    image of a basis row, less its ``remainder`` against small, is zero at
    the pivots of small; it lies in big exactly when big is invariant
    modulo small, and then its quotient coordinates are its entries at the
    quotient pivots, since a vector in an RREF row space is the sum of the
    rows weighted by its entries at their pivots.  So quotients taken
    along a chain from 0 prove every member invariant.  Raises
    ArithmeticError when small is not inside big or an image leaves big.
    """
    # the rows enter the sparse echelon form once per quotient
    big, small = (([sparse(v) for v in rows], pivots) for rows, pivots in (big, small))
    if not all(row_space_contains(big, v) for v in small[0]):
        raise ArithmeticError("chain is not nested")
    q_basis = [(v, p) for v, p in zip(*big) if p not in small[1]]
    zero = next((v[p] - v[p] for v, p in q_basis), None)  # no ring is passed: 1 - 1 at a pivot
    out = []
    for M in gens:
        C, cols = pattern(M), []
        for v, _ in q_basis:
            w = remainder(small, mat_vec(C, v))
            if not row_space_contains(big, w):
                raise ArithmeticError("chain member is not an invariant subspace")
            cols.append([w.get(p, zero) for _, p in q_basis])
        out.append(Matrix(zip(*cols)))
    return out


def hom_space(gens1, gens2, ring):
    """Basis of {X : X A = B X for every generator pair (A, B)}.

    gens1 and gens2 are parallel lists of n1 x n1 and n2 x n2 matrices over
    a field, the actions of the same generators on two modules M1 and M2
    (ValueError when the lists differ in length); each basis element X is
    an n2 x n1 matrix, and together they span Hom(M1, M2).  The
    constraints are linear in the entries of X, so the space is one
    kernel; each constraint row is written sparse, from the patterns of A
    and B alone.
    """
    n1, n2 = len(gens1[0]), len(gens2[0])
    # unknown X with entries x[i*n1+j]; constraint (X A - B X)[i][j] = 0 is row i*n1+j
    rows = []
    for A, B in zip(gens1, gens2, strict=True):
        A_cols, B_cols = pattern(A), pattern(B)
        # (X A)[i][j] = sum_k x[i][k] A[k][j]
        block = [{i * n1 + k: a for k, a in A_cols[j]} for i in range(n2) for j in range(n1)]
        # less (B X)[i][j] = sum_k B[i][k] x[k][j]
        for k, terms in enumerate(B_cols):
            for i, b in terms:
                nb = -b
                for j in range(n1):
                    accumulate(block[i * n1 + j], k * n1 + j, nb)
        rows += block
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

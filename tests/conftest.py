"""Shared fixtures.

``clear_tables`` empties the process-wide tables that memoise derived
results: every ``lru_cache`` defined in a module of the package (the one
table ``krep.word_image`` of Demazure word images, shared by A(q) and
Anil, the table ``krep._theta_images`` of S and U compiled into flat
(row, col, m, j, c) terms, one entry per (record, flavor, ring), from which
both reductions at theta are made, ``charrings.half``, ...), found by scanning every module that
``pkgutil`` lists, so that a new table cannot be missed; and the Hecke
product table ``hecke._PRODUCTS``, a plain dict of plain dicts.  A test that patches an input of
one of them takes the ``fresh_tables`` fixture before ``monkeypatch``, so
the tables are emptied before the patch and again after it is undone: no
entry computed from the patched code outlives the test, and none computed
before hides the patch.

``dense_mat_vec``, ``dense_rref`` and ``dense_nullspace`` are the
references of the tests for products, row reduction and kernels: they run
over every entry, zeros included, and share no code with ``linalg``.
"""

import importlib
import pkgutil

import pytest

import heckedem
from heckedem import hecke


def dense_mat_vec(A, v):
    """A v over every entry of A, zero entries included."""
    out = []
    for row in A:
        acc = row[0] * v[0]
        for a, x in zip(row[1:], v[1:]):
            acc = acc + a * x
        out.append(acc)
    return tuple(out)


def dense_rref(rows):
    """Reduced row echelon form by column-by-column Gauss-Jordan elimination
    with row swaps, each row operation over whole rows; returns (rows,
    pivot column list) in the form of ``linalg.rref``."""
    rows = [list(r) for r in rows]
    if not rows:
        return (), []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
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
    return tuple(tuple(row) for row in rows[:r]), pivots


def dense_nullspace(R, pivots, ncols, ring):
    """One vector per free column fc of the RREF (R, pivots): 1 at fc, 0 at
    the other free columns and -R[i][fc] at the pivot of row i."""
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ring.zero] * ncols
        v[fc] = ring.one
        for row, pc in zip(R, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def clear_tables():
    for info in pkgutil.iter_modules(heckedem.__path__):
        module = importlib.import_module(f"heckedem.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                obj.cache_clear()
    hecke._PRODUCTS.clear()


@pytest.fixture
def fresh_tables():
    clear_tables()
    yield
    clear_tables()

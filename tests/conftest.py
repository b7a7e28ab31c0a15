"""Shared fixtures.

``clear_tables`` empties the process-wide tables that memoise derived
results: every ``lru_cache`` defined in ``krep``, ``chowrep``, ``hecke``
and ``weyl`` (the one table ``krep.word_image`` of Demazure word images,
shared by A(q) and Anil, the table ``krep._theta_images`` of S and U as
xi-polynomials, one entry per (record, flavor, ring), from which both
reductions at theta are made, the reduced words, ...), found by scanning
those modules, so that a new table cannot be missed; and the Hecke
product table ``hecke._PRODUCTS``, a plain dict of plain dicts.  A test that patches an input of
one of them takes the ``fresh_tables`` fixture before ``monkeypatch``, so
the tables are emptied before the patch and again after it is undone: no
entry computed from the patched code outlives the test, and none computed
before hides the patch.

``dense_mat_vec`` is the reference matrix-vector product of the tests: it
multiplies every entry and shares no code with ``linalg``.
"""

import pytest

from heckedem import chowrep, hecke, krep, weyl


def dense_mat_vec(A, v):
    """A v over every entry of A, zero entries included."""
    out = []
    for row in A:
        acc = row[0] * v[0]
        for a, x in zip(row[1:], v[1:]):
            acc = acc + a * x
        out.append(acc)
    return tuple(out)


def clear_tables():
    for module in (chowrep, hecke, krep, weyl):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                obj.cache_clear()
    hecke._PRODUCTS.clear()


@pytest.fixture
def fresh_tables():
    clear_tables()
    yield
    clear_tables()

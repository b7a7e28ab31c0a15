"""Shared fixtures.

``fresh_tables`` empties the process-wide tables that memoise derived
results: the Demazure word images (``krep._a_word_image``,
``chowrep._anil_word_image``), the xi-polynomials of A0(S) and A(U) over
each field (``krep._xi_polys``), the Hecke product table
(``hecke._PRODUCTS``) and the reduced words (``weyl.reduced_word``).  A
test that patches an input of one of them takes this fixture before
``monkeypatch``, so the tables are emptied before the patch and again
after it is undone: no entry computed from the patched code outlives the
test, and none computed before hides the patch.
"""

import pytest

from heckedem import chowrep, hecke, krep, weyl


def clear_tables():
    krep._a_word_image.cache_clear()
    krep._xi_polys.cache_clear()
    chowrep._anil_word_image.cache_clear()
    hecke._PRODUCTS.clear()
    weyl.reduced_word.cache_clear()


@pytest.fixture
def fresh_tables():
    clear_tables()
    yield
    clear_tables()

"""``clear_tables`` empties every memo table of the representation layer.

The tables are found here by their own scan of the module namespaces, so
a table that ``clear_tables`` misses shows up as a nonzero ``currsize``.
"""

from conftest import clear_tables

from heckedem import chowrep, hecke, krep, verify, weyl
from heckedem.charrings import FieldRing
from heckedem.coeffs import build_tower


def memo_tables() -> dict:
    return {
        f"{module.__name__}.{name}": obj
        for module in (chowrep, hecke, krep, weyl)
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
    }


def test_clear_tables_empties_every_table():
    clear_tables()
    assert verify.suite_chowrep(0)["passed"]
    anil_entries = krep.word_image.cache_info().currsize
    assert anil_entries
    # A(q) fills the same table as Anil
    assert verify.suite_krep(0)["passed"]
    assert krep.word_image.cache_info().currsize > anil_entries
    ring = FieldRing(build_tower(3, 1))
    chowrep.reduce_regular_at_theta((ring.zero, ring.one), ring)
    tables = memo_tables()
    filled = {name for name, table in tables.items() if table.cache_info().currsize}
    assert {"heckedem.krep.word_image", "heckedem.chowrep._a2_generator_images"} <= filled
    assert hecke._PRODUCTS
    clear_tables()
    assert {name: table.cache_info().currsize for name, table in tables.items() if table.cache_info().currsize} == {}
    assert not hecke._PRODUCTS

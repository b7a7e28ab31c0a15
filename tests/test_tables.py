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
    # each reduction at theta fills the one table of images at theta under
    # its own (record, flavor, ring) key: a second lookup there is a hit
    ring = FieldRing(build_tower(3, 1))
    images = krep._theta_images
    for reduce, key in (
        (krep.reduce_at_theta, (krep.A_Q, "iwahori", ring)),
        (chowrep.reduce_regular_at_theta, (chowrep.A_NIL, "h2", ring)),
    ):
        size = images.cache_info().currsize
        reduce((ring.zero, ring.one), ring)
        assert images.cache_info().currsize == size + 1
        hits = images.cache_info().hits
        images(*key)
        assert (images.cache_info().hits, images.cache_info().currsize) == (hits + 1, size + 1)
    tables = memo_tables()
    filled = {name for name, table in tables.items() if table.cache_info().currsize}
    assert {"heckedem.krep.word_image", "heckedem.krep._theta_images"} <= filled
    assert hecke._PRODUCTS
    clear_tables()
    assert {name: table.cache_info().currsize for name, table in tables.items() if table.cache_info().currsize} == {}
    assert not hecke._PRODUCTS

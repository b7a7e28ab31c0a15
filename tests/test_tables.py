"""``clear_tables`` empties every memo table of the package.

The tables are found here by their own scan of the module namespaces, or
of the source, so a table that ``clear_tables`` misses shows up as a
nonzero ``currsize``.
"""

import ast
import importlib
from pathlib import Path

from conftest import clear_tables

from heckedem import chowrep, cli, hecke, krep, verify, weyl
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
    # represent reads its flat word terms, compiled from word_image entries only
    assert 0 < krep._word_terms.cache_info().currsize <= krep.word_image.cache_info().currsize
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
    assert {"heckedem.krep.word_image", "heckedem.krep._word_terms", "heckedem.krep._theta_images"} <= filled
    assert hecke._PRODUCTS
    clear_tables()
    assert {name: table.cache_info().currsize for name, table in tables.items() if table.cache_info().currsize} == {}
    assert not hecke._PRODUCTS


SRC = Path(__file__).resolve().parent.parent / "src" / "heckedem"


def decorator_name(node) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def lru_caches() -> dict:
    """Every function that src decorates with ``lru_cache`` or ``cache``,
    read from the source and looked up on its module: a cache on a method
    or a nested function fails the lookup, as it needs its own clearing."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"heckedem.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            names = {decorator_name(d) for d in getattr(node, "decorator_list", ())}
            if isinstance(node, ast.FunctionDef) and names & {"lru_cache", "cache"}:
                out[f"{path.stem}.{node.name}"] = getattr(module, node.name)
    return out


def test_clear_tables_empties_every_lru_cache_in_src(capsys):
    # no cache is exempt: the field towers and the CLI parser are rebuilt on demand
    caches = lru_caches()
    assert {"charrings.half", "coeffs.build_tower", "cli.build_parser", "krep.word_image"} <= set(caches)
    clear_tables()
    # one CLI module at theta fills the parser, the tower, 1/2 and the
    # images at theta; the BFS oracle fills its distance table
    assert cli.main(["module", "--b", "g^4"]) == 0
    weyl.length_bfs(weyl.S)
    assert [name for name, f in caches.items() if not f.cache_info().currsize] == []
    clear_tables()
    assert {name: f.cache_info().currsize for name, f in caches.items() if f.cache_info().currsize} == {}

"""Hecke products read each translation-free pair from a product table.

``HeckeElement.__mul__`` writes T_w = zeta2^k T_{w'} (``zeta2_split``),
reads T_{w'} T_{w2'} from a table per quadratic relation and ring (nil and
h2 share one), and shifts every key by the summed zeta2 powers.  The
reference below is the path it replaces: the letter fold of every pair of
terms, as a test-local copy.
"""

import random

import pytest

from heckedem import hecke, verify, weyl
from heckedem.charrings import ZQ, FieldRing
from heckedem.coeffs import GenericScalar, build_tower
from heckedem.hecke import HeckeElement
from heckedem.weyl import WeylElement, act_on_index, length


def reference_basis_product(w, w2, flavor, ring):
    """The letter fold of T_w T_{w2}: w2 = w2' e^{(k,k)} with w2'
    translation-free, and e^{(k,k)} is central of length 0."""
    k = min(w2.n1, w2.n2)
    shift = WeylElement(k, k, "e")
    state = {w: ring.one}
    q = ring.q
    q_minus_1 = q - ring.one
    for letter in hecke._translation_word(w2 * shift.inverse()):
        gen = weyl.U if letter == "U" else weyl.S
        new = {}
        for v, c in state.items():
            vg = v * gen
            if length(vg) >= length(v):
                new[vg] = new[vg] + c if vg in new else c
            else:
                if flavor == "iwahori":
                    add = c * q_minus_1
                    new[v] = new[v] + add if v in new else add
                add = c * q
                new[vg] = new[vg] + add if vg in new else add
        state = {v: c for v, c in new.items() if not c.is_zero()}
    return {v * shift: c for v, c in state.items()}


def reference_mul(x, y):
    out = {}
    for key1, c1 in x.terms.items():
        for key2, c2 in y.terms.items():
            if x.flavor == "h2":
                i, w = key1
                i2, w2 = key2
                if i2 != act_on_index(w, i):
                    continue
            else:
                w, w2 = key1, key2
                i = None
            c = c1 * c2
            for v, factor in reference_basis_product(w, w2, x.flavor, x.ring).items():
                key = (i, v) if x.flavor == "h2" else v
                add = c * factor
                out[key] = out[key] + add if key in out else add
    return HeckeElement(x.flavor, x.ring, out)


RINGS = {
    "Z[q]": lambda: ZQ,
    "GF(9)": lambda: FieldRing(build_tower(3, 1)),
    "GF(25)": lambda: FieldRing(build_tower(5, 1)),
}


def random_coeff(rng, ring):
    if ring is ZQ:
        return GenericScalar([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
    return ring.tower.element([rng.randrange(ring.tower.p) for _ in range(2 * ring.tower.f)])


def random_element(rng, flavor, ring):
    """Two to six terms with |n1|, |n2| <= 6."""
    terms = {}
    for _ in range(rng.randint(2, 6)):
        w = WeylElement(rng.randint(-6, 6), rng.randint(-6, 6), rng.choice("es"))
        terms[(rng.choice((1, 2)), w) if flavor == "h2" else w] = random_coeff(rng, ring)
    return HeckeElement(flavor, ring, terms)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_table_path_matches_the_per_pair_fold(fresh_tables, ring_name):
    """All three flavors share one ring here, interleaved, so a table that
    mixed up flavors would hand one flavor's products to another."""
    ring = RINGS[ring_name]()
    rng = random.Random(f"products {ring_name}")
    for _ in range(30):
        for flavor in hecke.FLAVORS:
            x, y = random_element(rng, flavor, ring), random_element(rng, flavor, ring)
            got, want = x * y, reference_mul(x, y)
            # term for term, in the same order: the shifted fold is the fold
            assert list(got.terms.items()) == list(want.terms.items()), (x, y)
            assert got.to_json() == want.to_json()


def test_table_holds_one_entry_per_translation_free_pair(fresh_tables, monkeypatch):
    """One table per (relation has the (q - 1) term, ring): a pair is folded
    once across nil and h2 together, with the (q - 1) of the relation."""
    fold = hecke._basis_product
    folds = []

    def counted(w, w2, q1, ring):
        folds.append((not q1.is_zero(), ring, w, w2))
        return fold(w, w2, q1, ring)

    monkeypatch.setattr(hecke, "_basis_product", counted)
    rng = random.Random("one entry per pair")
    used = set()
    for ring_name in sorted(RINGS):
        ring = RINGS[ring_name]()
        for flavor in hecke.FLAVORS:
            used.add((flavor == "iwahori", ring))
            for _ in range(20):
                random_element(rng, flavor, ring) * random_element(rng, flavor, ring)
    assert set(hecke._PRODUCTS) == used and len(used) == 2 * len(RINGS)
    entries = {
        (iwahori, ring, w, w2): entry
        for (iwahori, ring), rows in hecke._PRODUCTS.items()
        for w, row in rows.items()
        for w2, entry in row.items()
    }
    assert all(min(w.n1, w.n2) == 0 and min(w2.n1, w2.n2) == 0 for _, _, w, w2 in entries)
    assert len(folds) == len(set(folds)) == len(entries)
    assert set(folds) == set(entries)
    # each entry is the plain tuple of the fold's (v, c) pairs, in the fold's
    # order, and the nil fold is the h2 fold
    for (iwahori, ring, w, w2), entry in entries.items():
        flavors = ("iwahori",) if iwahori else ("nil", "h2")
        assert all(entry == tuple(reference_basis_product(w, w2, f, ring).items()) for f in flavors)


def test_relations_suite_sees_a_dropped_letter_through_the_table(fresh_tables, monkeypatch):
    """fresh_tables empties the product table before the patch and after it
    is undone, so no product folded from a correct word hides the fault and
    none folded from the faulty word outlives the test."""
    right = hecke._translation_word
    monkeypatch.setattr(hecke, "_translation_word", lambda w: right(w)[:-1])
    result = verify.suite_relations(0)
    assert result["passed"] is False
    assert result["counterexamples"]

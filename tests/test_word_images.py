"""The Demazure representations read each term's image from one table of words.

``krep.rep_A``, ``chowrep.rep_Anil`` and ``chowrep.rep_A2`` write
T_w = zeta2^k T_{w'} with w' translation-free and shift the image of
T_{w'} that ``krep.word_image`` holds for their record (``krep.A_Q`` or
``chowrep.A_NIL``).  The reference below is the per-term path they
replace: the normal form of the whole element over the center
(``krep.rep_over_center``, which never reads the table), and A2 through
one nil "shadow" element per term.
"""

import functools
import random

import pytest

from heckedem import chowrep, krep, verify, weyl
from heckedem.charrings import ZQ, FieldRing, SymElement
from heckedem.coeffs import GenericScalar, build_tower
from heckedem.hecke import HeckeElement, T_S, T_U, _translation_word, zeta2_split
from heckedem.weyl import WeylElement


def reference_rep_A(x):
    return krep.rep_over_center(krep.A_Q, x)


def reference_rep_Anil(x):
    return krep.rep_over_center(chowrep.A_NIL, x)


def reference_rep_A2(x):
    ring = x.ring
    out = [[SymElement.zero(ring)] * 4 for _ in range(4)]
    for (i, w), c in x.terms.items():
        N = reference_rep_Anil(HeckeElement.basis("nil", ring, w).scale(c))
        j = weyl.act_on_index(w, i)
        for r in range(2):
            for s in range(2):
                out[2 * (i - 1) + r][2 * (j - 1) + s] += N[r][s]
    return tuple(map(tuple, out))


def random_coeff(rng, ring):
    if ring is ZQ:
        return GenericScalar([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
    return ring.tower.element([rng.randrange(ring.tower.p) for _ in range(2 * ring.tower.f)])


def random_element(rng, flavor, ring):
    """Up to six terms with |n1|, |n2| <= 6; many share n1 - n2 and the
    finite part, so they read the same table entry at different shifts."""
    terms = {}
    for _ in range(rng.randint(2, 6)):
        w = WeylElement(rng.randint(-6, 6), rng.randint(-6, 6), rng.choice("es"))
        terms[(rng.choice((1, 2)), w) if flavor == "h2" else w] = random_coeff(rng, ring)
    return HeckeElement(flavor, ring, terms)


def field(p, f):
    return FieldRing(build_tower(p, f))


CASES = [
    ("iwahori", krep.rep_A, reference_rep_A, lambda: ZQ),
    ("iwahori", krep.rep_A, reference_rep_A, lambda: field(3, 1)),
    ("nil", chowrep.rep_Anil, reference_rep_Anil, lambda: field(3, 1)),
    ("nil", chowrep.rep_Anil, reference_rep_Anil, lambda: field(3, 2)),
    ("h2", chowrep.rep_A2, reference_rep_A2, lambda: field(3, 1)),
]


@pytest.mark.parametrize(
    "flavor,rep,reference,ring",
    CASES,
    ids=["A-Z[q]", "A-GF(9)", "Anil-GF(9)", "Anil-GF(81)", "A2-GF(9)"],
)
def test_word_table_matches_the_per_term_path(flavor, rep, reference, ring):
    ring = ring()
    rng = random.Random(f"{flavor} {ring}")
    for _ in range(40):
        x = random_element(rng, flavor, ring)
        assert rep(x) == reference(x), x


def test_zeta2_split_and_translation_word_give_T_w():
    """T_w = zeta2^k T_{w'}, and the letters of w' multiply to T_{w'}."""
    letters = {"S": T_S("iwahori", ZQ), "U": T_U("iwahori", ZQ)}
    for n1 in range(-5, 6):
        for n2 in range(-5, 6):
            for finite in "es":
                w = WeylElement(n1, n2, finite)
                k, w0 = zeta2_split(w)
                assert min(w0.n1, w0.n2) == 0 and weyl.WeylElement(k, k, "e") * w0 == w
                product = HeckeElement.one("iwahori", ZQ)
                for letter in _translation_word(w0):
                    product = product * letters[letter]
                assert product == HeckeElement.basis("iwahori", ZQ, w0), w


# The ids keep the names these cases had when each module held its own table.
@pytest.mark.parametrize(
    "suite,nil_rings",
    [(verify.suite_krep, set), (verify.suite_chowrep, lambda: {field(3, 1)})],
    ids=["heckedem.krep-_a_word_image-suite_krep", "heckedem.chowrep-_anil_word_image-suite_chowrep"],
)
def test_table_holds_one_entry_per_word(monkeypatch, suite, nil_rings):
    """One table serves A(q), Anil and A2.  Keying it on T_w instead of its
    translation-free word would hold about ten times the entries; keying it
    without the record would hand one representation's images to another."""
    image = krep.word_image.__wrapped__
    fills = []

    def fill(rep, ring, w):
        fills.append((rep, ring, w.n1 - w.n2, w.finite))
        if min(w.n1, w.n2) != 0:
            raise AssertionError(f"table entry for {w}, which is not translation-free")
        return image(rep, ring, w)

    table = functools.lru_cache(maxsize=None)(fill)
    monkeypatch.setattr(krep, "word_image", table)
    assert suite(0)["passed"]
    # A(q) on the words Anil and A2 filled, over their ring GF(9)
    nil_words = {(ring, m, finite) for rep, ring, m, finite in fills if rep is chowrep.A_NIL}
    assert {ring for ring, _, _ in nil_words} == nil_rings()
    for ring, m, finite in nil_words:
        krep.rep_A(HeckeElement.basis("iwahori", ring, WeylElement(max(m, 0), max(-m, 0), finite)))
    assert len(fills) == len(set(fills)) == table.cache_info().currsize
    # each (ring, word) that Anil filled got its own A(q) entry: the records never share a key
    assert all((krep.A_Q, *key) in set(fills) for key in nil_words)


def test_anil_and_a2_refuse_a_ring_without_one_half():
    h2 = HeckeElement.basis("h2", ZQ, WeylElement(1, 0, "s"), idem=1)
    zeros = ((chowrep.rep_Anil, HeckeElement.zero("nil", ZQ)), (chowrep.rep_A2, HeckeElement.zero("h2", ZQ)))
    # the one table checks too, through A_NIL's builder of Anil(U)
    table = (lambda w: krep.word_image(chowrep.A_NIL, ZQ, w), weyl.S)
    for rep, x in zeros + ((chowrep.rep_A2, h2), table):
        with pytest.raises(ValueError, match="odd characteristic"):
            rep(x)

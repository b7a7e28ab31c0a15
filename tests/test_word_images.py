"""The Demazure representations read each term's image from a table of words.

``krep.rep_A``, ``chowrep.rep_Anil`` and ``chowrep.rep_A2`` write
T_w = zeta2^k T_{w'} with w' translation-free and shift the tabulated
image of T_{w'}.  The reference below is the per-term path they replace:
the normal form of the whole element over the center, and A2 through one
nil "shadow" element per term.
"""

import functools
import random

import pytest

from heckedem import chowrep, krep, verify, weyl
from heckedem.charrings import ZQ, FieldRing, GroupRingElement, SymElement, xi1_ch, xi1_k, xi2_ch, xi2_k
from heckedem.coeffs import GenericScalar, build_tower
from heckedem.hecke import HeckeElement, T_S, T_U, _translation_word, zeta2_split
from heckedem.weyl import WeylElement


def reference_rep_A(x):
    ring = x.ring
    basis = krep.basis_matrices(GroupRingElement, ring, krep.rep_A0_S(ring), krep.rep_A_U(ring))
    return krep.rep_over_center(x, GroupRingElement, basis, xi1_k(ring), lambda k: xi2_k(ring, k))


def reference_rep_Anil(x):
    ring = x.ring
    basis = krep.basis_matrices(SymElement, ring, chowrep.rep_A0nil_S(ring), chowrep.rep_Anil_U(ring))
    return krep.rep_over_center(x, SymElement, basis, -xi1_ch(ring), lambda k: xi2_ch(ring, 2 * k))


def reference_rep_A2(x):
    ring = x.ring
    out = [[SymElement.zero(ring)] * 4 for _ in range(4)]
    for (i, w), c in x.terms.items():
        N = reference_rep_Anil(HeckeElement.basis("nil", ring, w, coeff=c))
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


@pytest.mark.parametrize(
    "module,name,suite",
    [(krep, "_a_word_image", verify.suite_krep), (chowrep, "_anil_word_image", verify.suite_chowrep)],
)
def test_table_holds_one_entry_per_word(monkeypatch, module, name, suite):
    """Keying the table on T_w instead of its translation-free word would
    hold about ten times the entries."""
    image = getattr(module, name).__wrapped__
    fills = []

    def fill(ring, w):
        fills.append((ring, w.n1 - w.n2, w.finite))
        if min(w.n1, w.n2) != 0:
            raise AssertionError(f"table entry for {w}, which is not translation-free")
        return image(ring, w)

    table = functools.lru_cache(maxsize=None)(fill)
    monkeypatch.setattr(module, name, table)
    assert suite(0)["passed"]
    assert len(fills) == len(set(fills)) == table.cache_info().currsize


def test_anil_and_a2_refuse_a_ring_without_one_half():
    h2 = HeckeElement.basis("h2", ZQ, WeylElement(1, 0, "s"), idem=1)
    for rep, x in ((chowrep.rep_Anil, HeckeElement.zero("nil", ZQ)), (chowrep.rep_A2, h2)):
        with pytest.raises(ValueError, match="odd characteristic"):
            rep(x)

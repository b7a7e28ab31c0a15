"""The Demazure representations read each term's image from one table of words.

``krep.rep_A``, ``chowrep.rep_Anil`` and ``chowrep.rep_A2`` write
T_w = zeta2^k T_{w'} with w' translation-free and shift the image of
T_{w'} that ``krep.word_image`` holds for their record (``krep.A_Q`` or
``chowrep.A_NIL``): the product of the record's S and U along the letters
of w' (``hecke.word_matrix``).  The reference below is a second derivation
that never reads the table: the normal form of the whole element over the
center (``rep_over_center``), whose coordinates are evaluated at the
record's images of zeta1 and zeta2 and summed against the images of 1, S,
U and SU, and A2 through one nil "shadow" element per term.  The two agree
only when the record's center images are right.
"""

import functools
import random

import pytest

from heckedem import chowrep, krep, linalg, verify, weyl
from heckedem.charrings import ZQ, FieldRing, GroupRingElement, SymElement, eval_laurent
from heckedem.coeffs import GenericScalar, build_tower
from heckedem.hecke import HeckeElement, T_S, T_U, _translation_word, normal_form_over_center, zeta2_split
from heckedem.weyl import WeylElement


def rep_over_center(rep, x):
    """``rep`` on x through its normal form over the center.

    Writes x = c_1 + c_S S + c_U U + c_SU SU over the center, maps each
    central coordinate into ``rep.cls`` by the record's zeta1 and zeta2
    and sums against {Id, MS, MU, MS MU}."""
    ring, d = x.ring, rep.zeta2_degree
    MS, MU = rep.S(ring), rep.U(ring)
    basis = (linalg.mat_identity(rep.cls.one(ring), 2), MS, MU, linalg.mat_mul(MS, MU))
    zero, zeta1 = rep.cls.zero(ring), rep.zeta1(ring)
    zeta2_power = lambda k: rep.cls.monomial(ring, d * k, d * k)
    out = ((zero, zero), (zero, zero))
    for cz, mat in zip(normal_form_over_center(x), basis):
        if not cz.is_zero():
            out = linalg.mat_add(out, linalg.mat_scale(mat, eval_laurent(cz.terms, zero, zeta1, zeta2_power)))
    return out


def reference_rep_A(x):
    return rep_over_center(krep.A_Q, x)


def reference_rep_Anil(x):
    return rep_over_center(chowrep.A_NIL, x)


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


def translation_free_words(bound=12):
    """Every translation-free w' with |n1 - n2| <= bound, both finite parts."""
    for m in range(-bound, bound + 1):
        for finite in "es":
            yield WeylElement(max(m, 0), max(-m, 0), finite)


@pytest.mark.parametrize(
    "rep,ring",
    [
        (krep.A_Q, lambda: ZQ),
        (krep.A_Q, lambda: field(3, 1)),
        (chowrep.A_NIL, lambda: field(3, 1)),
        (chowrep.A_NIL, lambda: field(3, 2)),
    ],
    ids=["A-Z[q]", "A-GF(9)", "Anil-GF(9)", "Anil-GF(81)"],
)
def test_every_short_word_image_matches_the_normal_form(rep, ring):
    """The S/U fold and the normal form over the center agree on every
    table entry with |n1 - n2| <= 12."""
    ring = ring()
    for w in translation_free_words():
        assert krep.word_image(rep, ring, w) == rep_over_center(rep, HeckeElement.basis(rep.flavor, ring, w)), w


def test_a_wrong_center_image_parts_the_table_from_the_reference(fresh_tables, monkeypatch):
    """With zeta1 -> -xi1 in A(q)'s record, the table (which reads only S
    and U) and the normal form (which reads zeta1) disagree, and
    ``suite_krep`` counts the record's failed relation, not an exception."""
    A = krep.A_Q
    wrong = krep.Demazure(A.flavor, A.cls, A.S, A.U, lambda r: -GroupRingElement.xi1(r), A.zeta2_degree)
    differ = [
        w
        for w in translation_free_words()
        if krep.word_image(wrong, ZQ, w) != rep_over_center(wrong, HeckeElement.basis("iwahori", ZQ, w))
    ]
    assert differ
    monkeypatch.setattr(krep, "A_Q", wrong)
    result = verify.suite_krep(0)
    assert result["counterexamples"] == [("A(q)", "US + SU - (q-1)U != zeta1")]


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

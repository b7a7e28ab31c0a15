import random

import pytest

from heckedem import hecke, verify, weyl
from heckedem.charrings import ZQ, FieldRing
from heckedem.coeffs import GenericScalar, build_tower
from heckedem.hecke import (
    CenterElement,
    HeckeElement,
    T_S,
    T_S0,
    T_U,
    ZRingElement,
    component_iso,
    group_algebra_mul,
    h2_matrix_model,
    idempotent,
    normal_form_over_center,
    orbits,
    recompose_from_center,
    specialize_q0,
    zeta1_embedded,
    zeta2_embedded,
)
from heckedem.verify import random_hecke
from heckedem.weyl import WeylElement


def basis(w, flavor="iwahori"):
    return HeckeElement.basis(flavor, ZQ, w)


def test_quadratic_relations():
    one = HeckeElement.one("iwahori", ZQ)
    for g in (weyl.S, weyl.S0):
        T = basis(g)
        assert T * T == T.scale(ZQ.q - ZQ.one) + one.scale(ZQ.q)
    one_nil = HeckeElement.one("nil", ZQ)
    for g in (weyl.S, weyl.S0):
        T = basis(g, "nil")
        assert T * T == one_nil.scale(ZQ.q)


def test_length_additive_products():
    # u has length zero, so T_{s0} T_u = T_{s0 u} = T_{e^{(1,0)}}
    lhs = basis(weyl.S0) * basis(weyl.U)
    assert lhs == basis(WeylElement(1, 0, "e"))
    # T_u T_u = T_{e^{(1,1)}}
    assert basis(weyl.U) * basis(weyl.U) == basis(WeylElement(1, 1, "e"))


def test_s0_conjugate():
    for flavor in hecke.FLAVORS:
        lhs = T_U(flavor, ZQ) * T_S(flavor, ZQ) * T_U(flavor, ZQ, -1)
        assert lhs == T_S0(flavor, ZQ)


def test_h2_idempotent_twist():
    # (e_1 T_s)(e_1 T_s) = 0 because s moves index 1 to 2
    x = HeckeElement("h2", ZQ, {(1, weyl.S): ZQ.one})
    assert (x * x).is_zero()
    # (e_1 T_s)(e_2 T_s) = e_1 T_s^2 = q e_1
    y = HeckeElement("h2", ZQ, {(2, weyl.S): ZQ.one})
    assert x * y == HeckeElement("h2", ZQ, {(1, weyl.E): ZQ.q})
    # e_1 + e_2 = 1
    e1, e2 = (HeckeElement.basis("h2", ZQ, weyl.E, i) for i in (1, 2))
    assert e1 + e2 == HeckeElement.one("h2", ZQ)


def test_center_embeddings():
    for flavor in ("iwahori", "nil"):
        z2 = zeta2_embedded(flavor, ZQ)
        assert z2 == HeckeElement.basis(flavor, ZQ, WeylElement(1, 1, "e"))
        # centrality against both generators
        for z in (zeta1_embedded(flavor, ZQ), z2):
            for g in (T_S(flavor, ZQ), T_U(flavor, ZQ), T_S0(flavor, ZQ)):
                assert z * g == g * z


def test_zeta1_shape_iwahori():
    # zeta1 = U(S - (q-1)) + SU in the iwahori flavor
    u, s = T_U("iwahori", ZQ), T_S("iwahori", ZQ)
    one = HeckeElement.one("iwahori", ZQ)
    assert zeta1_embedded("iwahori", ZQ) == u * (s - one.scale(ZQ.q - ZQ.one)) + s * u


def test_zeta1_shape_nil():
    u, s = T_U("nil", ZQ), T_S("nil", ZQ)
    assert zeta1_embedded("nil", ZQ) == u * s + s * u


def test_normal_form_frozen_coordinates():
    # coordinate order: 1, S, U, SU
    for flavor in ("iwahori", "nil"):
        zero = CenterElement(ZQ)
        coords = normal_form_over_center(T_S(flavor, ZQ))
        assert coords == (zero, CenterElement(ZQ, {(0, 0): ZQ.one}), zero, zero)
        coords = normal_form_over_center(zeta1_embedded(flavor, ZQ))
        assert coords == (CenterElement(ZQ, {(1, 0): ZQ.one}), zero, zero, zero)
        coords = normal_form_over_center(T_U(flavor, ZQ) * T_U(flavor, ZQ))
        assert coords == (CenterElement(ZQ, {(0, 1): ZQ.one}), zero, zero, zero)


def test_normal_form_roundtrip_random():
    rng = random.Random(5)
    for flavor in ("iwahori", "nil"):
        for _ in range(40):
            x = random_hecke(rng, flavor)
            coords = normal_form_over_center(x)
            assert recompose_from_center(coords, flavor, ZQ) == x


def normal_form_by_center_elements(x):
    """The reference fold: the coordinates (a, b, c, d) of a + bS + cU + dSU
    are CenterElements, and each letter multiplies them in by the table of
    the basis through CenterElement arithmetic, zeta1 and zeta2 included."""
    ring = x.ring
    zero = CenterElement(ring)
    q = ring.q
    q1 = q - ring.one if x.flavor == "iwahori" else ring.zero
    zeta1, zeta2 = CenterElement(ring, {(1, 0): ring.one}), CenterElement(ring, {(0, 1): ring.one})
    right_mul = {
        "S": lambda a, b, c, d: (
            b.scale(q) + zeta1 * c,
            a + b.scale(q1) + zeta1 * d,
            c.scale(q1) - d.scale(q),
            -c,
        ),
        "U": lambda a, b, c, d: (zeta2 * c, zeta2 * d, a, b),
    }
    total = (zero,) * 4
    for key, c in x.terms.items():
        k, w0 = hecke.zeta2_split(key)
        coords = (CenterElement(ring, {(0, k): c}), zero, zero, zero)
        for letter in hecke._translation_word(w0):
            coords = right_mul[letter](*coords)
        total = tuple(t + v for t, v in zip(total, coords))
    return total


NORMAL_FORM_RINGS = [ZQ, FieldRing(build_tower(3, 1)), FieldRing(build_tower(5, 1))]


@pytest.mark.parametrize("ring", NORMAL_FORM_RINGS, ids=repr)
@pytest.mark.parametrize("flavor", ["iwahori", "nil"])
def test_normal_form_matches_the_center_element_fold(flavor, ring):
    # every T_w with w = e^{(k,k)} w', w' translation-free, |n1 - n2| <= 8, |k| <= 2
    for d in range(-8, 9):
        for fp in ("e", "s"):
            for k in range(-2, 3):
                x = HeckeElement.basis(flavor, ring, WeylElement(max(d, 0), max(-d, 0), fp).shift(k))
                assert normal_form_over_center(x) == normal_form_by_center_elements(x)
    rng = random.Random(31)
    for _ in range(300):
        x = random_hecke(rng, flavor, ring)
        assert normal_form_over_center(x) == normal_form_by_center_elements(x)
    with pytest.raises(ValueError):
        normal_form_over_center(T_S("h2", ring))


def test_center_embed_multiplicative():
    # the embedding of the center is recomposition from the coordinate of 1
    rng = random.Random(9)
    zero = CenterElement(ZQ)
    for flavor in ("iwahori", "nil"):

        def embed(z):
            return recompose_from_center((z, zero, zero, zero), flavor, ZQ)

        for _ in range(20):
            z1 = CenterElement(ZQ, {(rng.randint(0, 2), rng.randint(-1, 1)): ZQ.one})
            z2 = CenterElement(ZQ, {(rng.randint(0, 2), rng.randint(-1, 1)): ZQ.one})
            assert embed(z1 * z2) == embed(z1) * embed(z2)


def test_h2_model_displayed_images():
    Z = ZRingElement
    z2_mat = h2_matrix_model(zeta2_embedded("h2", ZQ))
    assert z2_mat == ((Z.gen("z2"), Z()), (Z(), Z.gen("z2")))
    xy = Z.gen("X") + Z.gen("Y")
    z1_mat = h2_matrix_model(zeta1_embedded("h2", ZQ))
    assert z1_mat == ((xy, Z()), (Z(), xy))
    one_mat = h2_matrix_model(HeckeElement.one("h2", ZQ))
    assert one_mat == ((Z.const(1), Z()), (Z(), Z.const(1)))


def test_h2_model_kills_s_squared_at_q0():
    s = T_S("h2", ZQ)
    mat = h2_matrix_model(specialize_q0(s * s))
    assert all(e.is_zero() for row in mat for e in row)


def test_h2_model_rejects_generic_q():
    with pytest.raises(ValueError):
        h2_matrix_model(T_S("h2", ZQ).scale(ZQ.q))


def test_zring_nilpotent_product():
    # XY = 0 in the coefficient ring, z2 is invertible
    assert (ZRingElement.gen("X") * ZRingElement.gen("Y")).is_zero()
    assert ZRingElement.gen("z2") * ZRingElement.gen("z2", -1) == ZRingElement.const(1)


def test_specialize_q0():
    x = T_S("iwahori", ZQ).scale(GenericScalar([2, 5])) + HeckeElement.one("iwahori", ZQ).scale(ZQ.q)
    y = specialize_q0(x)
    assert y == T_S("iwahori", ZQ).scale(GenericScalar([2]))


def test_toral_idempotents_q3():
    tower = build_tower(3, 1)
    q = tower.q
    lams = [(m1, m2) for m1 in range(q - 1) for m2 in range(q - 1)]
    idems = {lam: idempotent(tower, (lam,)) for lam in lams}
    for lam, e in idems.items():
        assert group_algebra_mul(e, e, q) == e
    for lam in lams:
        for mu in lams:
            if lam < mu:
                assert not group_algebra_mul(idems[lam], idems[mu], q)
    total: dict = {}
    for e in idems.values():
        for k, c in e.items():
            total[k] = total[k] + c if k in total else c
    total = {k: c for k, c in total.items() if not c.is_zero()}
    assert total == {(0, 0): tower.one()}


def test_orbits_q3():
    tower = build_tower(3, 1)
    orbs = orbits(tower)
    assert len(orbs) == 3
    sizes = sorted(len(o) for o in orbs)
    assert sizes == [1, 1, 2]
    flavors = sorted(component_iso(o)["flavor"] for o in orbs)
    assert flavors == ["h2", "iwahori", "iwahori"]


def orbits_by_seen_set(tower):
    """The reference: scan every label (m1, m2), m1 outer, and start a new
    orbit at each label no earlier orbit holds."""
    n = tower.q - 1
    seen = set()
    out = []
    for m1 in range(n):
        for m2 in range(n):
            lam = (m1, m2)
            if lam in seen:
                continue
            orb = tuple(sorted({lam, (m2, m1)}))
            seen.update(orb)
            out.append(orb)
    return out


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (5, 2)])
def test_orbits_keep_the_seen_set_order(p, f):
    tower = build_tower(p, f)
    assert orbits(tower) == orbits_by_seen_set(tower)


def test_orbits_q5():
    tower = build_tower(5, 1)
    orbs = orbits(tower)
    assert len(orbs) == 10
    regular = [o for o in orbs if len(o) == 2]
    assert len(regular) == 6


def test_hecke_json():
    x = basis(WeylElement(1, 0, "e"))
    data = x.to_json()
    assert isinstance(data, dict)


def test_term_order_of_repr_and_json_on_mixed_keys():
    W, G = weyl.WeylElement, GenericScalar
    x = HeckeElement(
        "h2",
        ZQ,
        {
            (2, W(0, 0, "e")): G((1,)),
            (1, W(1, -1, "s")): G((0, 2)),
            (1, W(-1, 0, "e")): G((-3,)),
            (2, W(-2, 3, "s")): G((1, 1)),
            (1, W(-1, 0, "s")): G((5,)),
        },
    )
    assert repr(x) == (
        "(-3)*T[(1, WeylElement(n1=-1, n2=0, finite='e'))]"
        " + (5)*T[(1, WeylElement(n1=-1, n2=0, finite='s'))]"
        " + (2*q)*T[(1, WeylElement(n1=1, n2=-1, finite='s'))]"
        " + (1 + q)*T[(2, WeylElement(n1=-2, n2=3, finite='s'))]"
        " + (1)*T[(2, WeylElement(n1=0, n2=0, finite='e'))]"
    )
    assert [(t["idem"], t["w"]) for t in x.to_json()["terms"]] == [
        (1, [-1, 0, "e"]),
        (1, [-1, 0, "s"]),
        (1, [1, -1, "s"]),
        (2, [-2, 3, "s"]),
        (2, [0, 0, "e"]),
    ]
    y = HeckeElement("iwahori", ZQ, {W(0, 0, "s"): G((1,)), W(-1, 2, "e"): G((2,)), W(-1, -3, "s"): G((0, -1))})
    assert repr(y) == (
        "(-1*q)*T[WeylElement(n1=-1, n2=-3, finite='s')]"
        " + (2)*T[WeylElement(n1=-1, n2=2, finite='e')]"
        " + (1)*T[WeylElement(n1=0, n2=0, finite='s')]"
    )


def test_ring_operation_results_keep_their_class_invariants():
    # sums and products are built by SparsePoly._new, which still runs each
    # class's _clean: zero coefficients drop, XY = 0, zeta1 stays a polynomial
    for flavor in ("iwahori", "h2"):
        x = T_S(flavor, ZQ) + T_U(flavor, ZQ)
        total = x + T_S(flavor, ZQ).scale(GenericScalar.const(-1))
        assert total == T_U(flavor, ZQ) and total.terms.keys() == T_U(flavor, ZQ).terms.keys()
        assert type(total) is HeckeElement and total.flavor == flavor and total.ring == ZQ
        assert (x - x).terms == {}
    product = ZRingElement.gen("X") * ZRingElement.gen("Y")
    assert product.terms == {} and type(product) is ZRingElement and product.ring is None
    assert ZRingElement.gen("X") * ZRingElement.gen("Y", 2) + ZRingElement.gen("z2") == ZRingElement.gen("z2")
    with pytest.raises(ValueError, match="zeta1 is not invertible"):
        CenterElement(ZQ)._new({(-1, 0): ZQ.one})


def test_hecke_products_over_gf9_drop_the_cancelled_key():
    # at q = 0, S^2 = -S in the iwahori flavor: (S + 1)S = 0 and
    # (S + 1)(S + U) = SU + U, the two S terms cancelling
    ring = FieldRing(build_tower(3, 1))
    S, U, one = T_S("iwahori", ring), T_U("iwahori", ring), HeckeElement.one("iwahori", ring)
    assert ((S + one) * S).terms == {}
    product = (S + one) * (S + U)
    assert product.terms == {weyl.S * weyl.U: ring.one, weyl.U: ring.one}
    assert type(product) is HeckeElement and product.flavor == "iwahori" and product.ring == ring


def test_public_constructor_still_checks_the_flavor():
    with pytest.raises(ValueError, match="unknown flavor 'bogus'"):
        HeckeElement("bogus", ZQ, {weyl.E: ZQ.one})
    with pytest.raises(ValueError, match="unknown flavor"):
        HeckeElement.zero("bogus", ZQ)


def test_the_product_table_holds_no_zero_coefficient(fresh_tables):
    verify.suite_chowrep(0, n_random=100)
    verify.suite_relations(0, 500)
    entries = [entry for rows in hecke._PRODUCTS.values() for row in rows.values() for entry in row.values()]
    assert entries
    assert [(v, c) for entry in entries for v, c in entry if c.is_zero()] == []

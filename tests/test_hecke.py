import random

import pytest

from heckedem import hecke, weyl
from heckedem.charrings import ZQ, FieldRing
from heckedem.coeffs import GenericScalar, build_tower
from heckedem.hecke import (
    CenterElement,
    HeckeElement,
    T_S,
    T_S0,
    T_U,
    ZRingElement,
    center_embed,
    component_iso,
    group_algebra_mul,
    h2_matrix_model,
    idem_element,
    idempotent,
    normal_form_over_center,
    orbits,
    recompose_from_center,
    specialize_q0,
    zeta1_embedded,
    zeta2_embedded,
)
from heckedem.verify import random_hecke
from heckedem.weyl import WeylElement, translation


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
    assert lhs == basis(translation(1, 0))
    # T_u T_u = T_{e^{(1,1)}}
    assert basis(weyl.U) * basis(weyl.U) == basis(translation(1, 1))


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
    assert idem_element(ZQ, 1) + idem_element(ZQ, 2) == HeckeElement.one("h2", ZQ)


def test_center_embeddings():
    for flavor in ("iwahori", "nil"):
        z2 = zeta2_embedded(flavor, ZQ)
        assert z2 == HeckeElement.basis(flavor, ZQ, translation(1, 1))
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
        zero = CenterElement.zero(ZQ)
        coords = normal_form_over_center(T_S(flavor, ZQ))
        assert coords == (zero, CenterElement.one(ZQ), zero, zero)
        coords = normal_form_over_center(zeta1_embedded(flavor, ZQ))
        assert coords == (CenterElement.monomial(ZQ, 1, 0), zero, zero, zero)
        coords = normal_form_over_center(T_U(flavor, ZQ) * T_U(flavor, ZQ))
        assert coords == (CenterElement.monomial(ZQ, 0, 1), zero, zero, zero)


def test_normal_form_roundtrip_random():
    rng = random.Random(5)
    for flavor in ("iwahori", "nil"):
        for _ in range(40):
            x = random_hecke(rng, flavor)
            coords = normal_form_over_center(x)
            assert recompose_from_center(coords, flavor, ZQ) == x


def test_center_embed_multiplicative():
    rng = random.Random(9)
    for flavor in ("iwahori", "nil"):
        for _ in range(20):
            z1 = CenterElement.monomial(ZQ, rng.randint(0, 2), rng.randint(-1, 1))
            z2 = CenterElement.monomial(ZQ, rng.randint(0, 2), rng.randint(-1, 1))
            lhs = center_embed(z1 * z2, flavor, ZQ)
            assert lhs == center_embed(z1, flavor, ZQ) * center_embed(z2, flavor, ZQ)


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
    idems = {lam: idempotent(tower, lam).as_dict() for lam in lams}
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


def test_orbits_q5():
    tower = build_tower(5, 1)
    orbs = orbits(tower)
    assert len(orbs) == 10
    regular = [o for o in orbs if len(o) == 2]
    assert len(regular) == 6


def test_hecke_json():
    x = basis(translation(1, 0))
    data = x.to_json()
    assert isinstance(data, dict)

"""Golden hashes of derived constructions, from normal forms to the 8-dimensional module.

The hashes are SHA-256 of a canonical text dump:

* the coordinates (c_1, c_S, c_U, c_SU) over the center of every T_w
  with |n1|, |n2| <= 4 (162 elements), in the iwahori and nil flavors,
  over Z[q] and over GF(9);
* the matrices e1, e2, S, U, Uinv of the 8-dimensional module at theta =
  (0, b), read through ``gen_dict``, for every b in GF(q^2)^x, at (p, f)
  = (3, 1), (5, 1) and (3, 2);
* the images of the same 162 T_w under the Demazure representations:
  A(q) over Z[q] and over GF(9), and Anil over GF(9) and over GF(25);
* the products T_w * T_{w2} (``to_json``) of all 2500 pairs from the 50
  elements with |n1|, |n2| <= 2, in the iwahori, nil and h2 flavors over
  Z[q] and in the nil and h2 flavors over GF(9);
* the matrices S, U and Uinv of ``krep.reduce_at_theta``, read through
  ``gen_dict``, at every theta = (tau1, tau2) with tau2 != 0, over GF(9),
  GF(25) and GF(81);
* the structure report of ``chowrep.semisimplify`` (dims, chain,
  all_factors_standard, semisimple, eigenvectors_in_4dim_stage) of the
  8-dimensional module for every b in GF(q^2)^x, at (p, f) = (3, 1),
  (5, 1) and (3, 2);
* the images ``repr(h2_matrix_model(e_i T_w))`` of the 2x2 matrix model
  of the h2 flavor at q = 0 over Z[q], for i in {1, 2} and the same 162 T_w
  (324 images).

They pin these constructions against any change in how they are computed.
"""

import hashlib
import json

import pytest

from heckedem import chowrep, krep
from heckedem.charrings import ZQ, FieldRing
from heckedem.coeffs import build_tower
from heckedem.hecke import HeckeElement, T_w, h2_matrix_model, normal_form_over_center
from heckedem.weyl import WeylElement

NORMAL_FORM_GOLDEN = {
    ("iwahori", "Z[q]"): "178d3ac24b16432face5036f1cd297602cbbddb2e5c3fd3bba3748f6e2720eca",
    ("nil", "Z[q]"): "983b903b1b2d9bea894503ac28089f52630ea0fb3e61562b81aa2c28dc192cbe",
    ("iwahori", "GF(9)"): "b9f825ea303135f253789d47431182e3668a4c0fed2962314d11447f2f803379",
    ("nil", "GF(9)"): "467ef8f02ce8556260ec1281b38025a02d91bb6447fca633437ee96212e53e28",
}

REP_GOLDEN = {
    ("rep_A", "Z[q]"): "f46dc08739c01d1a2456a90da94f55321242a0de54239973aa351b9d36f4d292",
    ("rep_A", "GF(9)"): "bcd82ff1ad7f5f468a80c03854eeead1b13f6726b2437ab21e6abd043954cf5d",
    ("rep_Anil", "GF(9)"): "e9378a14f7e78bf12ed73653afcbdb5b165fba2bfeb6d87cf7a6f1a7d1ef41f7",
    ("rep_Anil", "GF(25)"): "70d907af5e4f76b4f8940f762437c0a91184233a9236fc08714ca781ff9f4116",
}

REPS = {"rep_A": ("iwahori", krep.rep_A), "rep_Anil": ("nil", chowrep.rep_Anil)}
RINGS = {"Z[q]": lambda: ZQ, "GF(9)": lambda: FieldRing(build_tower(3, 1)), "GF(25)": lambda: FieldRing(build_tower(5, 1))}

M8_GOLDEN = {
    (3, 1): "4edf76cc75936e795bd8ebe1338a3903adbbf17703ce57546c644674ba991c53",
    (5, 1): "fb34c18fd52e32344306f40d00ab08320d0af4be6f8ff4b5e62d3d525b11e96b",
    (3, 2): "8210226101b6d95185abc7ac04bc3404d29d51cb673a773a0dc269ddb8603cea",
}


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def center_dump(cz) -> str:
    return repr(sorted((key, tuple(c.coeffs)) for key, c in cz.terms.items()))


def box():
    """The 162 elements (n1, n2, finite) with |n1|, |n2| <= 4."""
    for n1 in range(-4, 5):
        for n2 in range(-4, 5):
            for finite in ("e", "s"):
                yield n1, n2, finite


def normal_form_lines(flavor: str, ring):
    for n1, n2, finite in box():
        coords = normal_form_over_center(T_w(flavor, ring, WeylElement(n1, n2, finite)))
        yield f"{n1} {n2} {finite} " + " | ".join(center_dump(cz) for cz in coords)


def rep_lines(name: str, ring):
    flavor, rep = REPS[name]
    for n1, n2, finite in box():
        mat = rep(T_w(flavor, ring, WeylElement(n1, n2, finite)))
        yield f"{n1} {n2} {finite} " + " | ".join(center_dump(entry) for row in mat for entry in row)


def m8_lines(p: int, f: int):
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    for b in tower.ext_elements():
        if b.is_zero():
            continue
        m8 = chowrep.reduce_regular_at_theta((ring.zero, b), ring)
        for name, mat in m8.gen_dict().items():
            yield f"{b.coeffs} {name} " + repr([[x.coeffs for x in row] for row in mat])


@pytest.mark.parametrize("flavor,ring_name", sorted(NORMAL_FORM_GOLDEN))
def test_normal_forms_match_golden(flavor, ring_name):
    ring = ZQ if ring_name == "Z[q]" else FieldRing(build_tower(3, 1))
    assert digest(normal_form_lines(flavor, ring)) == NORMAL_FORM_GOLDEN[(flavor, ring_name)]


@pytest.mark.parametrize("name,ring_name", sorted(REP_GOLDEN))
def test_demazure_images_match_golden(name, ring_name):
    assert digest(rep_lines(name, RINGS[ring_name]())) == REP_GOLDEN[(name, ring_name)]


@pytest.mark.parametrize("p,f", sorted(M8_GOLDEN))
def test_regular_module_matrices_match_golden(p, f):
    assert digest(m8_lines(p, f)) == M8_GOLDEN[(p, f)]


PRODUCT_GOLDEN = {
    ("iwahori", "Z[q]"): "b6eca292ad85e2d82a7fe7107b96205d27a39308150e5c324a5280291dd790dc",
    ("nil", "Z[q]"): "bd74cea19a50dfdb9d56f37b3329613f4adbaf7e4a87abc8a120020bdfe7818e",
    ("h2", "Z[q]"): "6e389e7b6443f4438c408237fa87b9084553aadd62c1205f01167e4c6ba9ac52",
    ("nil", "GF(9)"): "b3cdb86f9220c68f0d71a3bb25e32109b3edecef3d6e1493fe5b32817b79eed4",
    ("h2", "GF(9)"): "1025dd282b2b4b6b6276c1803801ca5d2b3d0cd9ed1b93433b7b5fcb60ff8f56",
}


def product_lines(flavor: str, ring):
    elements = [WeylElement(n1, n2, finite) for n1 in range(-2, 3) for n2 in range(-2, 3) for finite in ("e", "s")]
    basis = [T_w(flavor, ring, w) for w in elements]
    for w, x in zip(elements, basis):
        for w2, y in zip(elements, basis):
            yield f"{w.to_json()} {w2.to_json()} " + json.dumps((x * y).to_json(), sort_keys=True)


@pytest.mark.parametrize("flavor,ring_name", sorted(PRODUCT_GOLDEN))
def test_hecke_products_match_golden(flavor, ring_name):
    assert digest(product_lines(flavor, RINGS[ring_name]())) == PRODUCT_GOLDEN[(flavor, ring_name)]


THETA_GOLDEN = {
    (3, 1): "e5f6e1dd098c22c548e74eac3cf3ed4c54ed8002cbb6fe010d792abeadbfcaba",
    (5, 1): "571da827fbe81578ddf51cc1073a513ff0b12f0e07463110c95f3c0d346a6701",
    (3, 2): "c32dd6e56c23d1ec851d1f45d139b3bd1cdf7dc99e9bb00a82b6fd7c5cd5d929",
}

STRUCTURE_GOLDEN = {
    (3, 1): "59add5ed59c484dd68f246a19a7dcfbf98c81cec1d81004dc43c0ebe89f7576e",
    (5, 1): "988f46ee8a692a32a35113203c295bd5932c5df9056c999577384ab4067997f5",
    (3, 2): "c15d12050c7fc6eafb2f88483c3842b99bcaf7282eed493650ba553b4c7e4e63",
}


def matrix_dump(mat) -> str:
    return repr([[x.coeffs for x in row] for row in mat])


def theta_lines(p: int, f: int):
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    for tau1 in tower.ext_elements():
        for tau2 in tower.ext_elements():
            if tau2.is_zero():
                continue
            mod = krep.reduce_at_theta((tau1, tau2), ring)
            mats = mod.gen_dict().items()
            yield f"{tau1.coeffs} {tau2.coeffs} " + " | ".join(f"{name} {matrix_dump(mat)}" for name, mat in mats)


def structure_lines(p: int, f: int):
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    for b in tower.ext_elements():
        if b.is_zero():
            continue
        r = chowrep.semisimplify(chowrep.reduce_regular_at_theta((ring.zero, b), ring), b)
        chain = [(matrix_dump(rows), list(pivots)) for rows, pivots in r["chain"]]
        yield (
            f"{b.coeffs} {r['dims']} {chain} {r['all_factors_standard']} "
            f"{r['semisimple']} {r['eigenvectors_in_4dim_stage']}"
        )


@pytest.mark.parametrize("p,f", sorted(THETA_GOLDEN))
def test_reductions_at_theta_match_golden(p, f):
    assert digest(theta_lines(p, f)) == THETA_GOLDEN[(p, f)]


@pytest.mark.parametrize("p,f", sorted(STRUCTURE_GOLDEN))
def test_regular_module_structure_matches_golden(p, f):
    assert digest(structure_lines(p, f)) == STRUCTURE_GOLDEN[(p, f)]


H2_MODEL_GOLDEN = "2654e705ee05937a72e947ba7292079cfe7ff60a205d60b781583563a922f80c"


def h2_model_lines():
    for i in (1, 2):
        for n1, n2, finite in box():
            x = HeckeElement.basis("h2", ZQ, WeylElement(n1, n2, finite), i)
            yield f"{i} {n1} {n2} {finite} " + repr(h2_matrix_model(x))


def test_h2_matrix_model_matches_golden():
    assert digest(h2_model_lines()) == H2_MODEL_GOLDEN

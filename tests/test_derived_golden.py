"""Golden hashes of the normal forms over the center and of the 8-dimensional module.

The hashes are SHA-256 of a canonical text dump:

* the coordinates (c_1, c_S, c_U, c_SU) over the center of every T_w
  with |n1|, |n2| <= 4 (162 elements), in the iwahori and nil flavors,
  over Z[q] and over GF(9);
* the five generator matrices e1, e2, S, U, Uinv of the 8-dimensional
  module at theta = (0, b), for every b in GF(q^2)^x, at (p, f) = (3, 1),
  (5, 1) and (3, 2).

They pin both constructions against any change in how they are computed.
"""

import hashlib

import pytest

from heckedem import chowrep
from heckedem.charrings import ZQ, FieldRing
from heckedem.coeffs import build_tower
from heckedem.hecke import T_w, normal_form_over_center
from heckedem.weyl import WeylElement

NORMAL_FORM_GOLDEN = {
    ("iwahori", "Z[q]"): "178d3ac24b16432face5036f1cd297602cbbddb2e5c3fd3bba3748f6e2720eca",
    ("nil", "Z[q]"): "983b903b1b2d9bea894503ac28089f52630ea0fb3e61562b81aa2c28dc192cbe",
    ("iwahori", "GF(9)"): "b9f825ea303135f253789d47431182e3668a4c0fed2962314d11447f2f803379",
    ("nil", "GF(9)"): "467ef8f02ce8556260ec1281b38025a02d91bb6447fca633437ee96212e53e28",
}

M8_GOLDEN = {
    (3, 1): "4edf76cc75936e795bd8ebe1338a3903adbbf17703ce57546c644674ba991c53",
    (5, 1): "fb34c18fd52e32344306f40d00ab08320d0af4be6f8ff4b5e62d3d525b11e96b",
    (3, 2): "8210226101b6d95185abc7ac04bc3404d29d51cb673a773a0dc269ddb8603cea",
}


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def center_dump(cz) -> str:
    return repr(sorted((key, tuple(c.coeffs)) for key, c in cz.terms.items()))


def normal_form_lines(flavor: str, ring):
    for n1 in range(-4, 5):
        for n2 in range(-4, 5):
            for finite in ("e", "s"):
                coords = normal_form_over_center(T_w(flavor, ring, WeylElement(n1, n2, finite)))
                yield f"{n1} {n2} {finite} " + " | ".join(center_dump(cz) for cz in coords)


def m8_lines(p: int, f: int):
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    for b in tower.ext_elements():
        if b.is_zero():
            continue
        m8 = chowrep.reduce_regular_at_theta((ring.zero, b), ring)
        for name, mat in m8.gens:
            yield f"{b.coeffs} {name} " + repr([[x.coeffs for x in row] for row in mat])


@pytest.mark.parametrize("flavor,ring_name", sorted(NORMAL_FORM_GOLDEN))
def test_normal_forms_match_golden(flavor, ring_name):
    ring = ZQ if ring_name == "Z[q]" else FieldRing(build_tower(3, 1))
    assert digest(normal_form_lines(flavor, ring)) == NORMAL_FORM_GOLDEN[(flavor, ring_name)]


@pytest.mark.parametrize("p,f", sorted(M8_GOLDEN))
def test_regular_module_matrices_match_golden(p, f):
    assert digest(m8_lines(p, f)) == M8_GOLDEN[(p, f)]

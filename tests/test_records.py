"""Value semantics of the six immutable records: ``FieldTower``,
``ZqRing``, ``FieldRing``, ``Demazure``, ``FiniteModule`` and
``GaloisParam``.

Each compares and hashes by its fields (``Demazure`` by identity, since
it keys ``word_image``), keeps its constructor's errors, and refuses
assignment to any field with AttributeError.
"""

import pytest

from heckedem import krep
from heckedem.charrings import ZQ, FieldRing, ZqRing
from heckedem.coeffs import FieldTower, build_tower
from heckedem.galois import GaloisParam
from heckedem.krep import FiniteModule


def test_records_compare_and_hash_by_their_fields_and_refuse_assignment():
    t = build_tower(3, 1)
    twin = FieldTower(t.p, t.f, t.modulus_2f, t.generator)  # equal, built apart
    other = build_tower(5, 1)
    assert twin is not t and twin == t and hash(twin) == hash(t) and twin != other
    assert twin.q == t.q == 3
    with pytest.raises(ValueError):
        FieldTower(t.p, t.f, t.modulus_2f, (2,))  # -1 has order 2 in GF(9)^x
    with pytest.raises(TypeError):
        FieldTower(t.p, t.f, t.modulus_2f, t.generator, q=3)  # q is derived

    assert ZqRing() == ZQ and hash(ZqRing()) == hash(ZQ)

    ring, ring_twin = FieldRing(t), FieldRing(twin, "ext")
    assert ring_twin is not ring and ring_twin == ring and hash(ring_twin) == hash(ring)
    assert ring != FieldRing(other) and ring != ZQ and ZQ != ring
    with pytest.raises(ValueError):
        FieldRing(t, "base")

    A = krep.A_Q
    copy = krep.Demazure(A.flavor, A.cls, A.S, A.U, A.zeta1, A.zeta2_degree)
    assert A == A and copy != A and hash(A) == object.__hash__(A)

    m = krep.standard_module(t.gen(), t.gen_power(3), ring)
    m_twin = FiniteModule(m.flavor, ring_twin, m.gens, twin.element(m.zeta2.coeffs))
    assert m_twin is not m and m_twin == m and hash(m_twin) == hash(m)
    assert FiniteModule(m.flavor, ring, m.gens, t.one()) != m
    assert FiniteModule("nil", ring, m.gens, m.zeta2) != m

    b, y = t.gen_power(2), t.gen()
    rho = GaloisParam(t, b, y)
    rho_twin = GaloisParam(twin, twin.element(b.coeffs), twin.element(y.coeffs))
    assert rho_twin == rho and hash(rho_twin) == hash(rho)
    assert GaloisParam(t, b, y.frobenius()) != rho and GaloisParam(t, t.one(), y) != rho
    with pytest.raises(ValueError):
        GaloisParam(t, t.zero(), y)  # b = 0
    with pytest.raises(ValueError):
        GaloisParam(t, b, t.gen_power(4))  # y = -1 lies in GF(3)

    fields = [
        (t, ("p", "f", "modulus_2f", "generator", "q")),
        (ZQ, ("zero", "one", "q", "is_field")),
        (ring, ("tower", "level")),
        (A, ("flavor", "cls", "S", "U", "zeta1", "zeta2_degree")),
        (m, ("flavor", "ring", "gens", "zeta2")),
        (rho, ("tower", "b", "y")),
    ]
    for record, names in fields:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

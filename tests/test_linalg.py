import pytest

from heckedem import linalg
from heckedem.charrings import FieldRing
from heckedem.coeffs import build_tower


def test_intertwiner_scan_refuses_oversized_solution_space():
    # zero 3 x 3 generators leave all 9 entries of X free: 9^9 > 2^22 candidates
    ring = FieldRing(build_tower(3, 1))
    zero = ((ring.zero,) * 3,) * 3
    assert 9**9 > linalg.MAX_INTERTWINER_SCAN
    with pytest.raises(ValueError, match="too large"):
        linalg.solve_intertwiner([zero], [zero], ring)

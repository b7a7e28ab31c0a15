"""Host-speed calibration for the end-to-end timings.

The benchmark host's speed drifts: five runs of the same passes within ten
minutes had median pass times from 0.50 s to 0.70 s, and a fixed
pure-Python loop varied by ±40 % over seconds.  So each pass is bracketed
by a fixed pure-Python loop shaped like heckedem's hot path (small
immutable coefficient objects multiplied and added in a 4x4 matrix-vector
product), and every timing is scaled to the reference speed:

    adjusted = measured * REFERENCE_S / calibration

where ``calibration`` is the loop's time measured next to the work.  The
loop runs no heckedem code, so a change to the package moves ``measured``
and not ``calibration``.  Raw wall-clock figures are reported alongside.
"""

from __future__ import annotations

import time

# the loop's time at the reference speed: about its median on the 2-core
# Intel Xeon host (Python 3.11) the benchmark was written on
REFERENCE_S = 0.040


class _Coeff:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = tuple(x % 7 for x in c)

    def __add__(self, other):
        return _Coeff(tuple(a + b for a, b in zip(self.c, other.c)))

    def __mul__(self, other):
        out = [0, 0, 0]
        for i, x in enumerate(self.c):
            for j, y in enumerate(other.c):
                out[(i + j) % 3] += x * y
        return _Coeff(out)


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop, now."""
    start = time.perf_counter()
    rows = [[_Coeff((i, j, i + j)) for j in range(4)] for i in range(4)]
    v = [_Coeff((1, i, 2)) for i in range(4)]
    for _ in range(500):
        v = [sum((r[k] * v[k] for k in range(1, 4)), r[0] * v[0]) for r in rows]
    return time.perf_counter() - start

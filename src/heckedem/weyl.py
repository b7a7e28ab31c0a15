"""The Iwahori-Weyl group W = Z^2 x| {e, s} for GL2.

Elements are written e^{(n1,n2)} * w with w in {e, s}; s swaps the two
coordinates.  Distinguished elements:

    s  = (0,0,s)           simple reflection of W0
    u  = (1,0,s)           length-zero generator of Omega
    s0 = (1,-1,s) = u s u^{-1}   affine simple reflection

Length is given by a closed formula validated against a BFS oracle.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType


class WeylElement(tuple):
    """e^{(n1,n2)} w as the tuple (n1, n2, finite), hashed and compared in C
    like ``linalg.Matrix``.  The constructor checks the finite part; the
    group law, ``inverse`` and ``shift`` build results from valid parts."""

    __slots__ = ()

    def __new__(cls, n1: int, n2: int, finite: str):
        if finite not in ("e", "s"):
            raise ValueError(f"finite part must be 'e' or 's', got {finite!r}")
        return _tuple_new(cls, (n1, n2, finite))

    n1 = property(itemgetter(0))
    n2 = property(itemgetter(1))
    finite = property(itemgetter(2))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (e^a w)(e^b w') = e^{a + w.b} (w w')
        n1, n2, f = self
        b1, b2, g = other
        if f == "s":
            b1, b2 = b2, b1
        return _tuple_new(WeylElement, (n1 + b1, n2 + b2, "e" if f == g else "s"))

    def inverse(self) -> "WeylElement":
        n1, n2, f = self
        return _tuple_new(WeylElement, (-n1, -n2, f) if f == "e" else (-n2, -n1, f))

    def shift(self, k: int) -> "WeylElement":
        """e^{(k,k)} w: the same finite part, both exponents moved by k."""
        n1, n2, f = self
        return _tuple_new(WeylElement, (n1 + k, n2 + k, f))

    def __repr__(self) -> str:
        return f"WeylElement(n1={self[0]!r}, n2={self[1]!r}, finite={self[2]!r})"

    def to_json(self) -> list:
        return list(self)


_tuple_new = tuple.__new__

E = WeylElement(0, 0, "e")
S = WeylElement(0, 0, "s")
U = WeylElement(1, 0, "s")
U_INV = U.inverse()
S0 = WeylElement(1, -1, "s")

if S0 != U * S * U.inverse():
    raise RuntimeError("s0 != u s u^{-1}")


def length(w: WeylElement) -> int:
    """Coxeter length, inflated to W via l|_Omega = 0."""
    n1, n2, finite = w
    return abs(n1 - n2) if finite == "e" else abs(n1 - n2 - 1)


BFS_BOUND = 12  # targets with |n_i| <= 12; the search box adds a margin of 2


def length_bfs(w: WeylElement) -> int:
    """BFS oracle: minimal number of {s0, s}-letters over all products of
    s0, s, u, u^{-1} reaching w; u-steps are free.

    Looked up in the distance table of ``bfs_distances()``.
    """
    if max(abs(w.n1), abs(w.n2)) > BFS_BOUND:
        raise ValueError("target outside the BFS search box")
    try:
        return bfs_distances()[w]
    except KeyError:
        raise RuntimeError("BFS exhausted without reaching the target") from None


@lru_cache(maxsize=None)
def bfs_distances() -> MappingProxyType:
    """0-1 BFS from the identity over the box |n_i| <= BFS_BOUND + 2, run
    to completion once: the {s0, s}-letter distance of every element
    reached, with u-steps free."""
    dist = {E: 0}
    dq = deque([E])
    while dq:
        x = dq.popleft()
        d = dist[x]
        for gen, cost in ((S0, 1), (S, 1), (U, 0), (U_INV, 0)):
            y = x * gen
            if max(abs(y.n1), abs(y.n2)) > BFS_BOUND + 2:
                continue
            if y not in dist or dist[y] > d + cost:
                dist[y] = d + cost
                if cost == 0:
                    dq.appendleft(y)
                else:
                    dq.append(y)
    return MappingProxyType(dist)


def _u_power(k: int) -> WeylElement:
    # u^{2m} = e^{(m,m)}, u^{2m+1} = e^{(m+1,m)} s
    if k % 2 == 0:
        m = k // 2
        return WeylElement(m, m, "e")
    m = (k - 1) // 2
    return WeylElement(m + 1, m, "s")


def act_on_index(w: WeylElement, i: int) -> int:
    """Action of W through W0 on {1, 2}."""
    if i not in (1, 2):
        raise ValueError("index must be 1 or 2")
    return i if w.finite == "e" else 3 - i

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
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType


@dataclass(frozen=True)
class WeylElement:
    n1: int
    n2: int
    finite: str  # "e" or "s"

    def __post_init__(self):
        if self.finite not in ("e", "s"):
            raise ValueError(f"finite part must be 'e' or 's', got {self.finite!r}")

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (e^a w)(e^b w') = e^{a + w.b} (w w')
        if self.finite == "e":
            b1, b2 = other.n1, other.n2
        else:
            b1, b2 = other.n2, other.n1
        finite = "e" if self.finite == other.finite else "s"
        return WeylElement(self.n1 + b1, self.n2 + b2, finite)

    def inverse(self) -> "WeylElement":
        if self.finite == "e":
            return WeylElement(-self.n1, -self.n2, "e")
        return WeylElement(-self.n2, -self.n1, "s")

    def to_json(self) -> list:
        return [self.n1, self.n2, self.finite]

    @staticmethod
    def from_json(data) -> "WeylElement":
        return WeylElement(int(data[0]), int(data[1]), str(data[2]))


E = WeylElement(0, 0, "e")
S = WeylElement(0, 0, "s")
U = WeylElement(1, 0, "s")
U_INV = U.inverse()
S0 = WeylElement(1, -1, "s")

if S0 != U * S * U.inverse():
    raise RuntimeError("s0 != u s u^{-1}")


def translation(n1: int, n2: int) -> WeylElement:
    return WeylElement(n1, n2, "e")


def length(w: WeylElement) -> int:
    """Coxeter length, inflated to W via l|_Omega = 0."""
    if w.finite == "e":
        return abs(w.n1 - w.n2)
    return abs(w.n1 - w.n2 - 1)


def length_bfs(w: WeylElement, bound: int = 12) -> int:
    """BFS oracle: minimal number of {s0, s}-letters over all products of
    s0, s, u, u^{-1} reaching w; u-steps are free.

    Looked up in the distance table of ``bfs_distances(bound)``.
    """
    if max(abs(w.n1), abs(w.n2)) > bound:
        raise ValueError("target outside the BFS search box")
    try:
        return bfs_distances(bound)[w]
    except KeyError:
        raise RuntimeError("BFS exhausted without reaching the target") from None


@lru_cache(maxsize=None)
def bfs_distances(bound: int = 12) -> MappingProxyType:
    """0-1 BFS from the identity over the box |n_i| <= bound + 2, run to
    completion once per bound: the {s0, s}-letter distance of every
    element reached, with u-steps free."""
    dist = {E: 0}
    dq = deque([E])
    while dq:
        x = dq.popleft()
        d = dist[x]
        for gen, cost in ((S0, 1), (S, 1), (U, 0), (U_INV, 0)):
            y = x * gen
            if max(abs(y.n1), abs(y.n2)) > bound + 2:
                continue
            if y not in dist or dist[y] > d + cost:
                dist[y] = d + cost
                if cost == 0:
                    dq.appendleft(y)
                else:
                    dq.append(y)
    return MappingProxyType(dist)


@dataclass(frozen=True)
class ReducedWord:
    letters: tuple[str, ...]  # entries "s0" or "s"
    omega_power: int

    def evaluate(self) -> WeylElement:
        return _eval_word(self)


def _eval_word(word: "ReducedWord") -> WeylElement:
    acc = E
    for letter in word.letters:
        acc = acc * (S0 if letter == "s0" else S)
    k = word.omega_power
    step = U if k >= 0 else U_INV
    for _ in range(abs(k)):
        acc = acc * step
    return acc


def reduced_word(w: WeylElement) -> ReducedWord:
    """Greedy reduced word: peel descents from the left, preferring s0."""
    letters = []
    x = w
    while length(x) > 0:
        for letter, gen in (("s0", S0), ("s", S)):
            if length(gen * x) < length(x):
                letters.append(letter)
                x = gen * x
                break
        else:
            raise RuntimeError(f"no descent found at {x}, length {length(x)}")
    # x is now in Omega: x = u^k
    k = 2 * x.n1 - 1 if x.finite == "s" else 2 * x.n1
    if x != _u_power(k):
        raise RuntimeError(f"length-zero remainder {x} is not a power of u")
    word = ReducedWord(tuple(letters), k)
    if _eval_word(word) != w:
        raise RuntimeError(f"reduced word {word} does not evaluate to {w}")
    return word


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

"""Finite windows of the left-multiplication Cayley graph of a free group.

Vertices are reduced words of length at most the window radius; ``m``
and ``a_j m`` span an edge, so the graph metric is ``d(u, v) = |v u^{-1}|``
and the window is the ball around the empty word in a ``2n``-regular
tree.  Stripping the first letter moves one step toward the root, which
makes the reversed letter sequence an address in the abstract rooted
tree.

Sets of the form "all words carrying ``v`` as a suffix" are the
subtrees of the window.  Their edge boundaries inside growing windows
either stabilise or keep growing, and the difference functions

    ``gamma_g(h) = r(g h) - r(h)``

built from an indicator ``r`` inherit an exact chain identity
``gamma_{g q}(h) = gamma_g(q h) + gamma_q(h)`` straight from the
telescoping of ``r``.  The module quantifies both phenomena on explicit
windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import ConstraintViolation
from .groups import FreeWord, free_reduce, word_from_json
from .treeball import require_ball_size


@dataclass(frozen=True)
class CayleyWindow:
    """Ball of reduced words with edges given by left multiplication."""

    rank: int
    radius: int

    def __post_init__(self):
        if self.rank < 2:
            raise ConstraintViolation(f"rank must be at least 2, got {self.rank}")
        if self.radius < 1:
            raise ConstraintViolation(f"radius must be at least 1, got {self.radius}")
        require_ball_size(2 * self.rank - 1, self.radius)

    def vertices(self) -> List[FreeWord]:
        """All words up to the radius, breadth first, empty word first."""
        out = [FreeWord((), self.rank)]
        frontier = [FreeWord((), self.rank)]
        for _ in range(self.radius):
            grown: List[FreeWord] = []
            for m in frontier:
                grown.extend(self.children(m))
            out.extend(grown)
            frontier = grown
        return out

    def contains(self, m: FreeWord) -> bool:
        return m.rank == self.rank and len(m.letters) <= self.radius

    def children(self, m: FreeWord) -> List[FreeWord]:
        """Words one letter longer, ordered by the prepended letter."""
        if len(m.letters) >= self.radius:
            return []
        blocked = -m.letters[0] if m.letters else 0
        out = []
        for j in range(1, self.rank + 1):
            for letter in (j, -j):
                if letter != blocked:
                    out.append(FreeWord((letter,) + m.letters, self.rank))
        return out

    def edges(self) -> List[Tuple[FreeWord, FreeWord]]:
        """Each edge once, as ``(m, a_j m)`` with a positive generator.

        Distinct positive generators acting on distinct tails never
        produce the same unordered pair, so no deduplication is needed.
        """
        out = []
        for m in self.vertices():
            for j in range(1, self.rank + 1):
                target = free_reduce((j,) + m.letters, self.rank)
                if len(target.letters) <= self.radius:
                    out.append((m, target))
        return out



def boundary_edge_count(window: CayleyWindow, subset: frozenset) -> int:
    """Edges of the window with exactly one endpoint in the subset."""
    return sum(1 for t, h in window.edges() if (t in subset) != (h in subset))


def suffix_indicator(v: FreeWord) -> Callable[[FreeWord], int]:
    """``1`` on words ending with ``v``; the subtree indicator."""
    tail = v.letters

    def r(m: FreeWord) -> int:
        return 1 if len(m.letters) >= len(tail) and m.letters[len(m.letters) - len(tail):] == tail else 0

    return r


def parity_indicator() -> Callable[[FreeWord], int]:
    """``1`` on words of even length; every edge crosses its boundary."""

    def r(m: FreeWord) -> int:
        return 1 if len(m.letters) % 2 == 0 else 0

    return r


def indicator_from_json(data: dict, rank: int) -> Callable[[FreeWord], int]:
    """Parse a set descriptor: ``{"kind":"suffix","v":[1]}`` or ``{"kind":"parity"}``."""
    if not isinstance(data, dict):
        raise ConstraintViolation(f"a set descriptor must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "suffix":
        return suffix_indicator(word_from_json(data.get("v", []), rank))
    if kind == "parity":
        return parity_indicator()
    raise ConstraintViolation(f"unknown set descriptor kind {kind!r}")


def subset_from_json(window: CayleyWindow, data: dict) -> frozenset:
    """The window vertices on which the described indicator equals 1."""
    r = indicator_from_json(data, window.rank)
    return frozenset(m for m in window.vertices() if r(m) == 1)


def gamma_difference(
    window: CayleyWindow,
    r: Callable[[FreeWord], object],
    g: FreeWord,
) -> Dict[FreeWord, object]:
    """``h -> r(g h) - r(h)`` over all ``h`` keeping ``g h`` in the window.

    Nonzero entries concentrate near the root: ``g h`` and ``h`` share
    every suffix longer than ``|g|``, so an indicator of a suffix set
    can only tell them apart within distance ``|g|`` of the root.
    """
    out: Dict[FreeWord, object] = {}
    for h in window.vertices():
        gh = g * h
        if not window.contains(gh):
            continue
        value = r(gh) - r(h)
        if value != 0:
            out[h] = value
    return out


def chain_identity_residual(
    window: CayleyWindow,
    r: Callable[[FreeWord], object],
    g: FreeWord,
    q: FreeWord,
) -> int:
    """Largest violation of the chain rule over the usable window.

    ``gamma_{g q}(h) = gamma_g(q h) + gamma_q(h)`` holds exactly for
    every ``h`` such that ``q h`` and ``g q h`` stay inside; integer
    data in, integer residual out.  The left side is the difference
    function of the product word ``g * q``, so a wrong free-group
    product shows up as a nonzero residual.
    """
    gamma_gq = gamma_difference(window, r, g * q)
    gamma_g = gamma_difference(window, r, g)
    gamma_q = gamma_difference(window, r, q)
    worst = 0
    for h in window.vertices():
        qh = q * h
        if not (window.contains(qh) and window.contains(g * qh)):
            continue
        lhs = gamma_gq.get(h, 0)
        rhs = gamma_g.get(qh, 0) + gamma_q.get(h, 0)
        worst = max(worst, abs(lhs - rhs))
    return worst


@dataclass(frozen=True)
class EnergyReport:
    """Edge energies of a function over a schedule of window radii."""

    radii: Tuple[int, ...]
    sums: Tuple[object, ...]
    verdict: str

    STABLE = "stabilizes"
    GROWING = "diverges"


ENERGY_STABILITY_TOL = Fraction(1, 10**9)


def immobile_function_test(
    rank: int,
    r: Callable[[FreeWord], object],
    radii: Sequence[int],
) -> EnergyReport:
    """Partial edge-energy sums of ``r`` over nested windows.

    The energy at radius ``rho`` is ``sum |r(m) - r(m')|^2`` over window
    edges.  The verdict is ``stabilizes`` when the last increments (up
    to three) all fall below ``1e-9``, ``diverges`` otherwise; indicator
    data makes both the sums and the comparison exact.
    """
    radii = tuple(int(x) for x in radii)
    if len(radii) < 2:
        raise ConstraintViolation("need at least two radii to compare energies")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConstraintViolation(f"radii must strictly increase, got {radii}")
    sums = []
    for rho in radii:
        window = CayleyWindow(rank, rho)
        total = 0
        for t, h in window.edges():
            diff = r(t) - r(h)
            total += diff * diff
        sums.append(total)
    increments = [b - a for a, b in zip(sums, sums[1:])]
    tail = increments[-3:]
    verdict = (
        EnergyReport.STABLE
        if all(abs(x) <= ENERGY_STABILITY_TOL for x in tail)
        else EnergyReport.GROWING
    )
    return EnergyReport(radii, tuple(sums), verdict)

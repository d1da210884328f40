"""Free groups acting on their Cayley trees, and flows on tree edges.

The tree here is the right Cayley graph of a free group: vertices are
reduced words, edges join ``m`` to ``m a_j``, and ``d(u, v) = |u^{-1} v|``.
Left translation by any group element is an isometry of this tree.  Every
nontrivial element is hyperbolic; its translation length falls out of
cyclic reduction.

:class:`EdgeVector` realises the square-summable functions on edges.  The
unit flow ``e(x, y)`` along a geodesic gives the cocycle of the action:
``gamma(g) = e(o, g o)`` satisfies the cocycle law on the nose, flows
around triangles cancel exactly, and ``|e(x, y)|^2 = d(x, y)``.

Collapsing every edge whose label lies outside the first ``alpha``
generators leaves a smaller tree on which the group still acts; the
cocycle of that action is the same flow with the collapsed edges dropped.
:func:`free_cayley_gamma` computes it directly from the reduced word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import ConstraintViolation
from .groups import FreeWord

EdgeKey = Tuple[Tuple[int, ...], int]


# ---------------------------------------------------------------------------
# Translation length
# ---------------------------------------------------------------------------


def translation_length(g: FreeWord) -> int:
    """Minimal displacement of left translation by ``g``; the core length."""
    core, _ = g.cyclic_reduce()
    return len(core)


# ---------------------------------------------------------------------------
# Edge flows
# ---------------------------------------------------------------------------


def _edge_from(tail: FreeWord, letter: int) -> Tuple[EdgeKey, int]:
    """Canonical key and sign for the edge leaving ``tail`` by ``letter``.

    Every tree edge is ``{m, m a_j}`` for exactly one word ``m`` and
    positive ``j``; traversal against that orientation carries sign -1.
    """
    if letter > 0:
        return (tail.letters, letter), +1
    head = tail * FreeWord((letter,), tail.rank)
    return (head.letters, -letter), -1


@dataclass(frozen=True)
class EdgeVector:
    """Finitely supported rational function on canonical tree edges."""

    rank: int
    coeffs: Tuple[Tuple[EdgeKey, Fraction], ...]

    @staticmethod
    def from_dict(rank: int, data: Dict[EdgeKey, Fraction]) -> "EdgeVector":
        items = tuple(sorted((k, Fraction(v)) for k, v in data.items() if v != 0))
        return EdgeVector(rank, items)

    def as_dict(self) -> Dict[EdgeKey, Fraction]:
        return dict(self.coeffs)

    def __add__(self, other: "EdgeVector") -> "EdgeVector":
        if self.rank != other.rank:
            raise ConstraintViolation("edge vectors over different free groups")
        out = self.as_dict()
        for k, v in other.coeffs:
            out[k] = out.get(k, Fraction(0)) + v
        return EdgeVector.from_dict(self.rank, out)

    def __sub__(self, other: "EdgeVector") -> "EdgeVector":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "EdgeVector":
        return EdgeVector.from_dict(self.rank, {k: c * v for k, v in self.coeffs})

    def norm2(self) -> Fraction:
        return sum((v * v for _, v in self.coeffs), Fraction(0))

    def translate(self, g: FreeWord) -> "EdgeVector":
        """Push the flow forward through left translation by ``g``.

        The edge ``{m, m a_j}`` maps to ``{g m, g m a_j}`` with the same
        orientation letter, so this is a signed permutation of keys and a
        genuine left action.
        """
        if g.rank != self.rank:
            raise ConstraintViolation("translating by a word of the wrong rank")
        out: Dict[EdgeKey, Fraction] = {}
        for (letters, j), v in self.coeffs:
            tail = g * FreeWord(letters, self.rank)
            key, sign = _edge_from(tail, j)
            out[key] = out.get(key, Fraction(0)) + sign * v
        return EdgeVector.from_dict(self.rank, out)


def unit_flow(x: FreeWord, y: FreeWord) -> EdgeVector:
    """The unit flow ``e(x, y)`` along the geodesic from ``x`` to ``y``."""
    if x.rank != y.rank:
        raise ConstraintViolation("endpoints live in different free groups")
    out: Dict[EdgeKey, Fraction] = {}
    tail = x
    for letter in (x.inverse() * y).letters:
        key, sign = _edge_from(tail, letter)
        out[key] = out.get(key, Fraction(0)) + sign
        tail = tail * FreeWord((letter,), x.rank)
    return EdgeVector.from_dict(x.rank, out)


def flow_cocycle(g: FreeWord) -> EdgeVector:
    """``gamma(g) = e(o, g o)`` for the identity basepoint."""
    return unit_flow(FreeWord((), g.rank), g)


def cocycle_defect(g1: FreeWord, g2: FreeWord) -> EdgeVector:
    """``gamma(g1 g2) - translate(g1) gamma(g2) - gamma(g1)``; zero always."""
    return flow_cocycle(g1 * g2) - flow_cocycle(g2).translate(g1) - flow_cocycle(g1)


# ---------------------------------------------------------------------------
# Finite metric trees with rational edge lengths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricTree:
    """Rooted tree on ``0 .. size-1`` with a positive length per edge.

    Vertex ``i >= 1`` hangs below ``parents[i] < i``; the edge to its
    parent is indexed by ``i`` itself and has length ``lengths[i]``.
    Entry 0 of both tuples is a root placeholder.
    """

    parents: Tuple[int, ...]
    lengths: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.parents) != len(self.lengths) or not self.parents:
            raise ConstraintViolation("parents and lengths must have equal positive length")
        if self.parents[0] != 0:
            raise ConstraintViolation("vertex 0 is the root; parents[0] must be 0")
        for i in range(1, len(self.parents)):
            if not 0 <= self.parents[i] < i:
                raise ConstraintViolation(f"parent of vertex {i} must be an earlier vertex")
            if self.lengths[i] <= 0:
                raise ConstraintViolation(f"edge length at vertex {i} must be positive")

    def _chain(self, x: int) -> List[int]:
        out = []
        while x != 0:
            out.append(x)
            x = self.parents[x]
        return out

    def flow(self, x: int, y: int) -> Dict[int, int]:
        """Signed edge indicator of the geodesic from ``x`` to ``y``.

        Edges below ``x``'s side of the meeting point carry +1 (traversed
        toward the root), edges on ``y``'s side carry -1; everything
        above the meeting point cancels.
        """
        out: Dict[int, int] = {}
        for e in self._chain(x):
            out[e] = out.get(e, 0) + 1
        for e in self._chain(y):
            out[e] = out.get(e, 0) - 1
        return {e: c for e, c in out.items() if c != 0}

    def pairing(self, f1: Dict[int, int], f2: Dict[int, int]) -> Fraction:
        """Edge-length weighted inner product of two edge functions."""
        small, big = (f1, f2) if len(f1) <= len(f2) else (f2, f1)
        return sum((self.lengths[e] * c * big.get(e, 0) for e, c in small.items()), Fraction(0))

    def triangle_flow(self, x: int, y: int, z: int) -> Dict[int, int]:
        """Cyclic sum of the three geodesic flows; empty for any triple."""
        out: Dict[int, int] = {}
        for a, b in ((x, y), (y, z), (z, x)):
            for e, c in self.flow(a, b).items():
                out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c != 0}


def random_metric_tree(rng, size: int) -> MetricTree:
    """Uniform random attachment tree with small rational lengths."""
    if size < 2:
        raise ConstraintViolation("a metric tree needs at least two vertices")
    parents = [0]
    lengths = [Fraction(0)]
    for i in range(1, size):
        parents.append(int(rng.integers(0, i)))
        lengths.append(Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 5))))
    return MetricTree(tuple(parents), tuple(lengths))


# ---------------------------------------------------------------------------
# Collapsed trees: only the first alpha generator labels survive
# ---------------------------------------------------------------------------


def _check_alpha(rank: int, alpha: int) -> None:
    if not 1 <= alpha <= rank:
        raise ConstraintViolation(f"alpha must lie in 1 .. {rank}, got {alpha}")


def free_cayley_gamma(g: FreeWord, alpha: int) -> EdgeVector:
    """Cocycle of the collapsed-tree action, read off the reduced word.

    Each distinguished letter of ``g`` crosses one surviving edge.  A
    positive letter ``a_i`` after prefix ``p`` crosses ``{p, p a_i}``
    forward, key ``(p, i)`` with sign ``+1``; a negative letter crosses
    the edge backward, keyed by the prefix including the letter, sign
    ``-1``.  Splitting the prefix convention this way is what makes the
    cocycle identity hold; using either uniform convention breaks it.
    """
    _check_alpha(g.rank, alpha)
    out: Dict[EdgeKey, Fraction] = {}
    prefix: List[int] = []
    for letter in g.letters:
        if abs(letter) <= alpha:
            if letter > 0:
                out[(tuple(prefix), letter)] = Fraction(1)
            else:
                out[(tuple(prefix) + (letter,), -letter)] = Fraction(-1)
        prefix.append(letter)
    return EdgeVector.from_dict(g.rank, out)


def power_norm_deviation(g: FreeWord, n: int, scale: Fraction = Fraction(1)) -> Fraction:
    """``s^2 |g^n| - n s^2 l(g)`` for edge length ``s``; equals ``2 s^2 |c|``.

    The cyclic-reduction conjugator ``c`` contributes a fixed detour at
    both ends of the geodesic ``[o, g^n o]``, independent of ``n >= 1``.
    """
    if n < 1:
        raise ConstraintViolation("power must be at least 1")
    ell = translation_length(g)
    return scale * scale * (Fraction(len(g**n)) - n * ell)

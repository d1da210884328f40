"""Free groups acting on their Cayley trees, and flows on tree edges.

The tree here is the right Cayley graph of a free group: vertices are
reduced words, edges join ``m`` to ``m a_j``, and ``d(u, v) = |u^{-1} v|``.
Left translation by any group element is an isometry of this tree.  Every
nontrivial element is hyperbolic; its translation length and axis fall out
of cyclic reduction, with an independent characterisation through
``max(0, d(x, g^2 x) - d(x, g x))`` available from any basepoint.

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
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConstraintViolation, WindowTooSmall
from .groups import FreeWord

EdgeKey = Tuple[Tuple[int, ...], int]


def word_distance(u: FreeWord, v: FreeWord) -> int:
    return len(u.inverse() * v)


def geodesic(x: FreeWord, y: FreeWord) -> List[FreeWord]:
    """Vertices of the tree geodesic from ``x`` to ``y``, endpoints included."""
    w = x.inverse() * y
    out = [x]
    for letter in w.letters:
        out.append(out[-1] * FreeWord((letter,), x.rank))
    return out


# ---------------------------------------------------------------------------
# Translation length and axes
# ---------------------------------------------------------------------------


def translation_length(g: FreeWord) -> int:
    """Minimal displacement of left translation by ``g``; the core length."""
    core, _ = g.cyclic_reduce()
    return len(core)


def translation_length_from_basepoint(g: FreeWord, x: FreeWord) -> int:
    """``max(0, d(x, g^2 x) - d(x, g x))``, basepoint independent."""
    return max(0, word_distance(x, g * g * x) - word_distance(x, g * x))


def axis_point(g: FreeWord, x: Optional[FreeWord] = None) -> FreeWord:
    """A vertex on the axis of ``g``: the midpoint burst of ``[x, g x]``.

    The point at distance ``(d(x, gx) - l(g)) / 2`` from ``x`` along the
    geodesic to ``g x`` lies on the axis.  From the identity this is the
    conjugating prefix of the cyclic reduction.
    """
    if len(g) == 0:
        raise ConstraintViolation("the identity has no axis")
    if x is None:
        x = FreeWord((), g.rank)
    d = word_distance(x, g * x)
    ell = translation_length(g)
    offset = (d - ell) // 2
    return geodesic(x, g * x)[offset]


# ---------------------------------------------------------------------------
# Finite tree isometries (the non-hyperbolic cases)
# ---------------------------------------------------------------------------


def classify_finite_tree_isometry(
    edges: Sequence[Tuple[int, int]], perm: Sequence[int]
) -> Tuple[str, object]:
    """Classify an automorphism of a finite tree.

    ``edges`` lists the tree edges over vertices ``0 .. len(perm) - 1`` and
    ``perm`` the vertex images.  A finite tree admits no hyperbolic
    isometries: the result is ``("elliptic", fixed_vertex)`` or
    ``("inversion", (u, v))`` with the fixed point at the midpoint of the
    swapped edge.
    """
    m = len(perm)
    if sorted(perm) != list(range(m)):
        raise ConstraintViolation("perm is not a permutation of the vertices")
    edge_set = {frozenset(e) for e in edges}
    if len(edge_set) != m - 1:
        raise ConstraintViolation("edge list does not describe a tree on these vertices")
    for u, v in edges:
        if frozenset((perm[u], perm[v])) not in edge_set:
            raise ConstraintViolation(f"images of edge ({u}, {v}) are not adjacent")
    for v in range(m):
        if perm[v] == v:
            return ("elliptic", v)
    for u, v in edges:
        if perm[u] == v and perm[v] == u:
            return ("inversion", (min(u, v), max(u, v)))
    raise ConstraintViolation("no fixed vertex or inverted edge; input is not a tree automorphism")


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

    def inner(self, other: "EdgeVector") -> Fraction:
        small, big = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        lookup = big.as_dict()
        return sum((v * lookup.get(k, Fraction(0)) for k, v in small.coeffs), Fraction(0))

    def norm2(self) -> Fraction:
        return sum((v * v for _, v in self.coeffs), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def support_radius(self) -> int:
        """Largest distance from the identity vertex touched by the support."""
        best = 0
        for (letters, _j), _v in self.coeffs:
            best = max(best, len(letters) + 1)
        return best

    def require_window(self, radius: int) -> None:
        if self.support_radius() > radius:
            raise WindowTooSmall(
                f"support reaches distance {self.support_radius()} > window radius {radius}"
            )


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


def triangle_defect(x: FreeWord, y: FreeWord, z: FreeWord) -> EdgeVector:
    """``e(x,y) + e(y,z) + e(z,x)``; flows around a tree triangle cancel."""
    return unit_flow(x, y) + unit_flow(y, z) + unit_flow(z, x)


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

    def size(self) -> int:
        return len(self.parents)

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

    def distance(self, x: int, y: int) -> Fraction:
        flow = self.flow(x, y)
        return self.pairing(flow, flow)

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


def distinguished_projection(v: EdgeVector, alpha: int) -> EdgeVector:
    """Drop every edge whose label exceeds ``alpha``.

    Left translation preserves edge labels, so this projection commutes
    with :meth:`EdgeVector.translate` and sends cocycles to cocycles.
    """
    _check_alpha(v.rank, alpha)
    return EdgeVector.from_dict(v.rank, {k: c for k, c in v.coeffs if k[1] <= alpha})


def coset_representative(u: FreeWord, alpha: int) -> FreeWord:
    """Shortest word reached from ``u`` along collapsed edges.

    Strips the maximal suffix of letters outside the first ``alpha``
    generators; the results are exactly the vertices of the collapsed
    tree, one per collapsed component.
    """
    _check_alpha(u.rank, alpha)
    letters = list(u.letters)
    while letters and abs(letters[-1]) > alpha:
        letters.pop()
    return FreeWord(tuple(letters), u.rank)


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


def collapsed_cocycle_defect(g1: FreeWord, g2: FreeWord, alpha: int) -> EdgeVector:
    """Cocycle identity defect for the collapsed tree; zero always."""
    return (
        free_cayley_gamma(g1 * g2, alpha)
        - free_cayley_gamma(g2, alpha).translate(g1)
        - free_cayley_gamma(g1, alpha)
    )


def coset_path(g: FreeWord, alpha: int) -> List[FreeWord]:
    """Vertices of the collapsed tree visited on the way from ``o`` to ``g o``.

    Tracks the component representative along the word and records each
    change.  The path never revisits a vertex, and its step count equals
    the number of distinguished letters in ``g``.
    """
    _check_alpha(g.rank, alpha)
    path = [FreeWord((), g.rank)]
    prefix: List[int] = []
    for letter in g.letters:
        prefix.append(letter)
        rep = coset_representative(FreeWord(tuple(prefix), g.rank), alpha)
        if rep != path[-1]:
            path.append(rep)
    return path


def power_norm_deviation(g: FreeWord, n: int, scale: Fraction = Fraction(1)) -> Fraction:
    """``s^2 |g^n| - n s^2 l(g)`` for edge length ``s``; equals ``2 s^2 |c|``.

    The cyclic-reduction conjugator ``c`` contributes a fixed detour at
    both ends of the geodesic ``[o, g^n o]``, independent of ``n >= 1``.
    """
    if n < 1:
        raise ConstraintViolation("power must be at least 1")
    ell = translation_length(g)
    return scale * scale * (Fraction(len(g**n)) - n * ell)

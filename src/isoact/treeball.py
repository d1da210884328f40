"""Finite balls in homogeneous trees and their boundaries.

``TreeBall(n, radius)`` is the radius-``radius`` ball around a root in the
tree where every vertex has ``n + 1`` neighbours.  Vertices are addressed by
their path from the root: the root is ``()``, its ``n + 1`` children are
``(0,)`` through ``(n,)``, and each deeper vertex appends a digit in
``0 .. n-1``.  Leaf addresses double as finite approximations to boundary
points, which is enough resolution for the visual metric and the canonical
measure at the scales the ball can see.

The second half of the module measures distances between homothety
classes of lattices (the tree of ``PGL_2`` over the ``p``-adics), and
realises a free group acting on its Cayley tree as
:class:`TreeAutomorphism` windows on which the boundary derivative can be
read off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import ConstraintViolation
from .groups import FreeWord

Address = Tuple[int, ...]


def common_prefix_length(u: Address, v: Address) -> int:
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return k


def tree_distance(u: Address, v: Address) -> int:
    """Graph distance between two addressed vertices.

    Addresses encode root paths, so the distance is the sum of depths minus
    twice the shared prefix.
    """
    return len(u) + len(v) - 2 * common_prefix_length(u, v)


MAX_BALL_VERTICES = 10**6


def ball_vertex_count(n: int, radius: int) -> int:
    """Vertices within ``radius`` of a vertex in the ``(n+1)``-homogeneous tree."""
    return 1 + (n + 1) * (n**radius - 1) // (n - 1)


def require_ball_size(n: int, radius: int) -> None:
    """Refuse a ball of more than ``MAX_BALL_VERTICES`` before it is built.

    The count is formed exactly only while it has at most a few hundred
    digits; past that it is above ``2**512`` since ``n >= 2``.
    """
    if radius * n.bit_length() > 1024:
        count = "more than 10**150"
    else:
        count = ball_vertex_count(n, radius)
        if count <= MAX_BALL_VERTICES:
            return
    raise ConstraintViolation(
        f"radius {radius} gives {count} vertices in the {n + 1}-regular tree; "
        f"the cap is {MAX_BALL_VERTICES}"
    )


@dataclass(frozen=True)
class TreeBall:
    """Ball of given radius in the ``(n+1)``-homogeneous tree."""

    n: int
    radius: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConstraintViolation("homogeneity parameter n must be at least 2")
        if self.radius < 1:
            raise ConstraintViolation("radius must be at least 1")
        require_ball_size(self.n, self.radius)

    def vertices(self) -> List[Address]:
        out: List[Address] = [()]
        frontier: List[Address] = [()]
        for depth in range(self.radius):
            nxt: List[Address] = []
            for v in frontier:
                for child in self.children(v):
                    nxt.append(child)
            out.extend(nxt)
            frontier = nxt
        return out

    def children(self, v: Address) -> List[Address]:
        if len(v) >= self.radius:
            return []
        breadth = self.n + 1 if len(v) == 0 else self.n
        return [v + (i,) for i in range(breadth)]

    def parent(self, v: Address) -> Address:
        if not v:
            raise ConstraintViolation("the root has no parent")
        return v[:-1]

    def contains(self, v: Address) -> bool:
        if len(v) > self.radius:
            return False
        if not v:
            return True
        if not 0 <= v[0] <= self.n:
            return False
        return all(0 <= d < self.n for d in v[1:])

    def require(self, v: Address) -> None:
        if not self.contains(v):
            raise ConstraintViolation(
                f"address {v} is not in the ball (n={self.n}, radius={self.radius})"
            )

    def is_interior(self, v: Address) -> bool:
        """Whether all ``n + 1`` neighbours of ``v`` lie in the ball."""
        return len(v) < self.radius

    def leaves(self) -> List[Address]:
        return [v for v in self.vertices() if len(v) == self.radius]

    def vertex_count(self) -> int:
        return ball_vertex_count(self.n, self.radius)

    def distance(self, u: Address, v: Address) -> int:
        self.require(u)
        self.require(v)
        return tree_distance(u, v)


# ---------------------------------------------------------------------------
# Boundary: visual metric and canonical measure
# ---------------------------------------------------------------------------


def abs_metric(ball: TreeBall, x: Address, y: Address) -> Fraction:
    """Visual metric ``n^{-m}`` between boundary points seen at the ball's edge.

    ``x`` and ``y`` are addresses standing for ends through them; ``m`` is
    the depth at which the two diverge.  Equal addresses give 0.  When one
    address is a proper prefix of the other the ball cannot tell the ends
    apart, and :class:`ConstraintViolation` is raised rather than guessing.
    """
    ball.require(x)
    ball.require(y)
    if x == y:
        return Fraction(0)
    m = common_prefix_length(x, y)
    if m == min(len(x), len(y)):
        raise ConstraintViolation(
            f"addresses {x} and {y} agree on all available digits; a deeper ball is needed"
        )
    return Fraction(1, ball.n**m)


def cylinder_measure(ball: TreeBall, v: Address) -> Fraction:
    """Canonical-measure mass of the shadow of ``v`` seen from the root.

    The whole boundary has mass 1, split equally over the ``n + 1`` root
    directions and then equally over the ``n`` onward directions at every
    later step.
    """
    ball.require(v)
    if not v:
        return Fraction(1)
    return Fraction(1, (ball.n + 1) * ball.n ** (len(v) - 1))


def measure_from(ball: TreeBall, u: Address, leaf: Address) -> Fraction:
    """Mass of the leaf cylinder ``C_leaf`` for the canonical measure at ``u``.

    This is the harmonic (hitting) measure of simple random walk started at
    ``u``: the mass only depends on the distance from ``u`` to the leaf.
    """
    ball.require(u)
    ball.require(leaf)
    if len(leaf) != ball.radius:
        raise ConstraintViolation(f"{leaf} is not a leaf of the radius-{ball.radius} ball")
    d = tree_distance(u, leaf)
    if d == 0:
        return Fraction(ball.n, ball.n + 1)
    return Fraction(ball.n, (ball.n + 1) * ball.n**d)


# ---------------------------------------------------------------------------
# Lattice classes for PGL_2(Q_p)
# ---------------------------------------------------------------------------


Matrix2 = Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]


def _mat(entries) -> Matrix2:
    (a, b), (c, d) = entries
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


def mat_mul(x: Matrix2, y: Matrix2) -> Matrix2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def mat_det(x: Matrix2) -> Fraction:
    return x[0][0] * x[1][1] - x[0][1] * x[1][0]


def mat_inv(x: Matrix2) -> Matrix2:
    d = mat_det(x)
    if d == 0:
        raise ConstraintViolation("matrix is singular; columns do not span a lattice")
    return ((x[1][1] / d, -x[0][1] / d), (-x[1][0] / d, x[0][0] / d))


def require_prime(p: int) -> None:
    """Raise :class:`ConstraintViolation` unless ``p`` is prime, by trial division."""
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ConstraintViolation(f"{p} is not prime")


def padic_valuation(x: Fraction, p: int):
    """Exact valuation ``v_p`` of a rational, for a prime ``p``; ``+inf`` for zero.

    >>> padic_valuation(Fraction(9, 4), 3)
    2
    """
    if x == 0:
        return math.inf
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def lattice_distance(m1, m2, p: int) -> int:
    """Distance between the homothety classes of two column lattices.

    With ``A = m1^{-1} m2`` the elementary-divisor exponents of ``A`` are
    ``(v, d - v)`` where ``d = v_p(det A)`` and ``v`` is the minimum entry
    valuation; the tree distance is their difference ``d - 2v``.
    """
    require_prime(p)
    a = mat_mul(mat_inv(_mat(m1)), _mat(m2))
    d = mat_det(a)
    if d == 0:
        raise ConstraintViolation("second matrix is singular")
    dv = padic_valuation(d, p)
    mv = min(padic_valuation(a[i][j], p) for i in range(2) for j in range(2))
    return int(dv - 2 * mv)


# ---------------------------------------------------------------------------
# Tree automorphisms given extensionally on a window
# ---------------------------------------------------------------------------


class TreeAutomorphism:
    """A partial isometry of a tree ball, stored vertex by vertex.

    ``mapping`` sends addresses to addresses; it may omit vertices whose
    images fall outside the ball.  Construction checks injectivity and that
    adjacent vertices map to adjacent vertices wherever both are defined.
    """

    def __init__(self, ball: TreeBall, mapping: Dict[Address, Address]):
        self.ball = ball
        self.mapping = dict(mapping)
        seen: Dict[Address, Address] = {}
        for src, dst in self.mapping.items():
            ball.require(src)
            ball.require(dst)
            if dst in seen:
                raise ConstraintViolation(
                    f"not injective: {src} and {seen[dst]} share the image {dst}"
                )
            seen[dst] = src
        for src, dst in self.mapping.items():
            if src:
                par = ball.parent(src)
                if par in self.mapping and tree_distance(dst, self.mapping[par]) != 1:
                    raise ConstraintViolation(
                        f"edge {par} - {src} maps to a non-edge {self.mapping[par]} - {dst}"
                    )

    def __call__(self, v: Address) -> Address:
        if v not in self.mapping:
            raise ConstraintViolation(f"automorphism window does not cover {v}")
        return self.mapping[v]

    def defined_at(self, v: Address) -> bool:
        return v in self.mapping


# the number of trailing ray offsets that must agree in boundary_derivative
STABLE_STEPS = 3


def boundary_derivative(auto: TreeAutomorphism, end: Address) -> Fraction:
    """Scaling factor ``n^alpha`` of the canonical measure at a boundary point.

    ``end`` is a leaf address standing for an end through it.  Along the ray
    to the end, ``d(root, g s_j) - j`` eventually stabilises at the exponent
    ``alpha``; the last ``STABLE_STEPS`` available values must agree, else
    :class:`ConstraintViolation` is raised.  Equivalently ``n^alpha`` is the ratio
    ``mu(g^{-1} C) / mu(C)`` over small cylinders ``C`` around the image end.
    """
    ball = auto.ball
    ball.require(end)
    if len(end) != ball.radius:
        raise ConstraintViolation("the end must be specified to the full radius of the ball")
    tail: List[int] = []
    for j in range(1, len(end) + 1):
        s = end[:j]
        if not auto.defined_at(s):
            break
        tail.append(len(auto(s)) - j)
    if len(tail) < STABLE_STEPS:
        raise ConstraintViolation(
            f"only {len(tail)} ray vertices are covered; at least {STABLE_STEPS} are needed"
        )
    last = tail[-STABLE_STEPS:]
    if len(set(last)) != 1:
        raise ConstraintViolation(f"depth offsets {last} have not stabilised; enlarge the window")
    alpha = last[0]
    n = ball.n
    return Fraction(n**alpha) if alpha >= 0 else Fraction(1, n ** (-alpha))


# ---------------------------------------------------------------------------
# Windows from free-group actions
# ---------------------------------------------------------------------------

def _letter_order(rank: int) -> List[int]:
    out: List[int] = []
    for k in range(1, rank + 1):
        out.extend((k, -k))
    return out


def word_to_address(w: FreeWord) -> Address:
    """Address of a reduced word in the Cayley-tree ball around the identity."""
    order = _letter_order(w.rank)
    addr: List[int] = []
    prev = 0
    for letter in w.letters:
        if prev == 0:
            addr.append(order.index(letter))
        else:
            choices = [l for l in order if l != -prev]
            addr.append(choices.index(letter))
        prev = letter
    return tuple(addr)


def address_to_word(addr: Address, rank: int) -> FreeWord:
    order = _letter_order(rank)
    letters: List[int] = []
    prev = 0
    for digit in addr:
        choices = order if prev == 0 else [l for l in order if l != -prev]
        letters.append(choices[digit])
        prev = letters[-1]
    return FreeWord(tuple(letters), rank)


def freeword_automorphism(g: FreeWord, radius: int) -> TreeAutomorphism:
    """Left translation by ``g`` on the Cayley-tree ball of its free group.

    The Cayley tree of a rank-``r`` free group is ``2r``-regular, so the
    window lives on ``TreeBall(2r - 1, radius)``.  Vertices whose image
    leaves the ball are simply omitted from the mapping.
    """
    rank = g.rank
    if rank < 1:
        raise ConstraintViolation("rank must be at least 1")
    ball = TreeBall(2 * rank - 1, radius)
    mapping: Dict[Address, Address] = {}
    for v in ball.vertices():
        w = address_to_word(v, rank)
        img = g * w
        if len(img) <= radius:
            mapping[v] = word_to_address(img)
    return TreeAutomorphism(ball, mapping)

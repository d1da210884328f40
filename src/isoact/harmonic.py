"""Difference operators, the Poisson transform, and boundary kernels on trees.

Everything here runs on an :class:`OrientedGraph`: a finite window of a
locally finite graph with one canonical orientation chosen per edge and a
flag marking the vertices whose full neighbourhood lies inside the window.
Edge functions are understood antisymmetrically, stored on the canonical
orientations only.

The gradient and divergence are exact adjoints for the counting inner
products, and on the homogeneous tree ball they compose to ``(n + 1)``
times the mean-value Laplacian at interior vertices.  The Poisson transform
turns boundary data into a divergence-free edge function, with all measure
arithmetic done in exact rationals.

The harmonic split of an edge flow solves one Dirichlet problem.  Every
graph in the package (tree balls, free-group Cayley windows) is a tree, so
the solve is a leaf-to-root elimination with no fill-in (Parter, SIAM
Rev. 3, 1961): linear in the vertex count, exact on exact input, and well
defined whenever the tree has a boundary vertex.  For the unit flow on one
root edge of a homogeneous tree ball the split is radial, so its norm comes
from one elimination on the path of (side, depth) levels, without the ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Dict, List, Sequence, Tuple

from .errors import ConstraintViolation
from .treeball import (
    Address,
    TreeBall,
    common_prefix_length,
    cylinder_measure,
    measure_from,
)


@dataclass(frozen=True)
class OrientedGraph:
    """Finite graph window with canonical edge orientations.

    ``edges`` holds ``(tail_index, head_index)`` pairs into ``vertices``.
    ``interior[i]`` is True when vertex ``i`` keeps its full degree in the
    ambient graph, so difference-operator identities can be asserted there.
    """

    vertices: Tuple[object, ...]
    edges: Tuple[Tuple[int, int], ...]
    interior: Tuple[bool, ...]

    @cached_property
    def incident(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per vertex, the ``(edge_index, sign)`` pairs; sign +1 when the
        canonical orientation points into the vertex."""
        buckets: List[List[Tuple[int, int]]] = [[] for _ in self.vertices]
        for e, (t, h) in enumerate(self.edges):
            buckets[t].append((e, -1))
            buckets[h].append((e, +1))
        return tuple(tuple(b) for b in buckets)

    def degree(self, i: int) -> int:
        return len(self.incident[i])


def tree_ball_graph(ball: TreeBall) -> OrientedGraph:
    """The ball as an oriented graph, edges pointing away from the root."""
    vs = ball.vertices()
    idx = {v: i for i, v in enumerate(vs)}
    edges = tuple((idx[v[:-1]], idx[v]) for v in vs if v)
    interior = tuple(ball.is_interior(v) for v in vs)
    return OrientedGraph(tuple(vs), edges, interior)


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------


def gradient(graph: OrientedGraph, f: Sequence) -> List:
    """Edge function ``f(head) - f(tail)`` on canonical orientations."""
    return [f[h] - f[t] for t, h in graph.edges]


def divergence(graph: OrientedGraph, h: Sequence) -> List:
    """Vertex function summing ``h`` over edges oriented into each vertex.

    With the antisymmetric reading of edge functions this is the formal
    adjoint of :func:`gradient`: canonical edges into the vertex count
    positively, edges out of it negatively.
    """
    out = [0] * len(graph.vertices)
    for val, (t, h) in zip(h, graph.edges):
        out[h] = out[h] + val
        out[t] = out[t] - val
    return out


def mean_value_laplacian(ball: TreeBall, graph: OrientedGraph, f: Sequence) -> Dict[int, object]:
    """``f - (neighbour average)`` at interior vertices of a tree ball.

    ``f`` holds integers or Fractions, and the values are exact.  Returned
    as a map from vertex index to value; boundary vertices are omitted
    because their window degree understates the tree degree.
    """
    p = ball.n + 1
    out = {}
    for i in range(len(graph.vertices)):
        if not graph.interior[i]:
            continue
        acc = 0
        for e, sign in graph.incident[i]:
            t, h = graph.edges[e]
            acc = acc + f[t if sign > 0 else h]
        out[i] = Fraction(p * f[i] - acc, p)
    return out


def edge_inner(h1: Sequence, h2: Sequence):
    return sum(a * b for a, b in zip(h1, h2))


def vertex_inner(f1: Sequence, f2: Sequence):
    return sum(a * b for a, b in zip(f1, f2))


# ---------------------------------------------------------------------------
# Cylinder data and the Poisson transform
# ---------------------------------------------------------------------------


def cylinder_vertices(ball: TreeBall, k: int) -> List[Address]:
    """The depth-``k`` vertices in the ball's order, without walking the ball."""
    if not 1 <= k <= ball.radius:
        raise ConstraintViolation(f"cylinder depth {k} outside 1..{ball.radius}")
    below = list(product(range(ball.n), repeat=k - 1))
    return [(first,) + rest for first in range(ball.n + 1) for rest in below]


def _check_cylinder_function(ball: TreeBall, k: int, values: Dict[Address, Fraction]) -> None:
    expected = set(cylinder_vertices(ball, k))
    if set(values) != expected:
        raise ConstraintViolation("cylinder function must cover every depth-k vertex exactly")
    for v in values.values():
        if isinstance(v, float):
            raise ConstraintViolation("cylinder values must be exact rationals")


def root_mean(ball: TreeBall, k: int, values: Dict[Address, Fraction]) -> Fraction:
    _check_cylinder_function(ball, k, values)
    return sum((Fraction(values[c]) * cylinder_measure(ball, c) for c in values), Fraction(0))


def poisson_transform(
    ball: TreeBall, graph: OrientedGraph, k: int, values: Dict[Address, Fraction]
) -> List[Fraction]:
    """Divergence-free edge function attached to zero-mean boundary data.

    The data is a function on depth-``k`` cylinders.  For an edge, the value
    integrates the data over the far-side boundary against the canonical
    measure seen from the near vertex, antisymmetrised over the two sides.
    The result has exactly zero divergence at every interior vertex.

    Requires ``radius >= k + 2`` so at least one interior shell separates
    the data depth from the window boundary, and zero mean at the root
    (:class:`ConstraintViolation` otherwise).
    """
    if ball.radius < k + 2:
        raise ConstraintViolation(f"radius {ball.radius} < {k + 2}; enlarge the ball or lower k")
    mean = root_mean(ball, k, values)
    if mean != 0:
        raise ConstraintViolation(f"data has root mean {mean}; subtract it first")
    leaves = ball.leaves()
    leaf_val = {l: Fraction(values[l[:k]]) for l in leaves}
    out: List[Fraction] = []
    for t, h in graph.edges:
        tail = graph.vertices[t]
        head = graph.vertices[h]
        plus = Fraction(0)
        minus = Fraction(0)
        for l in leaves:
            if common_prefix_length(l, head) == len(head):
                plus += leaf_val[l] * measure_from(ball, tail, l)
            else:
                minus += leaf_val[l] * measure_from(ball, head, l)
        out.append(plus - minus)
    return out


# ---------------------------------------------------------------------------
# Boundary kernel grams
# ---------------------------------------------------------------------------


def cylinder_basis(ball: TreeBall, k: int) -> List[Dict[Address, Fraction]]:
    """Zero-mean basis: differences of consecutive depth-k cylinder indicators.

    Consecutive cylinders have equal mass, so each difference has zero mean;
    together they span the zero-mean cylinder functions.
    """
    cyls = cylinder_vertices(ball, k)
    basis = []
    for i in range(len(cyls) - 1):
        f = {c: Fraction(0) for c in cyls}
        f[cyls[i]] = Fraction(1)
        f[cyls[i + 1]] = Fraction(-1)
        basis.append(f)
    return basis


def _pair_energy_inv(ball: TreeBall, a: Address, b: Address, k: int) -> Fraction:
    """Resolution-truncated energy of ``1/delta`` over a cylinder pair.

    Off the diagonal the visual metric is constant on the pair and the
    value is exact.  On the diagonal the kernel is clamped at the ball's
    resolution ``delta >= n^{-radius}``, giving a finite self energy with
    one constant contribution per resolved level.
    """
    n, D = ball.n, ball.radius
    mu_k = cylinder_measure(ball, a)
    if a != b:
        m = common_prefix_length(a, b)
        return n**m * mu_k * mu_k
    unit = Fraction(n) ** (2 - k) / (n + 1) ** 2
    return unit * ((D - k) * (1 - Fraction(1, n)) + 1)


def gram_inv_delta(ball: TreeBall, k: int) -> List[List[Fraction]]:
    """Gram of ``-1/delta`` over the zero-mean cylinder basis.

    Truncated at the ball's resolution; see :func:`_pair_energy_inv`.
    Basis function ``i`` is ``+1`` on cylinder ``i`` and ``-1`` on cylinder
    ``i + 1`` (:func:`cylinder_basis`), so each entry reads four pair
    energies.
    """
    cyls = cylinder_vertices(ball, k)
    energy = [[_pair_energy_inv(ball, a, b, k) for b in cyls] for a in cyls]

    def entry(i: int, m: int) -> Fraction:
        return (
            energy[i + 1][m] + energy[i][m + 1] - energy[i][m] - energy[i + 1][m + 1]
        )

    return [[entry(i, m) for m in range(len(cyls) - 1)] for i in range(len(cyls) - 1)]


def gram_neg_log(ball: TreeBall, k: int) -> List[List[Fraction]]:
    """Gram of ``-log delta`` over the zero-mean cylinder basis.

    Entries are exact rationals in units of ``log n``: the kernel is the
    divergence depth times ``log n``, and splitting by depth gives one
    finite sum per resolved level plus a geometric tail below depth ``k``
    summing to ``mu_k^2 / (n - 1)`` per cylinder.  The level-``j`` sum
    pairs the masses two functions put on each depth-``j`` cylinder, so
    each basis function's masses are summed once per level, over its
    support only.
    """
    n = ball.n
    cyls = cylinder_vertices(ball, k)
    mu_k = cylinder_measure(ball, cyls[0])
    supports = [{c: w for c, w in f.items() if w != 0} for f in cylinder_basis(ball, k)]
    masses = []
    for support in supports:
        levels = []
        for j in range(1, k + 1):
            level: Dict[Address, Fraction] = {}
            for c, w in support.items():
                level[c[:j]] = level.get(c[:j], Fraction(0)) + w * mu_k
            levels.append(level)
        masses.append(levels)

    def entry(i: int, m: int) -> Fraction:
        acc = Fraction(0)
        for f_level, g_level in zip(masses[i], masses[m]):
            acc += sum((w * g_level[u] for u, w in f_level.items() if u in g_level), Fraction(0))
        g = supports[m]
        tail = sum((w * g[c] for c, w in supports[i].items() if c in g), Fraction(0))
        return acc + Fraction(1, n - 1) * mu_k * mu_k * tail

    return [[entry(i, m) for m in range(len(supports))] for i in range(len(supports))]


# ---------------------------------------------------------------------------
# Harmonic decomposition of edge flows
# ---------------------------------------------------------------------------


def harmonic_decompose(graph: OrientedGraph, flow: Sequence):
    """Split an edge flow into a gradient and a divergence-free remainder.

    Solves the Dirichlet problem ``div grad u = div flow`` on interior
    vertices with ``u = 0`` on the window boundary and returns
    ``(u, remainder)`` with ``remainder = flow - grad u``.  The remainder
    has zero divergence at every interior vertex.

    The graph must be a tree, and the system is solved by elimination
    without fill-in.  From the leaves up, each interior vertex is written
    as ``u_i = a_i * u_parent + c_i`` with ``pivot_i = deg_i - sum a_k``
    over its interior children, ``a_i = 1 / pivot_i`` and
    ``c_i = (div flow_i + sum c_k) / pivot_i``; a second pass from the
    root down fills in ``u``.  Every pivot below the root is at least 1,
    so the one precondition is a nonzero root pivot: the tree must have a
    boundary vertex.  Exact flows (ints and Fractions) give exact results,
    float flows give floats.  A graph that is not a tree, or has no
    boundary vertex, raises :class:`ConstraintViolation`.
    """
    count = len(graph.vertices)
    if len(graph.edges) != count - 1:
        raise ConstraintViolation(f"not a tree: {len(graph.edges)} edges on {count} vertices")
    parent = [-1] * count
    order = [0]
    seen = [False] * count
    seen[0] = True
    for i in order:
        for e, _sign in graph.incident[i]:
            t, h = graph.edges[e]
            j = h if t == i else t
            if not seen[j]:
                seen[j] = True
                parent[j] = i
                order.append(j)
    if len(order) != count:
        raise ConstraintViolation(
            f"not a tree: only {len(order)} of {count} vertices are connected"
        )
    unit = Fraction(1) if all(isinstance(x, (Fraction, int)) for x in flow) else 1.0
    pivot = [unit * graph.degree(i) for i in range(count)]
    rhs = divergence(graph, flow)
    a = [0 * unit] * count
    c = [0 * unit] * count
    for i in reversed(order):
        if not graph.interior[i]:
            continue
        if pivot[i] == 0:
            raise ConstraintViolation("zero root pivot: the tree has no boundary vertex")
        a[i] = unit / pivot[i]
        c[i] = rhs[i] / pivot[i]
        if i != 0:
            pivot[parent[i]] -= a[i]
            rhs[parent[i]] += c[i]
    u = [0 * unit] * count
    for i in order:
        if graph.interior[i]:
            u[i] = c[i] if i == 0 else a[i] * u[parent[i]] + c[i]
    grad_u = gradient(graph, u)
    remainder = [x - y for x, y in zip(flow, grad_u)]
    return u, remainder


def subtree_flow_norms(n: int, radii: Sequence[int]) -> List[Fraction]:
    """Exact squared norms of the divergence-free part of a single-edge flow.

    For each radius this is the squared norm of the remainder that
    :func:`harmonic_decompose` leaves of the unit flow on the edge from the
    root into direction 0 of the radius-``r`` ball, computed without the
    ball.  The flow is invariant under the automorphisms that fix its edge,
    so the solution is constant on each (side, depth) level, and lumping the
    levels gives a weighted path ``B_r .. B_1, root, A_1 .. A_r`` whose
    conductances count the edges between levels: ``n^(k+1)`` between
    ``B_k`` and ``B_(k+1)`` (the root is ``B_0``), 1 between the root and
    ``A_1``, and ``n^k`` between ``A_k`` and ``A_(k+1)``; for radial
    functions on homogeneous trees see Cartier, *Harmonic analysis on
    trees* (1973).  One elimination along the path in rationals costs
    O(r), and the values equal ``(n - 1) n^r / ((n + 1)(n^r - 1))``, which
    tends to ``(n - 1) / (n + 1)`` (1/2 on the 4-regular tree).
    """
    if n < 2:
        raise ConstraintViolation("homogeneity parameter n must be at least 2")
    if any(r < 1 for r in radii):
        raise ConstraintViolation("radius must be at least 1")
    return [_radial_flow_norm(n, r) for r in radii]


def _radial_flow_norm(n: int, r: int) -> Fraction:
    # path node j is B_(r-j) for j <= r and A_(j-r) beyond; link j joins nodes j, j+1
    cond = [n ** (r - j) for j in range(r)] + [1] + [n**k for k in range(1, r)]
    flow = [0] * (2 * r)
    flow[r] = 1
    # interior nodes 1 .. 2r-1 from the B end: u_j = a_j * u_(j+1) + b_j, with u_0 = 0
    a = [Fraction(0)] * (2 * r)
    b = [Fraction(0)] * (2 * r)
    for j in range(1, 2 * r):
        left, right = cond[j - 1], cond[j]
        pivot = left + right - left * a[j - 1]
        a[j] = right / pivot
        b[j] = (flow[j - 1] - flow[j] + left * b[j - 1]) / pivot
    u = [Fraction(0)] * (2 * r + 1)
    for j in range(2 * r - 1, 0, -1):
        u[j] = a[j] * u[j + 1] + b[j]
    remainder = [x - (u[j + 1] - u[j]) for j, x in enumerate(flow)]
    return sum((c * x * x for c, x in zip(cond, remainder)), Fraction(0))

"""Difference operators, Poisson transform, kernel grams, harmonic splits."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from isoact.errors import ConstraintViolation
import isoact
from isoact.harmonic import (
    OrientedGraph,
    _pair_energy_inv,
    cylinder_basis,
    cylinder_vertices,
    divergence,
    edge_inner,
    gradient,
    gram_inv_delta,
    gram_neg_log,
    harmonic_decompose,
    mean_value_laplacian,
    poisson_transform,
    root_mean,
    subtree_flow_norms,
    tree_ball_graph,
    vertex_inner,
)
from isoact.immobile import CayleyWindow
from isoact.treeball import TreeBall, common_prefix_length, cylinder_measure

from builders import cayley_graph


def rational_list(rng, count, span=6):
    return [Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, 4))) for _ in range(count)]


def edge_index(graph, u, v):
    """Edge joining two vertices, as ``(index, sign)`` relative to the orientation ``u -> v``."""
    iu, iv = graph.vertices.index(u), graph.vertices.index(v)
    for e, (t, h) in enumerate(graph.edges):
        if (t, h) == (iu, iv):
            return e, +1
        if (t, h) == (iv, iu):
            return e, -1
    raise LookupError(f"no edge between {u} and {v}")


def interior_divergence_max(graph, h):
    div = divergence(graph, h)
    return max((abs(float(div[i])) for i, flag in enumerate(graph.interior) if flag), default=0.0)


def single_edge_flow(graph, tail, head):
    """Unit flow along one edge, zero elsewhere: the full-ball input of the radial oracle."""
    e, sign = edge_index(graph, tail, head)
    out = [Fraction(0)] * len(graph.edges)
    out[e] = Fraction(sign)
    return out


def _solve_fraction_dense(rows, rhs):
    """Gauss-Jordan elimination in exact rationals; the oracle for the tree solver."""
    m = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][m] for i in range(m)]


def dense_decompose(graph, flow):
    """Dirichlet split by assembling the interior Laplacian densely."""
    interior = [i for i, flag in enumerate(graph.interior) if flag]
    pos = {v: j for j, v in enumerate(interior)}
    rhs = divergence(graph, flow)
    m = len(interior)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for j, i in enumerate(interior):
        rows[j][j] = Fraction(graph.degree(i))
        for e, _sign in graph.incident[i]:
            t, h = graph.edges[e]
            other = h if t == i else t
            if other in pos:
                rows[j][pos[other]] -= 1
    sol = _solve_fraction_dense(rows, [Fraction(rhs[i]) for i in interior])
    u = [Fraction(0)] * len(graph.vertices)
    for j, i in enumerate(interior):
        u[i] = sol[j]
    return u, [a - b for a, b in zip(flow, gradient(graph, u))]


class TestDifferenceOperators:
    def test_gradient_of_constant(self):
        ball = TreeBall(2, 3)
        graph = tree_ball_graph(ball)
        assert all(x == 0 for x in gradient(graph, [Fraction(7)] * len(graph.vertices)))

    def test_adjointness_exact(self):
        ball = TreeBall(2, 3)
        graph = tree_ball_graph(ball)
        rng = np.random.default_rng(20)
        for _ in range(25):
            f = rational_list(rng, len(graph.vertices))
            h = rational_list(rng, len(graph.edges))
            assert edge_inner(gradient(graph, f), h) == vertex_inner(f, divergence(graph, h))

    def test_div_grad_is_p_times_laplacian(self):
        ball = TreeBall(3, 3)
        graph = tree_ball_graph(ball)
        rng = np.random.default_rng(21)
        p = ball.n + 1
        for _ in range(10):
            f = rational_list(rng, len(graph.vertices))
            dg = divergence(graph, gradient(graph, f))
            lap = mean_value_laplacian(ball, graph, f)
            for i, val in lap.items():
                assert dg[i] == p * val

    def test_laplacian_kills_constants(self):
        ball = TreeBall(2, 3)
        graph = tree_ball_graph(ball)
        lap = mean_value_laplacian(ball, graph, [Fraction(5)] * len(graph.vertices))
        assert all(v == 0 for v in lap.values())
        # boundary rows are not reported at all
        assert set(lap) == {i for i, flag in enumerate(graph.interior) if flag}

    def test_interior_count(self):
        ball = TreeBall(2, 4)
        graph = tree_ball_graph(ball)
        assert sum(graph.interior) == TreeBall(2, 3).vertex_count()


class TestPoissonTransform:
    def setup_method(self):
        self.ball = TreeBall(2, 3)
        self.graph = tree_ball_graph(self.ball)

    def data(self, a, b, c):
        return {(0,): Fraction(a), (1,): Fraction(b), (2,): Fraction(c)}

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ConstraintViolation, match="root mean 1/3; subtract it first"):
            poisson_transform(self.ball, self.graph, 1, self.data(1, 0, 0))

    def test_rejects_small_ball(self):
        ball = TreeBall(2, 2)
        graph = tree_ball_graph(ball)
        with pytest.raises(ConstraintViolation, match="radius 2 < 3"):
            poisson_transform(ball, graph, 1, self.data(1, -1, 0))

    def test_rejects_partial_cover(self):
        with pytest.raises(ConstraintViolation):
            poisson_transform(self.ball, self.graph, 1, {(0,): Fraction(1)})

    def test_frozen_edge_values(self):
        # hand-computed for data +1 on the (0,) cylinder, -1 on (1,):
        # root edge into (0,) carries 1/3 - (-1/6) = 1/2 and the deeper
        # edge (0,) -> (0,0) carries 1/3 - 1/12 = 1/4
        vals = poisson_transform(self.ball, self.graph, 1, self.data(1, -1, 0))
        e1, s1 = edge_index(self.graph, (), (0,))
        e2, s2 = edge_index(self.graph, (0,), (0, 0))
        assert s1 == 1 and vals[e1] == Fraction(1, 2)
        assert s2 == 1 and vals[e2] == Fraction(1, 4)

    def test_divergence_free_interior(self):
        rng = np.random.default_rng(22)
        ball = TreeBall(2, 4)
        graph = tree_ball_graph(ball)
        cyls = cylinder_vertices(ball, 2)
        for _ in range(5):
            raw = rational_list(rng, len(cyls))
            mean = sum(
                (r * cylinder_measure(ball, c) for r, c in zip(raw, cyls)), Fraction(0)
            )
            # recentre exactly: subtract mean / measure-weight per cylinder
            data = {
                c: r - mean / (len(cyls) * cylinder_measure(ball, c))
                for r, c in zip(raw, cyls)
            }
            assert root_mean(ball, 2, data) == 0
            vals = poisson_transform(ball, graph, 2, data)
            div = divergence(graph, vals)
            for i, flag in enumerate(graph.interior):
                if flag:
                    assert div[i] == 0

    def test_linearity(self):
        d1 = self.data(1, -1, 0)
        d2 = self.data(0, 1, -1)
        d3 = self.data(1, 0, -1)
        v1 = poisson_transform(self.ball, self.graph, 1, d1)
        v2 = poisson_transform(self.ball, self.graph, 1, d2)
        v3 = poisson_transform(self.ball, self.graph, 1, d3)
        assert all(a + b == c for a, b, c in zip(v1, v2, v3))


def refinement_oracle_neg_log(ball, k, f, g):
    """Direct double sum over depth-radius cells with the exact tail term."""
    D = ball.radius
    n = ball.n
    cells = [v for v in ball.vertices() if len(v) == D]
    mu = cylinder_measure(ball, cells[0])
    total = Fraction(0)
    for a in cells:
        fa = f[a[:k]]
        if fa == 0:
            continue
        for b in cells:
            gb = g[b[:k]]
            if gb == 0:
                continue
            if a == b:
                depth_integral = (D + Fraction(1, n - 1)) * mu * mu
            else:
                depth_integral = common_prefix_length(a, b) * mu * mu
            total += fa * gb * depth_integral
    return total


def refinement_oracle_inv(ball, k, f, g):
    """Double sum over resolution cells with the kernel clamped on cells."""
    D = ball.radius
    n = ball.n
    cells = [v for v in ball.vertices() if len(v) == D]
    mu = cylinder_measure(ball, cells[0])
    total = Fraction(0)
    for a in cells:
        fa = f[a[:k]]
        if fa == 0:
            continue
        for b in cells:
            gb = g[b[:k]]
            if gb == 0:
                continue
            m = D if a == b else common_prefix_length(a, b)
            total += fa * gb * n**m * mu * mu
    return -total


def gram_neg_log_walk(ball, k):
    """The gram entry by entry: every level's cylinders from a walk over the
    whole ball, and each cylinder's mass summed over all depth-k cylinders."""
    n = ball.n
    cyls = [v for v in ball.vertices() if len(v) == k]
    basis = cylinder_basis(ball, k)
    mu_k = cylinder_measure(ball, cyls[0])

    def entry(f, g):
        acc = Fraction(0)
        for j in range(1, k + 1):
            for u in (v for v in ball.vertices() if len(v) == j):
                fu = sum((f[c] * mu_k for c in cyls if common_prefix_length(c, u) == j), Fraction(0))
                gu = sum((g[c] * mu_k for c in cyls if common_prefix_length(c, u) == j), Fraction(0))
                acc += fu * gu
        tail = sum((f[c] * g[c] for c in cyls), Fraction(0))
        return acc + Fraction(1, n - 1) * mu_k * mu_k * tail

    return [[entry(f, g) for g in basis] for f in basis]


def gram_inv_delta_scan(ball, k):
    """The gram entry by entry, each one scanning every pair of cylinders
    for the nonzero values of two basis functions."""
    cyls = cylinder_vertices(ball, k)
    basis = cylinder_basis(ball, k)
    energy = {(a, b): _pair_energy_inv(ball, a, b, k) for a in cyls for b in cyls}
    out = []
    for f in basis:
        row = []
        for g in basis:
            acc = Fraction(0)
            for a in cyls:
                if f[a] == 0:
                    continue
                for b in cyls:
                    if g[b] == 0:
                        continue
                    acc += f[a] * g[b] * energy[(a, b)]
            row.append(-acc)
        out.append(row)
    return out


class TestKernelGrams:
    @pytest.mark.parametrize("n, radius, k", [(2, 4, 2), (2, 5, 3), (3, 3, 2), (2, 6, 4)])
    def test_neg_log_matches_entrywise_walk(self, n, radius, k):
        ball = TreeBall(n, radius)
        assert gram_neg_log(ball, k) == gram_neg_log_walk(ball, k)

    @pytest.mark.parametrize(
        "n, radius, k", [(2, 4, 2), (2, 5, 3), (3, 3, 2), (2, 6, 4), (12, 1, 1)]
    )
    def test_inv_delta_matches_cylinder_scan(self, n, radius, k):
        ball = TreeBall(n, radius)
        assert gram_inv_delta(ball, k) == gram_inv_delta_scan(ball, k)

    @pytest.mark.parametrize("n, radius, k", [(2, 4, 1), (2, 4, 4), (3, 3, 2), (5, 2, 2)])
    def test_cylinders_in_ball_order(self, n, radius, k):
        ball = TreeBall(n, radius)
        assert cylinder_vertices(ball, k) == [v for v in ball.vertices() if len(v) == k]

    def test_neg_log_matches_refinement_oracle(self):
        ball = TreeBall(2, 5)
        k = 2
        basis = cylinder_basis(ball, k)
        gram = gram_neg_log(ball, k)
        for i, f in enumerate(basis):
            for j, g in enumerate(basis):
                assert gram[i][j] == refinement_oracle_neg_log(ball, k, f, g)

    def test_neg_log_oracle_other_branching(self):
        ball = TreeBall(3, 4)
        k = 1
        basis = cylinder_basis(ball, k)
        gram = gram_neg_log(ball, k)
        for i, f in enumerate(basis):
            for j, g in enumerate(basis):
                assert gram[i][j] == refinement_oracle_neg_log(ball, k, f, g)

    def test_inv_delta_matches_refinement_oracle(self):
        ball = TreeBall(2, 5)
        k = 2
        basis = cylinder_basis(ball, k)
        gram = gram_inv_delta(ball, k)
        for i, f in enumerate(basis):
            for j, g in enumerate(basis):
                assert gram[i][j] == refinement_oracle_inv(ball, k, f, g)

    def test_symmetry(self):
        ball = TreeBall(2, 5)
        for gram in (gram_neg_log(ball, 2), gram_inv_delta(ball, 2)):
            m = len(gram)
            for i in range(m):
                for j in range(m):
                    assert gram[i][j] == gram[j][i]

    def test_neg_log_positive_definite(self):
        ball = TreeBall(2, 5)
        gram = np.array([[float(x) for x in row] for row in gram_neg_log(ball, 2)])
        assert np.min(np.linalg.eigvalsh(gram)) > 0

    def test_basis_is_zero_mean(self):
        ball = TreeBall(2, 4)
        for f in cylinder_basis(ball, 2):
            assert root_mean(ball, 2, f) == 0


class TestHarmonicDecompose:
    def test_exact_split_properties(self):
        ball = TreeBall(2, 4)
        graph = tree_ball_graph(ball)
        rng = np.random.default_rng(23)
        flow = rational_list(rng, len(graph.edges))
        u, rem = harmonic_decompose(graph, flow)
        div = divergence(graph, rem)
        for i, flag in enumerate(graph.interior):
            if flag:
                assert div[i] == 0
        grad_u = gradient(graph, u)
        # orthogonality and Pythagoras, both exact
        assert edge_inner(grad_u, rem) == 0
        assert edge_inner(flow, flow) == edge_inner(grad_u, grad_u) + edge_inner(rem, rem)

    def test_float_matches_exact(self):
        ball = TreeBall(2, 4)
        graph = tree_ball_graph(ball)
        flow = single_edge_flow(graph, (), (0,))
        _, rem_e = harmonic_decompose(graph, flow)
        _, rem_f = harmonic_decompose(graph, [float(x) for x in flow])
        assert max(abs(float(a) - b) for a, b in zip(rem_e, rem_f)) < 1e-10
        assert interior_divergence_max(graph, rem_f) < 1e-10

    def test_poisson_flows_are_already_harmonic(self):
        ball = TreeBall(2, 4)
        graph = tree_ball_graph(ball)
        data = {c: Fraction(0) for c in cylinder_vertices(ball, 1)}
        data[(0,)] = Fraction(1)
        data[(1,)] = Fraction(-1)
        vals = poisson_transform(ball, graph, 1, data)
        u, rem = harmonic_decompose(graph, vals)
        # divergence-free input: the gradient part solves with zero data
        assert all(x == 0 for x in u)
        assert rem == vals

    def test_subtree_flow_norm_approaches_half(self):
        norms = subtree_flow_norms(3, [4, 6])
        assert norms == [Fraction(81, 160), Fraction(729, 1456)]
        # on the 4-regular tree the excess over 1/2 is 1 / (2 (3^r - 1))
        assert [x - Fraction(1, 2) for x in norms] == [Fraction(1, 160), Fraction(1, 1456)]

    def test_subtree_flow_exact_small(self):
        ball = TreeBall(2, 3)
        graph = tree_ball_graph(ball)
        flow = single_edge_flow(graph, (), (1,))
        _, rem = harmonic_decompose(graph, flow)
        val = edge_inner(rem, rem)
        assert Fraction(1, 3) < val < Fraction(1, 2)


def closed_form_flow_norm(n, r):
    return Fraction((n - 1) * n**r, (n + 1) * (n**r - 1))


class TestRadialFlowNorms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form(self, n):
        radii = list(range(1, 13))
        assert subtree_flow_norms(n, radii) == [closed_form_flow_norm(n, r) for r in radii]

    @pytest.mark.parametrize("n, r", [(2, r) for r in range(1, 7)] + [(3, r) for r in range(1, 6)])
    def test_matches_full_ball_decomposition(self, n, r):
        graph = tree_ball_graph(TreeBall(n, r))
        _, rem = harmonic_decompose(graph, single_edge_flow(graph, (), (0,)))
        (norm,) = subtree_flow_norms(n, [r])
        assert isinstance(norm, Fraction)
        assert norm == edge_inner(rem, rem)

    def test_large_radius_without_a_ball(self):
        # a radius-50 ball would have about 10^24 vertices
        norms = subtree_flow_norms(3, [48, 50])
        assert norms == [closed_form_flow_norm(3, 48), closed_form_flow_norm(3, 50)]

    @pytest.mark.parametrize("n, radii", [(1, [3]), (0, [3]), (3, [0]), (3, [4, -1])])
    def test_bad_tree_is_refused(self, n, radii):
        with pytest.raises(ConstraintViolation):
            subtree_flow_norms(n, radii)


class TestTreeSolver:
    GRAPHS = [
        ("ball-2-3", lambda: tree_ball_graph(TreeBall(2, 3))),
        ("ball-2-4", lambda: tree_ball_graph(TreeBall(2, 4))),
        ("ball-2-5", lambda: tree_ball_graph(TreeBall(2, 5))),
        ("ball-3-3", lambda: tree_ball_graph(TreeBall(3, 3))),
        ("cayley-2-3", lambda: cayley_graph(CayleyWindow(2, 3))),
        ("cayley-2-4", lambda: cayley_graph(CayleyWindow(2, 4))),
        ("cayley-3-2", lambda: cayley_graph(CayleyWindow(3, 2))),
    ]

    @pytest.mark.parametrize("build", [b for _, b in GRAPHS], ids=[name for name, _ in GRAPHS])
    def test_matches_dense_oracle(self, build):
        graph = build()
        rng = np.random.default_rng(len(graph.vertices))
        for _ in range(2):
            flow = rational_list(rng, len(graph.edges))
            u, rem = harmonic_decompose(graph, flow)
            assert all(isinstance(x, Fraction) for x in u + rem)
            assert (u, rem) == dense_decompose(graph, flow)

    def test_extra_edge_is_rejected(self):
        graph = tree_ball_graph(TreeBall(2, 2))
        cyclic = OrientedGraph(graph.vertices, graph.edges + ((1, 2),), graph.interior)
        with pytest.raises(ConstraintViolation, match="not a tree"):
            harmonic_decompose(cyclic, [Fraction(1)] * len(cyclic.edges))

    def test_disconnected_graph_is_rejected(self):
        # a triangle plus an isolated vertex: |E| = |V| - 1 but no tree
        graph = OrientedGraph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 0)), (True, True, False, False))
        with pytest.raises(ConstraintViolation, match="connected"):
            harmonic_decompose(graph, [Fraction(1)] * 3)

    def test_all_interior_tree_is_rejected(self):
        graph = OrientedGraph(("a", "b", "c"), ((0, 1), (1, 2)), (True, True, True))
        with pytest.raises(ConstraintViolation, match="boundary"):
            harmonic_decompose(graph, [Fraction(1), Fraction(2)])

    def test_boundary_root_is_allowed(self):
        # only the middle vertex is interior; the root at index 0 is boundary
        graph = OrientedGraph(("a", "b", "c"), ((0, 1), (1, 2)), (False, True, False))
        u, rem = harmonic_decompose(graph, [Fraction(1), Fraction(3)])
        assert u == [0, Fraction(-1), 0]
        assert rem == [Fraction(2), Fraction(2)]

    def test_cli_import_leaves_scipy_sparse_unloaded(self):
        src = str(Path(isoact.__file__).resolve().parents[1])
        probe = "import sys; sys.path.insert(0, sys.argv[1]); import isoact.cli; print('scipy.sparse' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"

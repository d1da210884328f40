"""The tree-identities and h1 suites against their old Fraction paths."""

import time
from fractions import Fraction

import numpy as np
import pytest

import isoact.suites as suites
from isoact.harmonic import (
    divergence,
    edge_inner,
    gradient,
    harmonic_decompose,
    mean_value_laplacian,
    tree_ball_graph,
    vertex_inner,
)
from isoact.report import SuiteConfig
from isoact.suites import RATIONAL_SCALE, _scaled_rationals, run_suite
from isoact.treeball import TreeBall


def _rational(rng):
    """One sampled rational from two scalar draws: the oracle for ``_scaled_rationals``."""
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))


def fraction_matrix_worst(ball, graph, laplacian=mean_value_laplacian):
    """Largest |div grad e_i - (n + 1) MVL e_i| over Fraction basis vectors."""
    size = len(graph.vertices)
    p = ball.n + 1
    worst = Fraction(0)
    for i in range(size):
        basis = [Fraction(0)] * size
        basis[i] = Fraction(1)
        dg = divergence(graph, gradient(graph, basis))
        for j, val in laplacian(ball, graph, basis).items():
            worst = max(worst, abs(dg[j] - p * val))
    return worst


def rows_by_id(report):
    return {row.id: row for row in report.rows}


class TestScaledRationals:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**40 + 3])
    def test_equals_scalar_draws_and_generator_state(self, seed):
        for count in (1, 5, 94):
            fast = np.random.default_rng([seed, count])
            slow = np.random.default_rng([seed, count])
            scaled = _scaled_rationals(fast, count)
            assert all(type(x) is int for x in scaled)
            assert [Fraction(x, RATIONAL_SCALE) for x in scaled] == [
                _rational(slow) for _ in range(count)
            ]
            assert fast.bit_generator.state == slow.bit_generator.state
            assert fast.integers(0, 2**62) == slow.integers(0, 2**62)


class TestTreeIdentities:
    @pytest.mark.parametrize("n, radius", [(2, 5), (3, 4), (5, 3), (2, 1)])
    def test_matrix_row_equals_fraction_oracle(self, n, radius):
        ball = TreeBall(n, radius)
        rows = rows_by_id(
            run_suite(
                SuiteConfig.make(
                    "tree-identities", trials=1, params={"n_values": [n], "radius": radius}
                )
            )
        )
        oracle = fraction_matrix_worst(ball, tree_ball_graph(ball))
        assert rows[f"matrix-n{n}"].residual == str(oracle) == "0"

    def test_wrong_laplacian_moves_both_passes_alike(self, monkeypatch):
        # one interior entry off by 1/7 must show as the same worst residual on both paths
        def skewed(ball, graph, f):
            out = mean_value_laplacian(ball, graph, f)
            out[3] = out[3] + Fraction(1, 7) * f[5]
            return out

        ball = TreeBall(2, 3)
        oracle = fraction_matrix_worst(ball, tree_ball_graph(ball), skewed)
        assert oracle == Fraction(3, 7)
        monkeypatch.setattr(suites, "mean_value_laplacian", skewed)
        cfg = SuiteConfig.make("tree-identities", trials=1, params={"n_values": [2], "radius": 3})
        row = rows_by_id(run_suite(cfg))["matrix-n2"]
        assert (row.residual, row.verdict) == ("3/7", "fail")

    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_adjoint_rows_equal_fraction_path(self, seed):
        trials = 12
        report = run_suite(SuiteConfig.make("tree-identities", seed=seed, trials=trials))
        rows = rows_by_id(report)
        for n, radius in ((2, 5), (3, 4), (5, 3)):
            graph = tree_ball_graph(TreeBall(n, radius))
            for k in range(trials):
                rng = np.random.default_rng([seed, n, k])
                f = [_rational(rng) for _ in graph.vertices]
                h = [_rational(rng) for _ in graph.edges]
                lhs = edge_inner(gradient(graph, f), h)
                rhs = vertex_inner(f, divergence(graph, h))
                row = rows[f"adjoint-n{n}-{k:03d}"]
                assert (row.value, row.residual) == (str(lhs), str(abs(lhs - rhs)))


class TestH1:
    @pytest.mark.parametrize("seed", [0, 42])
    def test_coboundary_rows_equal_fraction_path(self, seed):
        trials = 4
        cfg = SuiteConfig.make("h1", seed=seed, trials=trials, params={"radii": [2, 3]})
        rows = rows_by_id(run_suite(cfg))
        ball = TreeBall(2, 5)
        graph = tree_ball_graph(ball)
        for k in range(trials):
            rng = np.random.default_rng([seed, 0, k])
            r = [
                Fraction(0) if len(v) == ball.radius else _rational(rng) for v in graph.vertices
            ]
            _, rem = harmonic_decompose(graph, gradient(graph, r))
            norm2 = edge_inner(rem, rem)
            row = rows[f"coboundary-{k:02d}"]
            assert (row.value, row.residual) == (str(norm2), str(norm2)) == ("0", "0")

    def test_halftree_rows_are_exact(self):
        rows = rows_by_id(run_suite(SuiteConfig.make("h1", trials=1)))
        assert rows["halftree-r06"].value == "729/1456"
        assert rows["halftree-r08"].value == "6561/13120"
        assert rows["halftree-r10"].value == "59049/118096"
        # float tolerance 0.0 against the floor, the configured drift on the spread
        assert (rows["halftree-r10"].residual, rows["halftree-r10"].tolerance) == ("0.0", "0.0")
        stability = rows["halftree-stability"]
        assert (stability.residual, stability.tolerance) == ("729/1193920", "0.05")

    def test_radius_fifty_is_fast_and_exact(self):
        began = time.perf_counter()
        report = run_suite(SuiteConfig.make("h1", trials=1, params={"radii": [48, 50]}))
        assert time.perf_counter() - began < 1.0
        rows = rows_by_id(report)
        for r in (48, 50):
            closed = Fraction(2 * 3**r, 4 * (3**r - 1))
            assert rows[f"halftree-r{r}"].value == str(closed)
        assert report.summary() == {"pass": 4, "fail": 0, "unresolved": 0}

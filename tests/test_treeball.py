"""Tree balls, boundary metric and measure, lattice windows, derivatives."""

from fractions import Fraction

import numpy as np
import pytest

from isoact.errors import ConstraintViolation
from isoact.groups import free_reduce
from isoact.treeball import (
    MAX_BALL_VERTICES,
    TreeAutomorphism,
    TreeBall,
    abs_metric,
    address_to_word,
    boundary_derivative,
    cylinder_measure,
    freeword_automorphism,
    lattice_distance,
    mat_det,
    mat_mul,
    measure_from,
    tree_distance,
    word_to_address,
)


def neighbors(ball, v):
    """The children of ``v`` and, below the root, its parent."""
    return ball.children(v) + ([ball.parent(v)] if v else [])


class TestBallCombinatorics:
    def test_vertex_count_formula(self):
        for n, r in [(2, 1), (2, 4), (3, 3), (5, 2)]:
            ball = TreeBall(n, r)
            assert len(ball.vertices()) == ball.vertex_count()

    def test_known_count(self):
        # the 4-regular tree ball of radius 10, used by the harmonic solver
        assert TreeBall(3, 10).vertex_count() == 118097

    def test_degrees(self):
        ball = TreeBall(2, 3)
        for v in ball.vertices():
            if ball.is_interior(v):
                assert len(neighbors(ball, v)) == 3
            else:
                assert len(neighbors(ball, v)) == 1

    def test_distance_properties(self):
        ball = TreeBall(2, 3)
        vs = ball.vertices()
        rng = np.random.default_rng(0)
        idx = rng.integers(0, len(vs), size=(60, 3))
        for i, j, k in idx:
            u, v, w = vs[i], vs[j], vs[k]
            assert tree_distance(u, v) == tree_distance(v, u)
            assert tree_distance(u, v) <= tree_distance(u, w) + tree_distance(w, v)
            assert (tree_distance(u, v) == 0) == (u == v)

    def test_distance_along_path(self):
        ball = TreeBall(3, 4)
        v = (1, 0, 2, 1)
        for j in range(5):
            assert tree_distance((), v[:j]) == j
        assert tree_distance((0, 1), (0, 2)) == 2

    def test_membership(self):
        ball = TreeBall(2, 2)
        assert ball.contains((2, 1))
        assert not ball.contains((2, 2))  # deeper digits stop at n-1
        assert not ball.contains((3,))
        assert not ball.contains((0, 0, 0))
        with pytest.raises(ConstraintViolation, match=r"address \(9,\) is not in the ball"):
            ball.require((9,))

    def test_bad_parameters(self):
        with pytest.raises(ConstraintViolation):
            TreeBall(1, 3)
        with pytest.raises(ConstraintViolation):
            TreeBall(2, 0)

    def test_size_cap(self):
        # the largest balls the registered suites build: h1 at radius 10, n = 3,
        # and tree-identities at n = 5, radius 5
        assert TreeBall(3, 10).vertex_count() == 118097
        assert TreeBall(5, 5).vertex_count() == 4687
        assert TreeBall(2, 18).vertex_count() == 786430 <= MAX_BALL_VERTICES
        with pytest.raises(ConstraintViolation, match="radius 19 gives 1572862 vertices"):
            TreeBall(2, 19)
        with pytest.raises(ConstraintViolation, match="radius 40 gives 24315330918113857601"):
            TreeBall(3, 40)
        with pytest.raises(ConstraintViolation, match="radius 1 gives 1000002"):
            TreeBall(10**6, 1)
        with pytest.raises(ConstraintViolation, match="radius 10000000000 gives more than"):
            TreeBall(2, 10**10)


class TestBoundaryMetric:
    def test_values(self):
        ball = TreeBall(2, 4)
        x = (0, 1, 1, 0)
        y = (0, 1, 0, 0)
        assert abs_metric(ball, x, y) == Fraction(1, 4)
        assert abs_metric(ball, x, x) == 0
        assert abs_metric(ball, (0, 0, 0, 0), (1, 0, 0, 0)) == 1

    def test_ultrametric_inequality(self):
        ball = TreeBall(3, 3)
        leaves = ball.leaves()
        rng = np.random.default_rng(1)
        for _ in range(300):
            x, y, z = (leaves[int(i)] for i in rng.integers(0, len(leaves), size=3))
            assert abs_metric(ball, x, z) <= max(abs_metric(ball, x, y), abs_metric(ball, y, z))

    def test_prefix_pair_unresolvable(self):
        ball = TreeBall(2, 3)
        with pytest.raises(ConstraintViolation, match="agree on all available digits"):
            abs_metric(ball, (0, 1), (0, 1, 1))


class TestCanonicalMeasure:
    def test_total_mass_and_splitting(self):
        ball = TreeBall(3, 3)
        assert sum(cylinder_measure(ball, (i,)) for i in range(4)) == 1
        for v in ball.vertices():
            kids = ball.children(v)
            if kids:
                assert sum(cylinder_measure(ball, c) for c in kids) == cylinder_measure(ball, v)

    def test_viewpoint_measures_are_probabilities(self):
        ball = TreeBall(2, 3)
        leaves = ball.leaves()
        for u in ball.vertices():
            assert sum(measure_from(ball, u, l) for l in leaves) == 1

    def test_viewpoint_measure_is_harmonic(self):
        # at an interior vertex the measure equals the average over neighbours
        ball = TreeBall(2, 3)
        leaves = ball.leaves()
        for u in ball.vertices():
            if not ball.is_interior(u):
                continue
            for l in leaves:
                avg = sum(measure_from(ball, w, l) for w in neighbors(ball, u)) / Fraction(
                    len(neighbors(ball, u))
                )
                assert measure_from(ball, u, l) == avg

    def test_root_viewpoint_matches_cylinders(self):
        ball = TreeBall(3, 2)
        for l in ball.leaves():
            assert measure_from(ball, (), l) == cylinder_measure(ball, l)


# Windows of lattice classes: a second model of the tree ball for lattice_distance
# and a second action for boundary_derivative.


def rational_matrix(entries):
    (a, b), (c, d) = entries
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


def lattice_neighbor_steps(p):
    """The ``p + 1`` index-``p`` sublattice steps, in canonical order.

    These are the sublattices between ``p Z^2`` and ``Z^2``: the span of
    ``(p e_1, k e_1 + e_2)`` for each ``k < p``, and ``(e_1, p e_2)``.
    """
    return [rational_matrix(((p, k), (0, 1))) for k in range(p)] + [
        rational_matrix(((1, 0), (0, p)))
    ]


class LatticeBall:
    """BFS window of lattice classes around the standard class.

    Classes are enumerated outward from ``[Z_p^2]`` in the canonical step
    order, which matches the addressing of ``TreeBall(n=p, radius)`` vertex
    for vertex.
    """

    def __init__(self, p, radius):
        self.p = p
        self.ball = TreeBall(p, radius)
        self.reps = {(): rational_matrix(((1, 0), (0, 1)))}
        frontier = [()]
        for _ in range(radius):
            nxt = []
            for v in frontier:
                fresh = [mat_mul(self.reps[v], step) for step in lattice_neighbor_steps(p)]
                if v:
                    parent = self.reps[self.ball.parent(v)]
                    fresh = [m for m in fresh if lattice_distance(m, parent, p) != 0]
                children = self.ball.children(v)
                assert len(fresh) == len(children)
                self.reps.update(zip(children, fresh))
                nxt.extend(children)
            frontier = nxt

    def address_of(self, m):
        for addr, rep in self.reps.items():
            if lattice_distance(m, rep, self.p) == 0:
                return addr
        raise ConstraintViolation("lattice class lies outside this window")


def matrix_automorphism(g, lattice_ball):
    """Left multiplication by a rational matrix on a lattice-class window."""
    g = rational_matrix(g)
    assert mat_det(g) != 0
    mapping = {}
    for addr, rep in lattice_ball.reps.items():
        try:
            mapping[addr] = lattice_ball.address_of(mat_mul(g, rep))
        except ConstraintViolation:
            continue
    return TreeAutomorphism(lattice_ball.ball, mapping)


class TestLatticeClasses:
    def test_distance_axioms(self):
        p = 3
        ident = ((1, 0), (0, 1))
        m = ((Fraction(9), Fraction(1)), (Fraction(0), Fraction(1)))
        assert lattice_distance(ident, ident, p) == 0
        assert lattice_distance(ident, m, p) == lattice_distance(m, ident, p)

    def test_homothety_invariance(self):
        p = 2
        m = ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(1)))
        scaled = ((Fraction(8), Fraction(4)), (Fraction(0), Fraction(4)))
        assert lattice_distance(m, scaled, p) == 0

    def test_apartment_distances(self):
        p = 2
        ident = ((1, 0), (0, 1))
        for j in range(5):
            m = ((Fraction(p**j), 0), (0, 1))
            assert lattice_distance(ident, m, p) == j

    def test_neighbors_distinct_distance_one(self):
        for p in (2, 3):
            steps = lattice_neighbor_steps(p)
            assert len(steps) == p + 1
            ident = ((1, 0), (0, 1))
            for s in steps:
                assert lattice_distance(ident, s, p) == 1
            for i in range(len(steps)):
                for j in range(i + 1, len(steps)):
                    assert lattice_distance(steps[i], steps[j], p) > 0

    def test_singular_rejected(self):
        with pytest.raises(ConstraintViolation, match="second matrix is singular"):
            lattice_distance(((1, 0), (0, 1)), ((1, 1), (1, 1)), 2)

    def test_window_matches_tree_ball(self):
        # radius-2 window around the standard class is isometric to the
        # abstract ball, address for address
        for p in (2, 3):
            win = LatticeBall(p, 2)
            ball = win.ball
            vs = ball.vertices()
            assert len(win.reps) == ball.vertex_count()
            for u in vs:
                for v in vs:
                    assert lattice_distance(win.reps[u], win.reps[v], p) == tree_distance(u, v)

    def test_address_lookup(self):
        win = LatticeBall(2, 3)
        m = ((Fraction(4), 0), (0, 1))
        addr = win.address_of(m)
        assert lattice_distance(win.reps[addr], m, 2) == 0
        with pytest.raises(ConstraintViolation, match="lattice class lies outside this window"):
            win.address_of(((Fraction(1, 16), 0), (0, 1)))


class TestWordAddressing:
    def test_round_trip(self):
        for letters in [(), (1,), (-2,), (1, 2, -1), (2, 2, 2), (-1, -1, 2, 1)]:
            w = free_reduce(letters, 2)
            assert address_to_word(word_to_address(w), 2) == w

    def test_address_depth_is_word_length(self):
        w = free_reduce((1, -2, 1, 1), 2)
        assert len(word_to_address(w)) == 4

    def test_addresses_respect_tree_metric(self):
        # d(u, v) in the ball must equal |u^-1 v| in the free group
        rng = np.random.default_rng(2)
        from isoact.groups import random_word

        for _ in range(50):
            u = random_word(rng, 2, int(rng.integers(0, 5)))
            v = random_word(rng, 2, int(rng.integers(0, 5)))
            assert tree_distance(word_to_address(u), word_to_address(v)) == len(
                u.inverse() * v
            )


class TestAutomorphismWindows:
    def test_freeword_window_valid(self):
        g = free_reduce((1, 2), 2)
        auto = freeword_automorphism(g, 4)
        assert auto(()) == word_to_address(g)

    def test_injectivity_enforced(self):
        ball = TreeBall(2, 1)
        with pytest.raises(ConstraintViolation):
            TreeAutomorphism(ball, {(0,): (1,), (1,): (1,)})

    def test_adjacency_enforced(self):
        ball = TreeBall(2, 2)
        with pytest.raises(ConstraintViolation):
            TreeAutomorphism(ball, {(): (), (0,): (1, 0)})

    def test_derivative_translation(self):
        # left translation by a generator: factor n at the attracting end,
        # 1/n at the repelling end
        g = free_reduce((1,), 2)
        radius = 6
        auto = freeword_automorphism(g, radius)
        n = 2 * 2 - 1
        att = word_to_address(free_reduce((1,) * radius, 2))
        rep = word_to_address(free_reduce((-1,) * radius, 2))
        assert boundary_derivative(auto, att) == Fraction(n)
        assert boundary_derivative(auto, rep) == Fraction(1, n)

    def test_derivative_cocycle_cancellation(self):
        # alpha(g, x) + alpha(g^-1, g x) = 0 at a fixed end of g
        g = free_reduce((1, 1), 2)
        auto_f = freeword_automorphism(g, 6)
        auto_b = freeword_automorphism(g.inverse(), 6)
        att = word_to_address(free_reduce((1,) * 6, 2))
        assert boundary_derivative(auto_f, att) * boundary_derivative(auto_b, att) == 1

    def test_derivative_matches_measure_ratio(self):
        # n^alpha = mu(g^-1 C) / mu(C) for a small cylinder C at the image end
        g = free_reduce((1,), 2)
        radius = 6
        auto_b = freeword_automorphism(g.inverse(), radius)
        ball = auto_b.ball
        att = word_to_address(free_reduce((1,) * radius, 2))
        deriv = boundary_derivative(freeword_automorphism(g, radius), att)
        c = att[:5]  # deep cylinder around the (fixed) image end
        pulled = auto_b(c)
        assert cylinder_measure(ball, pulled) / cylinder_measure(ball, c) == deriv

    def test_derivative_elliptic_is_one(self):
        # conjugate of a generator fixes no end through the window boundary?
        # rotation-like: the identity map has derivative 1 everywhere
        g = free_reduce((), 2)
        auto = freeword_automorphism(g, 4)
        end = word_to_address(free_reduce((2,) * 4, 2))
        assert boundary_derivative(auto, end) == 1

    def test_derivative_needs_stable_tail(self):
        g = free_reduce((1,), 2)
        auto = freeword_automorphism(g, 3)
        # ray covered only up to depth 2 inside a radius-3 window: with the
        # image escaping, fewer than STABLE_STEPS = 3 offsets are available
        short = word_to_address(free_reduce((-2, 1, 1), 2))
        with pytest.raises(ConstraintViolation, match="only 2 ray vertices are covered; at least 3"):
            boundary_derivative(auto, short)

    def test_matrix_translation_derivative(self):
        # diag(p, 1) translates the standard apartment one step; the
        # attracting end scales by p
        p = 2
        win = LatticeBall(p, 5)
        g = ((Fraction(p), 0), (0, 1))
        auto = matrix_automorphism(g, win)
        end = win.address_of(((Fraction(p**5), 0), (0, 1)))
        assert len(end) == 5
        assert boundary_derivative(auto, end) == Fraction(p)

    def test_matrix_window_isometric(self):
        p = 2
        win = LatticeBall(p, 3)
        g = ((Fraction(1), Fraction(1)), (0, Fraction(1)))  # unipotent, fixes the base end
        auto = matrix_automorphism(g, win)
        vs = [v for v in win.ball.vertices() if auto.defined_at(v)]
        rng = np.random.default_rng(3)
        for _ in range(40):
            u, v = (vs[int(i)] for i in rng.integers(0, len(vs), size=2))
            assert tree_distance(auto(u), auto(v)) == tree_distance(u, v)

"""Cayley-tree geometry: lengths, axes, flows, cocycle identities."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from isoact.errors import ConstraintViolation
from isoact.groups import FreeWord, free_reduce, random_word
from isoact.rtree import (
    EdgeVector,
    cocycle_defect,
    flow_cocycle,
    free_cayley_gamma,
    power_norm_deviation,
    translation_length,
    unit_flow,
)
from isoact.report import SuiteConfig, digest_of, format_number
from isoact.suites import _conjugate_lengths, run_suite


def word_distance(u: FreeWord, v: FreeWord) -> int:
    return len(u.inverse() * v)


def geodesic(x: FreeWord, y: FreeWord) -> list:
    """Vertices of the tree geodesic from ``x`` to ``y``, endpoints included."""
    out = [x]
    for letter in (x.inverse() * y).letters:
        out.append(out[-1] * FreeWord((letter,), x.rank))
    return out


def brute_window(rank: int, search_radius: int = 8) -> list:
    """Every ``(x^-1, x)`` with ``1 <= |x| <= search_radius``, enumerated
    with ``FreeWord`` products and a ``seen`` set."""
    frontier = [FreeWord((), rank)]
    seen = {()}
    window = []
    for _ in range(search_radius):
        nxt = []
        for x in frontier:
            for letter in range(-rank, rank + 1):
                if letter == 0:
                    continue
                y = x * FreeWord((letter,), rank)
                if y.letters not in seen:
                    seen.add(y.letters)
                    nxt.append(y)
        frontier = nxt
        window.extend((x.inverse(), x) for x in frontier)
    return window


def brute_translation_length(g: FreeWord, window: list) -> int:
    """Minimum of ``|x^-1 g x|`` over the empty word and every ``x`` of the window."""
    return min([len(g)] + [len(x_inv * g * x) for x_inv, x in window])


def translation_length_from_basepoint(g: FreeWord, x: FreeWord) -> int:
    """``max(0, d(x, g^2 x) - d(x, g x))``: the length without cyclic reduction, from any basepoint."""
    return max(0, word_distance(x, g * g * x) - word_distance(x, g * x))


class TestTranslationLength:
    def test_generators(self):
        g = free_reduce([1], 2)
        assert translation_length(g) == 1

    def test_conjugate(self):
        # b a b^-1 has core a
        g = free_reduce([2, 1, -2], 2)
        assert translation_length(g) == 1

    def test_identity(self):
        assert translation_length(free_reduce([], 2)) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(30)
        window = brute_window(2)
        assert len(window) == 2 * (3**8 - 1)
        for _ in range(40):
            g = random_word(rng, 2, int(rng.integers(0, 7)))
            assert translation_length(g) == brute_translation_length(g, window)

    def test_basepoint_formula_agrees(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            g = random_word(rng, 2, int(rng.integers(0, 7)))
            x = random_word(rng, 2, int(rng.integers(0, 5)))
            assert translation_length_from_basepoint(g, x) == translation_length(g)

    def test_homogeneity(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            g = random_word(rng, 2, int(rng.integers(1, 6)))
            for k in (1, 2, 3, 5):
                assert translation_length(g**k) == k * translation_length(g)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            g = random_word(rng, 2, int(rng.integers(1, 6)))
            x = random_word(rng, 2, int(rng.integers(0, 5)))
            assert translation_length(x * g * x.inverse()) == translation_length(g)


def _window_words(rank: int, radius: int) -> list:
    """Every reduced word of length at most ``radius``, breadth first."""
    words = [FreeWord((), rank)]
    frontier = [FreeWord((), rank)]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            last = x.letters[-1] if x.letters else 0
            for letter in range(-rank, rank + 1):
                if letter == 0 or letter == -last:
                    continue
                nxt.append(FreeWord(x.letters + (letter,), rank))
        words.extend(nxt)
        frontier = nxt
    return words


def brute_conjugate_lengths(g: FreeWord, radius: int) -> list:
    """``|x^-1 g x|`` over the window, each conjugate fully reduced from raw letters."""
    return [
        len(free_reduce(x.inverse().letters + g.letters + x.letters, g.rank))
        for x in _window_words(g.rank, radius)
    ]


def suite_words(seed: int, trials: int, word_length: int) -> list:
    """The words of the translation-length suite, drawn as it draws them."""
    words = []
    for k in range(trials):
        rng = np.random.default_rng([seed, 0, k])
        words.append(random_word(rng, 2, int(rng.integers(1, word_length + 1))))
    return words


class TestWindowMinimum:
    """The batched level walk behind the translation-length suite's window minimum."""

    def test_matches_brute_force_window(self):
        rng = np.random.default_rng(35)
        for radius in range(1, 6):
            for _ in range(4):
                lengths = rng.integers(0, 9, size=50)
                words = [FreeWord((), 2)] + [random_word(rng, 2, int(n)) for n in lengths]
                rows = _conjugate_lengths(words, radius)
                assert rows.shape[0] == len(words)
                for g, row in zip(words, rows):
                    assert Counter(row.tolist()) == Counter(brute_conjugate_lengths(g, radius)), g

    def test_empty_word(self):
        for radius in range(1, 6):
            rows = _conjugate_lengths([FreeWord((), 2), free_reduce([1, 2], 2)], radius)
            assert rows[0].tolist() == [0] * (1 + 2 * (3**radius - 1))

    @pytest.mark.parametrize("radius", [1, 4, 8])
    def test_visits_every_window_word(self, radius):
        words = [free_reduce([1, 2, -1, 2], 2), FreeWord((), 2), free_reduce([2] * 9, 2)]
        assert _conjugate_lengths(words, radius).shape == (3, 1 + 2 * (3**radius - 1))
        assert len(_window_words(2, radius)) == 1 + 2 * (3**radius - 1)

    def test_rank_three_window(self):
        words = [free_reduce(w, 3) for w in ([3, 1, -2, -3], [], [2], [1, 3, 3, -1, 2, 2])]
        for radius in (1, 2, 3):
            for g, row in zip(words, _conjugate_lengths(words, radius)):
                assert Counter(row.tolist()) == Counter(brute_conjugate_lengths(g, radius)), g

    def test_window_too_small_for_the_core(self):
        # a^4 b a^-4 has translation length 1; radius 2 only strips two a's
        g = free_reduce([1, 1, 1, 1, 2, -1, -1, -1, -1], 2)
        assert translation_length(g) == 1
        assert _conjugate_lengths([g], 2).min() == 5
        assert _conjugate_lengths([g], 4).min() == 1

    def test_independent_of_products_and_cyclic_reduction(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the window walk must not use this")

        monkeypatch.setattr(FreeWord, "__mul__", forbidden)
        monkeypatch.setattr(FreeWord, "cyclic_reduce", forbidden)
        monkeypatch.setattr("isoact.suites.translation_length", forbidden)
        g = free_reduce([2, 1, 1, -2], 2)
        assert _conjugate_lengths([g], 3).min() == 2

    def test_suite_rows_take_each_trials_own_minimum(self):
        # 250 trials at radius 4 walk in three batches of at most 101 words
        cfg = SuiteConfig.make("translation-length", seed=3, trials=250, params={"radius": 4})
        rows = run_suite(cfg).rows
        for k, g in enumerate(suite_words(3, 250, 6)):
            inputs = {"seed": 3, "trial": k, "g": list(g.letters), "radius": 4}
            brute = min(brute_conjugate_lengths(g, 4))
            assert rows[k].inputs == digest_of(inputs)
            assert rows[k].residual == format_number(Fraction(abs(brute - translation_length(g))))

    def test_more_trials_keep_earlier_rows(self):
        def rows(trials):
            cfg = SuiteConfig.make("translation-length", 5, trials, params={"radius": 4})
            return run_suite(cfg).rows

        assert rows(250)[:50] == rows(50)

    def test_memory_does_not_grow_with_trials(self):
        def suite(trials):
            cfg = SuiteConfig.make("translation-length", trials=trials, params={"radius": 10})
            tracemalloc.start()
            try:
                run_suite(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        suite(1)  # allocations made once per process stay out of the comparison
        one, three = suite(1), suite(3)
        assert abs(three - one) <= 0.1 * one, (one, three)
        assert max(one, three) < 4_000_000


def axis_point(g: FreeWord, x: FreeWord = None) -> FreeWord:
    """A vertex on the axis of ``g``, found from the geodesic ``[x, g x]``.

    The point at distance ``(d(x, gx) - l(g)) / 2`` from ``x`` along the
    geodesic to ``g x`` lies on the axis.  From the identity this is the
    conjugating prefix of the cyclic reduction.
    """
    if len(g) == 0:
        raise ConstraintViolation("the identity has no axis")
    if x is None:
        x = FreeWord((), g.rank)
    offset = (word_distance(x, g * x) - translation_length(g)) // 2
    return geodesic(x, g * x)[offset]


class TestAxis:
    def test_axis_point_from_identity_is_conjugator(self):
        g = free_reduce([2, 2, 1, -2, -2], 2)
        _, c = g.cyclic_reduce()
        assert axis_point(g) == c

    def test_axis_point_has_minimal_displacement(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            g = random_word(rng, 2, int(rng.integers(1, 7)))
            x = random_word(rng, 2, int(rng.integers(0, 4)))
            p = axis_point(g, x)
            assert word_distance(p, g * p) == translation_length(g)

    def test_identity_has_no_axis(self):
        with pytest.raises(ConstraintViolation):
            axis_point(free_reduce([], 2))


# Finite tree automorphisms, which no suite or command classifies yet; kept with their tests.


def classify_finite_tree_isometry(edges, perm):
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


class TestFiniteTreeIsometries:
    # path 0 - 1 - 2 - 3
    PATH = [(0, 1), (1, 2), (2, 3)]

    def test_elliptic(self):
        kind, fix = classify_finite_tree_isometry(self.PATH, [0, 1, 2, 3])
        assert kind == "elliptic" and fix == 0

    def test_reflection_fixes_centre(self):
        # star with centre 0: swapping two leaves fixes the centre
        kind, fix = classify_finite_tree_isometry([(0, 1), (0, 2), (0, 3)], [0, 2, 1, 3])
        assert kind == "elliptic" and fix == 0

    def test_inversion(self):
        kind, edge = classify_finite_tree_isometry(self.PATH, [3, 2, 1, 0])
        assert kind == "inversion" and edge == (1, 2)

    def test_non_automorphism_rejected(self):
        with pytest.raises(ConstraintViolation):
            classify_finite_tree_isometry(self.PATH, [0, 2, 1, 3])

    def test_non_tree_rejected(self):
        with pytest.raises(ConstraintViolation):
            classify_finite_tree_isometry([(0, 1), (1, 2)], [0, 1, 2, 3])


class TestFlows:
    def test_norm_is_distance(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            x = random_word(rng, 2, int(rng.integers(0, 6)))
            y = random_word(rng, 2, int(rng.integers(0, 6)))
            assert unit_flow(x, y).norm2() == word_distance(x, y)

    def test_reversal_negates(self):
        x = free_reduce([1, 2], 2)
        y = free_reduce([-2, 1], 2)
        assert not (unit_flow(x, y) + unit_flow(y, x)).coeffs

    def test_triangle_cancels_exactly(self):
        rng = np.random.default_rng(36)
        for _ in range(60):
            x, y, z = (random_word(rng, 2, int(rng.integers(0, 6))) for _ in range(3))
            assert not (unit_flow(x, y) + unit_flow(y, z) + unit_flow(z, x)).coeffs

    def test_translate_is_isometric_action(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            g = random_word(rng, 2, int(rng.integers(0, 5)))
            x = random_word(rng, 2, int(rng.integers(0, 5)))
            y = random_word(rng, 2, int(rng.integers(0, 5)))
            v = unit_flow(x, y)
            assert v.translate(g) == unit_flow(g * x, g * y)
            assert v.translate(g).norm2() == v.norm2()

    def test_translate_composes(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            g1 = random_word(rng, 2, int(rng.integers(0, 5)))
            g2 = random_word(rng, 2, int(rng.integers(0, 5)))
            v = unit_flow(random_word(rng, 2, 3), random_word(rng, 2, 4))
            assert v.translate(g2).translate(g1) == v.translate(g1 * g2)

    def test_cocycle_law_exact(self):
        rng = np.random.default_rng(39)
        for _ in range(60):
            g1 = random_word(rng, 2, int(rng.integers(0, 7)))
            g2 = random_word(rng, 2, int(rng.integers(0, 7)))
            assert not cocycle_defect(g1, g2).coeffs

    def test_cocycle_norm(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            g = random_word(rng, 2, int(rng.integers(0, 7)))
            assert flow_cocycle(g).norm2() == len(g)

    def test_vector_space_ops(self):
        v = unit_flow(free_reduce([], 2), free_reduce([1, 2], 2))
        w = v.scale(Fraction(1, 2))
        assert w.norm2() == Fraction(1, 2)
        assert not (v - v).coeffs
        assert sum(c * w.as_dict().get(k, 0) for k, c in v.coeffs) == 1


class TestMetricTree:
    def path_oracle(self, tree, x, y):
        # climb both chains to the root, trim the shared tail, sum lengths
        cx, cy = tree._chain(x), tree._chain(y)
        while cx and cy and cx[-1] == cy[-1]:
            cx.pop()
            cy.pop()
        return sum((tree.lengths[e] for e in cx + cy), Fraction(0))

    def test_distance_matches_oracle(self):
        rng = np.random.default_rng(47)
        from isoact.rtree import MetricTree, random_metric_tree

        for _ in range(10):
            tree = random_metric_tree(rng, 40)
            for _ in range(10):
                x, y = (int(v) for v in rng.integers(0, 40, size=2))
                flow = tree.flow(x, y)
                assert tree.pairing(flow, flow) == self.path_oracle(tree, x, y)

    def test_flow_norm_is_distance(self):
        from isoact.rtree import random_metric_tree

        rng = np.random.default_rng(48)
        tree = random_metric_tree(rng, 40)
        for _ in range(20):
            x, y = (int(v) for v in rng.integers(0, 40, size=2))
            f = tree.flow(x, y)
            assert tree.pairing(f, f) == self.path_oracle(tree, x, y)
            assert all(c in (-1, 1) for c in f.values())

    def test_triangle_flow_cancels(self):
        from isoact.rtree import random_metric_tree

        rng = np.random.default_rng(49)
        for _ in range(10):
            tree = random_metric_tree(rng, 40)
            x, y, z = (int(v) for v in rng.integers(0, 40, size=3))
            assert tree.triangle_flow(x, y, z) == {}

    def test_validation(self):
        from isoact.rtree import MetricTree

        with pytest.raises(ConstraintViolation):
            MetricTree((0, 2), (Fraction(0), Fraction(1)))
        with pytest.raises(ConstraintViolation):
            MetricTree((0, 0), (Fraction(0), Fraction(0)))
        with pytest.raises(ConstraintViolation):
            MetricTree((1, 0), (Fraction(0), Fraction(1)))


def distinguished_projection(v: EdgeVector, alpha: int) -> EdgeVector:
    """Drop every edge whose label exceeds ``alpha``.

    Left translation preserves edge labels, so this projection commutes
    with :meth:`EdgeVector.translate` and sends cocycles to cocycles.
    """
    return EdgeVector.from_dict(v.rank, {k: c for k, c in v.coeffs if k[1] <= alpha})


def collapsed_cocycle_defect(g1: FreeWord, g2: FreeWord, alpha: int) -> EdgeVector:
    """Cocycle identity defect for the collapsed tree; zero always."""
    return (
        free_cayley_gamma(g1 * g2, alpha)
        - free_cayley_gamma(g2, alpha).translate(g1)
        - free_cayley_gamma(g1, alpha)
    )


# The vertices of the collapsed tree, which no suite or command walks yet; kept with their tests.


def coset_representative(u: FreeWord, alpha: int) -> FreeWord:
    """Shortest word reached from ``u`` along collapsed edges.

    Strips the maximal suffix of letters outside the first ``alpha``
    generators; the results are exactly the vertices of the collapsed
    tree, one per collapsed component.
    """
    letters = list(u.letters)
    while letters and abs(letters[-1]) > alpha:
        letters.pop()
    return FreeWord(tuple(letters), u.rank)


def coset_path(g: FreeWord, alpha: int) -> list:
    """Vertices of the collapsed tree visited on the way from ``o`` to ``g o``.

    Tracks the component representative along the word and records each
    change.  The path never revisits a vertex, and its step count equals
    the number of distinguished letters in ``g``.
    """
    path = [FreeWord((), g.rank)]
    for k in range(1, len(g) + 1):
        rep = coset_representative(FreeWord(g.letters[:k], g.rank), alpha)
        if rep != path[-1]:
            path.append(rep)
    return path


class TestCollapsedTree:
    def test_single_generators(self):
        g = free_reduce([1], 2)
        assert free_cayley_gamma(g, 1).as_dict() == {((), 1): Fraction(1)}
        ginv = free_reduce([-1], 2)
        assert free_cayley_gamma(ginv, 1).as_dict() == {((-1,), 1): Fraction(-1)}

    def test_collapsed_letter_vanishes(self):
        g = free_reduce([2], 2)
        assert not free_cayley_gamma(g, 1).coeffs

    def test_matches_projected_flow(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            g = random_word(rng, 3, int(rng.integers(0, 8)))
            for alpha in (1, 2, 3):
                assert free_cayley_gamma(g, alpha) == distinguished_projection(
                    flow_cocycle(g), alpha
                )

    def test_full_alpha_recovers_flow(self):
        g = free_reduce([2, -1, 2, 2, 1], 2)
        assert free_cayley_gamma(g, 2) == flow_cocycle(g)

    def test_norm_counts_distinguished_letters(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            g = random_word(rng, 3, int(rng.integers(0, 8)))
            count = sum(1 for letter in g.letters if abs(letter) == 1)
            assert free_cayley_gamma(g, 1).norm2() == count

    def test_cocycle_law_exact(self):
        rng = np.random.default_rng(44)
        for _ in range(60):
            g1 = random_word(rng, 3, int(rng.integers(0, 7)))
            g2 = random_word(rng, 3, int(rng.integers(0, 7)))
            assert not collapsed_cocycle_defect(g1, g2, 1).coeffs
            assert not collapsed_cocycle_defect(g1, g2, 2).coeffs

    def test_uniform_prefix_conventions_fail(self):
        # keying every step by the prefix on one fixed side breaks the
        # cocycle identity already for a generator against its inverse
        def uniform(g, alpha, include):
            out = {}
            prefix = []
            for letter in g.letters:
                if abs(letter) <= alpha:
                    tail = tuple(prefix) + ((letter,) if include else ())
                    out[(tail, abs(letter))] = Fraction(1 if letter > 0 else -1)
                prefix.append(letter)
            return EdgeVector.from_dict(g.rank, out)

        a = free_reduce([1], 2)
        ainv = free_reduce([-1], 2)
        for include in (True, False):
            defect = (
                uniform(a * ainv, 1, include)
                - uniform(ainv, 1, include).translate(a)
                - uniform(a, 1, include)
            )
            assert defect.coeffs

    def test_representative_strips_suffix(self):
        u = free_reduce([1, 2, -3, 2], 3)
        assert coset_representative(u, 1) == free_reduce([1], 3)
        assert coset_representative(u, 2) == u
        assert coset_representative(free_reduce([2, 2], 3), 1) == free_reduce([], 3)

    def test_representative_constant_on_components(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            u = random_word(rng, 3, int(rng.integers(0, 6)))
            h = random_word(rng, 3, int(rng.integers(0, 4)))
            # words in the collapsed letters only
            h = free_reduce([s if abs(s) > 1 else 2 * (1 if s > 0 else -1) for s in h.letters], 3)
            assert coset_representative(u * h, 1) == coset_representative(u, 1)

    def test_path_is_injective_with_counted_steps(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            g = random_word(rng, 3, int(rng.integers(0, 8)))
            path = coset_path(g, 1)
            assert len(set(p.letters for p in path)) == len(path)
            assert len(path) - 1 == free_cayley_gamma(g, 1).norm2()
            assert path[-1] == coset_representative(g, 1)

    def test_alpha_bounds(self):
        g = free_reduce([1], 2)
        with pytest.raises(ConstraintViolation):
            free_cayley_gamma(g, 0)
        with pytest.raises(ConstraintViolation):
            free_cayley_gamma(g, 3)


class TestPowerDeviation:
    def test_constant_in_n(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            g = random_word(rng, 2, int(rng.integers(1, 7)))
            _, c = g.cyclic_reduce()
            for n in (1, 2, 3, 6):
                assert power_norm_deviation(g, n) == 2 * len(c)

    def test_scaled_metric(self):
        g = free_reduce([2, 1, -2], 2)
        s = Fraction(3, 2)
        assert power_norm_deviation(g, 4, scale=s) == 2 * s * s

    def test_norm_matches_flow(self):
        g = free_reduce([2, 1, 1, -2], 2)
        for n in (1, 2, 3):
            assert flow_cocycle(g**n).norm2() == n * translation_length(g) + power_norm_deviation(g, n)

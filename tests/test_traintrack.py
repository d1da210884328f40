"""Train track validation, exact quotient metric, grid cross-check."""

import heapq
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from isoact import suites, traintrack
from isoact.errors import ConstraintViolation
from isoact.report import SuiteConfig
from isoact.traintrack import (
    CORPUS,
    TrackMetric,
    TrainTrack,
    grid_gluings,
    grid_metric,
    make_track,
    rose_track,
    single_edge_track,
    theta_track,
    track_from_json,
    track_to_json,
)


def random_points(track, rng, count):
    out = []
    n_edges = len(track.edge_ends)
    for _ in range(count):
        e = int(rng.integers(0, n_edges))
        W = track.width(e)
        num = int(rng.integers(0, 8 * W.numerator + 1))
        out.append((e, Fraction(num, 8 * W.denominator) * 1))
    return out


def _grid_metric_dense(track, points, step):
    """The former grid oracle: Dijkstra from every snapped point, all pairs.

    Builds the whole grid graph, with unit-cost chart steps and zero-cost
    edges to each node's ``glue_images`` found in Fractions, and returns the
    full matrix of grid distances.  Kept as the oracle of ``grid_metric``.
    """
    step = Fraction(step)
    units = []
    offsets = [0]
    for e in range(len(track.edge_ends)):
        w = track.width(e) / step
        assert w.denominator == 1
        units.append(int(w))
        offsets.append(offsets[-1] + int(w) + 1)
    total = offsets[-1]

    def node(e, k):
        return offsets[e] + k

    adj = [[] for _ in range(total)]
    for e in range(len(track.edge_ends)):
        for k in range(units[e]):
            adj[node(e, k)].append((node(e, k + 1), 1))
            adj[node(e, k + 1)].append((node(e, k), 1))
    for e in range(len(track.edge_ends)):
        for k in range(units[e] + 1):
            for e2, x2 in track.glue_images((e, k * step)):
                k2 = x2 / step
                assert k2.denominator == 1
                adj[node(e, k)].append((node(e2, int(k2)), 0))

    snapped = []
    for p in points:
        e, x = track.check_point(p)
        k = int(round(float(x / step)))
        snapped.append(node(e, min(max(k, 0), units[e])))

    out = []
    for src in snapped:
        dist = [None] * total
        heap = [(0, src)]
        while heap:
            d, i = heapq.heappop(heap)
            if dist[i] is not None:
                continue
            dist[i] = d
            for j, cost in adj[i]:
                if dist[j] is None:
                    heapq.heappush(heap, (d + cost, j))
        out.append([Fraction(dist[t]) * step for t in snapped])
    return out


def zero_slot_theta():
    """A theta with one zero corner at each vertex, which is still consistent."""
    return make_track(
        ("v", "w"),
        [("v", "w"), ("v", "w"), ("v", "w")],
        {"v": [(0, 0), (1, 0), (2, 0)], "w": [(0, 1), (2, 1), (1, 1)]},
        {
            (0, 0): Fraction(0),
            (1, 0): Fraction(2),
            (2, 0): Fraction(3),
            (0, 1): Fraction(3),
            (2, 1): Fraction(2),
            (1, 1): Fraction(0),
        },
    )


# the corpus, plus a track with zero corner widths, whose corner segments are single points
GRID_TRACKS = {**CORPUS, "zero-slots": zero_slot_theta}


def corner_points(track):
    """Every corner breakpoint of the track and each of its direct gluing images."""
    out = []
    for d, width in track.a_plus:
        p = (d[0], track.unview(d, width))
        out.append(p)
        out.extend(track.glue_images(p))
    return sorted(set(out))


def all_pairs(points):
    return [(p, q) for p in points for q in points]


def ribbon_genus(track):
    """Genus of the closed surface that the cyclic orders span, by counting faces.

    A face is an orbit of the map that flips a dart to the other end of its
    edge and then steps to the next dart around that end's vertex; for a
    connected track, V - E + F = 2 - 2g.
    """
    unseen = {(e, end) for e in range(len(track.edge_ends)) for end in (0, 1)}
    faces = 0
    while unseen:
        faces += 1
        d = min(unseen)
        while d in unseen:
            unseen.remove(d)
            d = track.next_dart((d[0], 1 - d[1]))
    return (2 - len(track.vertices) + len(track.edge_ends) - faces) // 2


# the corpus tracks whose quotient is a real tree
PLANAR = sorted(name for name, build in CORPUS.items() if ribbon_genus(build()) == 0)


def four_point_defects(track, step):
    """For every 4-subset of the grid points of mesh ``step``: the largest of
    the three pairing sums minus the middle one, which is 0 in a real tree."""
    pts = [(e, k * step) for e in range(len(track.edge_ends)) for k in range(int(track.width(e) / step) + 1)]
    d = TrackMetric(track, pts).pairwise()
    out = []
    for i, j, k, l in itertools.combinations(range(len(pts)), 4):
        sums = sorted((d[i][j] + d[k][l], d[i][k] + d[j][l], d[i][l] + d[j][k]))
        out.append(sums[2] - sums[1])
    return out


class TestValidation:
    def test_corpus_builds(self):
        for build in CORPUS.values():
            track = build()
            for e in range(len(track.edge_ends)):
                assert track.width(e) > 0

    def test_theta_widths(self):
        track = theta_track()
        assert [track.width(e) for e in range(3)] == [4, 3, 5]

    def test_rose_widths(self):
        track = rose_track()
        assert [track.width(e) for e in range(2)] == [3, 3]

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConstraintViolation):
            make_track(
                ("v", "w"),
                [("v", "w")],
                {"v": [(0, 0)], "w": [(0, 1)]},
                {(0, 0): Fraction(1), (0, 1): Fraction(2)},
            )

    def test_missing_slot_rejected(self):
        with pytest.raises(ConstraintViolation):
            make_track(("v", "w"), [("v", "w")], {"v": [(0, 0)], "w": [(0, 1)]}, {(0, 0): 1})

    def test_negative_width_rejected(self):
        with pytest.raises(ConstraintViolation):
            make_track(
                ("v", "w"),
                [("v", "w")],
                {"v": [(0, 0)], "w": [(0, 1)]},
                {(0, 0): Fraction(-1), (0, 1): Fraction(-1)},
            )

    def test_float_width_rejected(self):
        with pytest.raises(ConstraintViolation):
            make_track(
                ("v", "w"), [("v", "w")], {"v": [(0, 0)], "w": [(0, 1)]}, {(0, 0): 0.5, (0, 1): 0.5}
            )

    def test_dart_partition_enforced(self):
        with pytest.raises(ConstraintViolation):
            make_track(
                ("v", "w"),
                [("v", "w")],
                {"v": [(0, 0), (0, 1)], "w": []},
                {(0, 0): Fraction(1), (0, 1): Fraction(1)},
            )

    def test_zero_total_width_rejected(self):
        with pytest.raises(ConstraintViolation):
            single_edge_track(Fraction(0))

    def test_zero_slots_allowed(self):
        track = zero_slot_theta()
        assert [track.width(e) for e in range(3)] == [3, 2, 5]
        metric = TrackMetric(track, [(0, Fraction(0)), (1, Fraction(1))])
        assert metric.distance((0, Fraction(0)), (1, Fraction(1))) >= 0


class TestSegmentQuotient:
    def test_fold_identification(self):
        s = Fraction(2)
        track = single_edge_track(s)
        pts = [(0, Fraction(1, 2)), (0, Fraction(7, 2)), (0, Fraction(0)), (0, s)]
        metric = TrackMetric(track, pts)
        # x and 2s - x are the same quotient point
        assert metric.distance(pts[0], pts[1]) == 0
        assert metric.distance(pts[2], pts[3]) == s

    def test_interval_distances(self):
        s = Fraction(2)
        track = single_edge_track(s)
        xs = [Fraction(k, 4) for k in range(0, 9)]  # 0 .. 2 in steps of 1/4
        pts = [(0, x) for x in xs]
        metric = TrackMetric(track, pts)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                assert metric.distance(pts[i], pts[j]) == abs(x - y)


class TestQuotientMetric:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_metric_axioms_exact(self, name):
        track = CORPUS[name]()
        rng = np.random.default_rng(50)
        pts = random_points(track, rng, 6)
        metric = TrackMetric(track, pts)
        d = metric.pairwise()
        m = len(pts)
        for i in range(m):
            assert d[i][i] == 0
            for j in range(m):
                assert d[i][j] == d[j][i]
                for k in range(m):
                    assert d[i][j] <= d[i][k] + d[k][j]

    def test_corpus_genus(self):
        assert {name: ribbon_genus(build()) for name, build in CORPUS.items()} == {
            "rose": 1,
            "segment": 0,
            "theta": 0,
        }
        assert PLANAR == ["segment", "theta"]

    @pytest.mark.parametrize("name", PLANAR)
    def test_four_point_condition_exact(self, name):
        # on a planar track the quotient is a real tree: among the three
        # pairings of any four points, the two largest sums are equal
        defects = four_point_defects(CORPUS[name](), Fraction(1, 2))
        assert len(defects) == {"segment": 126, "theta": 17550}[name]
        assert not any(defects)

    def test_four_point_condition_fails_on_rose(self):
        # genus 1: the quotient carries a loop, which the quarter grid sees
        defects = four_point_defects(rose_track(), Fraction(1, 4))
        assert len(defects) == 14950
        assert sum(1 for x in defects if x) == 160
        assert max(defects) == Fraction(1, 2)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_glued_points_at_distance_zero(self, name):
        track = CORPUS[name]()
        rng = np.random.default_rng(52)
        pts = random_points(track, rng, 5)
        images = [track.glue_images(p)[0] for p in pts]
        metric = TrackMetric(track, pts + images)
        for p, q in zip(pts, images):
            assert metric.distance(p, q) == 0

    def test_rose_vertex_corners_identified(self):
        track = rose_track()
        corners = [(0, Fraction(1)), (0, Fraction(2)), (1, Fraction(1)), (1, Fraction(2))]
        metric = TrackMetric(track, corners)
        for p in corners:
            for q in corners:
                assert metric.distance(p, q) == 0

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_grid_oracle_agreement(self, name):
        track = CORPUS[name]()
        rng = np.random.default_rng(53)
        pts = random_points(track, rng, 5)
        metric = TrackMetric(track, pts)
        step = Fraction(1, 200)
        pairs = all_pairs(pts)
        grid = grid_metric(track, pairs, step=step)
        for (p, q), approx in zip(pairs, grid):
            assert abs(metric.distance(p, q) - approx) <= 5 * step

    def test_overflow_guard(self, monkeypatch):
        monkeypatch.setattr(traintrack, "CLOSURE_CAP", 3)
        with pytest.raises(ConstraintViolation, match="exceeded 3 points"):
            TrackMetric(theta_track(), [(0, Fraction(1, 7))])

    def test_query_points_validated(self):
        track = theta_track()
        with pytest.raises(ConstraintViolation, match=r"coordinate 9 outside \[0, 4\] on edge 0"):
            TrackMetric(track, [(0, Fraction(9))])
        metric = TrackMetric(track, [(0, Fraction(1))])
        with pytest.raises(ConstraintViolation, match="query points must be supplied"):
            metric.distance((0, Fraction(1)), (0, Fraction(1, 3)))


class TestGridMetric:
    @pytest.mark.parametrize("step", [Fraction(1, 200), Fraction(1, 50), Fraction(1)])
    @pytest.mark.parametrize("name", sorted(GRID_TRACKS))
    def test_pairs_match_dense_oracle(self, name, step):
        track = GRID_TRACKS[name]()
        rng = np.random.default_rng(54)
        pts = sorted(set(random_points(track, rng, 6) + corner_points(track)))
        dense = _grid_metric_dense(track, pts, step)
        grid = grid_metric(track, all_pairs(pts), step=step)
        assert grid == [d for row in dense for d in row]

    @pytest.mark.parametrize("step", [Fraction(1, 50), Fraction(1)])
    @pytest.mark.parametrize("name", sorted(GRID_TRACKS))
    def test_integer_gluings_match_glue_images(self, name, step):
        track = GRID_TRACKS[name]()
        widths, gluings = grid_gluings(track, step)

        def index(d, u):
            return u if d[1] == 0 else widths[d[0]] - u

        images = {(e, k): [] for e, w in enumerate(widths) for k in range(w + 1)}
        for d, lo, hi, d2, c in gluings:
            for u in range(lo, hi + 1):
                source, image = (d[0], index(d, u)), (d2[0], index(d2, c - u))
                if image != source:
                    images[source].append(image)
        for (e, k), found in images.items():
            expected = [(e2, x2 / step) for e2, x2 in track.glue_images((e, k * step))]
            assert sorted(found) == sorted(expected), (e, k)

    def test_runs_without_the_exact_metric(self, monkeypatch):
        track = theta_track()
        pts = corner_points(track) + [(1, Fraction(3, 2)), (2, Fraction(9, 4))]
        step = Fraction(1, 4)
        expected = [d for row in _grid_metric_dense(track, pts, step) for d in row]

        def refuse(*args, **kwargs):
            raise AssertionError("grid_metric must not use the exact metric or glue_images")

        monkeypatch.setattr(traintrack, "TrackMetric", refuse)
        monkeypatch.setattr(TrainTrack, "glue_images", refuse)
        assert grid_metric(track, all_pairs(pts), step=step) == expected

    def test_cap_step_suite_passes(self):
        cfg = SuiteConfig.make("traintrack", trials=1, params={"step": "1/10000"})
        report = suites.run_suite(cfg)
        assert report.summary() == {"pass": 6, "fail": 0, "unresolved": 0}

    def test_over_cap_refused_before_allocation(self):
        track = theta_track()  # widths 4 + 3 + 5 at step 1/20000: 240,003 nodes
        pair = ((0, Fraction(0)), (1, Fraction(1)))
        tracemalloc.start()
        try:
            with pytest.raises(ConstraintViolation, match="240003 nodes"):
                grid_metric(track, [pair], step=Fraction(1, 20000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_width_off_grid_refused(self):
        with pytest.raises(ConstraintViolation, match="width of edge 0"):
            grid_metric(theta_track(), [], step=Fraction(3, 2))

    def test_corner_off_grid_refused(self):
        # corners 1/2 and 5/2 at each vertex: every edge width is a whole number
        track = make_track(
            ("v", "w"),
            [("v", "w"), ("v", "w"), ("v", "w")],
            {"v": [(0, 0), (1, 0), (2, 0)], "w": [(0, 1), (2, 1), (1, 1)]},
            {
                (0, 0): Fraction(1, 2),
                (1, 0): Fraction(5, 2),
                (2, 0): Fraction(5, 2),
                (0, 1): Fraction(5, 2),
                (2, 1): Fraction(5, 2),
                (1, 1): Fraction(1, 2),
            },
        )
        assert [track.width(e) for e in range(3)] == [3, 3, 5]
        with pytest.raises(ConstraintViolation, match="gluing image left the grid"):
            grid_metric(track, [((0, Fraction(0)), (1, Fraction(1)))], step=Fraction(1))


    def test_disconnected_pair_is_refused(self):
        track = make_track(
            ("v", "w", "x", "y"),
            [("v", "w"), ("x", "y")],
            {"v": [(0, 0)], "w": [(0, 1)], "x": [(1, 0)], "y": [(1, 1)]},
            {(0, 0): Fraction(1), (0, 1): Fraction(1), (1, 0): Fraction(1), (1, 1): Fraction(1)},
        )
        near = ((0, Fraction(0)), (0, Fraction(1)))
        far = ((0, Fraction(0)), (1, Fraction(1)))
        assert grid_metric(track, [near], step=Fraction(1, 4)) == [Fraction(1)]
        with pytest.raises(ConstraintViolation, match="different components"):
            grid_metric(track, [near, far], step=Fraction(1, 4))
        metric = TrackMetric(track, [near[0], near[1], far[1]])
        assert metric.distance(*near) == 1
        with pytest.raises(ConstraintViolation, match="different components"):
            metric.distance(*far)


class TestJson:
    def test_round_trip(self):
        track = theta_track()
        back = track_from_json(track_to_json(track))
        assert back.edge_ends == track.edge_ends
        assert back.a_plus == track.a_plus
        assert dict(back.cyclic) == dict(track.cyclic)

    def test_malformed(self):
        with pytest.raises(ConstraintViolation):
            track_from_json({"vertices": ["v"]})


def test_validator_crash_is_not_counted_as_a_rejection(monkeypatch):
    def crash(data):
        raise RuntimeError("validator bug")

    monkeypatch.setattr(suites, "track_from_json", crash)
    with pytest.raises(RuntimeError, match="validator bug"):
        suites.run_suite(SuiteConfig.make("traintrack", trials=1))

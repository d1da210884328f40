"""Train track validation, exact quotient metric, grid cross-check."""

from fractions import Fraction

import numpy as np
import pytest

from isoact import suites
from isoact.errors import ConstraintViolation, InvalidCoordinate, PartitionOverflow
from isoact.report import SuiteConfig
from isoact.traintrack import (
    CORPUS,
    TrackMetric,
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
        # a theta with one zero corner at each vertex is still consistent
        track = make_track(
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

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_four_point_condition_exact(self, name):
        # the quotient is a real tree: among the three pairings of any four
        # points, the two largest sums are equal
        track = CORPUS[name]()
        rng = np.random.default_rng(51)
        pts = random_points(track, rng, 8)
        metric = TrackMetric(track, pts)
        for _ in range(40):
            i, j, k, l = (int(x) for x in rng.integers(0, len(pts), size=4))
            a = metric.distance(pts[i], pts[j]) + metric.distance(pts[k], pts[l])
            b = metric.distance(pts[i], pts[k]) + metric.distance(pts[j], pts[l])
            c = metric.distance(pts[i], pts[l]) + metric.distance(pts[j], pts[k])
            hi = max(a, b, c)
            assert sorted((a, b, c))[1] == hi or [a, b, c].count(hi) >= 2

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
        grid = grid_metric(track, pts, step=step)
        for i in range(len(pts)):
            for j in range(len(pts)):
                exact = metric.distance(pts[i], pts[j])
                assert abs(exact - grid[i][j]) <= 5 * step

    def test_overflow_guard(self):
        with pytest.raises(PartitionOverflow):
            TrackMetric(theta_track(), [(0, Fraction(1, 7))], cap=3)

    def test_query_points_validated(self):
        track = theta_track()
        with pytest.raises(InvalidCoordinate):
            TrackMetric(track, [(0, Fraction(9))])
        metric = TrackMetric(track, [(0, Fraction(1))])
        with pytest.raises(InvalidCoordinate):
            metric.distance((0, Fraction(1)), (0, Fraction(1, 3)))


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

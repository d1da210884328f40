"""Widened train tracks and the exact metric on their leaf-space quotients.

A track is a finite graph with a cyclic order of edge-ends (darts) at each
vertex and a nonnegative corner width for every slot between consecutive
darts.  Each edge ``e`` carries a chart interval ``[0, W(e)]`` whose width
is the sum of the two corner widths at either end; the defining condition
is that both ends of an edge report the same width.

At a vertex, consecutive charts are glued along their corner segments by
orientation-reversing isometries.  The quotient of the disjoint charts by
these partial isometries is a finite metric graph, the leaf space of a
measured foliation on the ribbon graph's surface: a real tree when that
surface is planar, and possibly with a loop when not (the genus-1 rose).

Distances are exact: rational widths keep the orbit of any rational point
under the gluing groupoid finite, so the breakpoint closure is finite.  Its
points are merged with their gluing images, consecutive classes on a chart
are joined by their gap, and Dijkstra over the classes stops at the target.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import ConstraintViolation
from .exact import parse_fraction

Dart = Tuple[int, int]  # (edge index, end in {0, 1})
Point = Tuple[int, Fraction]  # (edge index, chart coordinate)


@dataclass(frozen=True)
class TrainTrack:
    """Validated track data; build through :func:`make_track`."""

    vertices: Tuple[object, ...]
    edge_ends: Tuple[Tuple[object, object], ...]
    cyclic: Tuple[Tuple[object, Tuple[Dart, ...]], ...]
    a_plus: Tuple[Tuple[Dart, Fraction], ...]

    @property
    def order(self) -> Dict[object, Tuple[Dart, ...]]:
        return dict(self.cyclic)

    @property
    def corner(self) -> Dict[Dart, Fraction]:
        return dict(self.a_plus)

    def dart_vertex(self, d: Dart) -> object:
        e, end = d
        return self.edge_ends[e][end]

    def next_dart(self, d: Dart) -> Dart:
        ring = self.order[self.dart_vertex(d)]
        return ring[(ring.index(d) + 1) % len(ring)]

    def prev_dart(self, d: Dart) -> Dart:
        ring = self.order[self.dart_vertex(d)]
        return ring[(ring.index(d) - 1) % len(ring)]

    def a_minus(self, d: Dart) -> Fraction:
        return self.corner[self.prev_dart(d)]

    def width(self, e: int) -> Fraction:
        d = (e, 0)
        return self.corner[d] + self.a_minus(d)

    def view(self, d: Dart, x: Fraction) -> Fraction:
        """Chart coordinate seen from the end carrying dart ``d``."""
        return x if d[1] == 0 else self.width(d[0]) - x

    def unview(self, d: Dart, u: Fraction) -> Fraction:
        return u if d[1] == 0 else self.width(d[0]) - u

    def check_point(self, p: Point) -> Point:
        e, x = p
        if not 0 <= e < len(self.edge_ends):
            raise ConstraintViolation(f"edge index {e} out of range")
        x = Fraction(x)
        if not 0 <= x <= self.width(e):
            raise ConstraintViolation(f"coordinate {x} outside [0, {self.width(e)}] on edge {e}")
        return (e, x)

    def glue_images(self, p: Point) -> List[Point]:
        """All direct gluing images of a located point.

        Per end of the carrying edge: the corner segment ``[0, a+]`` in end
        view reflects into the far segment of the next chart around the
        vertex, and the far segment ``[a+, W]`` reflects back into the
        corner segment of the previous chart.
        """
        e, x = p
        out: List[Point] = []
        for end in (0, 1):
            d = (e, end)
            u = self.view(d, x)
            ap = self.corner[d]
            if u <= ap:
                d2 = self.next_dart(d)
                out.append((d2[0], self.unview(d2, self.corner[d2] + ap - u)))
            if u >= ap:
                d0 = self.prev_dart(d)
                out.append((d0[0], self.unview(d0, self.corner[d0] + ap - u)))
        return [q for q in out if q != p]


def make_track(vertices, edge_ends, cyclic, a_plus) -> TrainTrack:
    """Validate and freeze a train track.

    Checks that the cyclic orders partition the darts, that corner widths
    are nonnegative rationals covering every slot, and that the two ends of
    each edge agree on the chart width.
    """
    vertices = tuple(vertices)
    edge_ends = tuple((v, w) for v, w in edge_ends)
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise ConstraintViolation("duplicate vertex labels")
    for v, w in edge_ends:
        if v not in vset or w not in vset:
            raise ConstraintViolation(f"edge end {v!r} or {w!r} is not a vertex")
    darts = [(e, end) for e in range(len(edge_ends)) for end in (0, 1)]
    ring_of: Dict[object, Tuple[Dart, ...]] = {v: tuple(map(tuple, cyclic.get(v, ()))) for v in vertices}
    listed = [d for ring in ring_of.values() for d in ring]
    if sorted(listed) != sorted(darts):
        raise ConstraintViolation("cyclic orders must list every edge-end exactly once")
    for v, ring in ring_of.items():
        for d in ring:
            e, end = d
            if edge_ends[e][end] != v:
                raise ConstraintViolation(f"dart {d} does not sit at vertex {v!r}")
    corner: Dict[Dart, Fraction] = {}
    for d in darts:
        if tuple(d) not in {tuple(k) for k in a_plus}:
            raise ConstraintViolation(f"missing corner width for slot {d}")
    for d, val in a_plus.items():
        if isinstance(val, float):
            raise ConstraintViolation("corner widths must be exact rationals")
        val = Fraction(val)
        if val < 0:
            raise ConstraintViolation(f"negative corner width at slot {d}")
        corner[tuple(d)] = val
    track = TrainTrack(
        vertices,
        edge_ends,
        tuple(sorted(ring_of.items(), key=lambda kv: vertices.index(kv[0]))),
        tuple(sorted(corner.items())),
    )
    for e in range(len(edge_ends)):
        w0 = track.corner[(e, 0)] + track.a_minus((e, 0))
        w1 = track.corner[(e, 1)] + track.a_minus((e, 1))
        if w0 != w1:
            raise ConstraintViolation(f"edge {e} widths disagree between its ends: {w0} vs {w1}")
        if w0 == 0:
            raise ConstraintViolation(f"edge {e} has zero total width")
    return track


# ---------------------------------------------------------------------------
# Exact quotient metric
# ---------------------------------------------------------------------------


CLOSURE_CAP = 20000


class TrackMetric:
    """Exact distances between located points on a track quotient.

    Closure points are merged with their gluing images by union-find, and
    consecutive closure points on a chart join their classes by their gap.
    A closure beyond ``CLOSURE_CAP`` points raises :class:`ConstraintViolation`;
    points in different components raise :class:`ConstraintViolation`.
    """

    def __init__(self, track: TrainTrack, points: Sequence[Point] = ()):
        self.track = track
        self.points = [track.check_point(p) for p in points]
        base: List[Point] = []
        for e in range(len(track.edge_ends)):
            W = track.width(e)
            vals = {Fraction(0), W}
            for end in (0, 1):
                d = (e, end)
                vals.add(track.unview(d, track.corner[d]))
            base.extend((e, x) for x in vals)
        parent = {p: p for p in base + self.points}

        def find(p: Point) -> Point:
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        frontier = list(parent)
        while frontier:
            if len(parent) > CLOSURE_CAP:
                raise ConstraintViolation(f"breakpoint closure exceeded {CLOSURE_CAP} points")
            nxt: List[Point] = []
            for p in frontier:
                for q in track.glue_images(p):
                    if q not in parent:
                        parent[q] = q
                        nxt.append(q)
                    a, b = find(p), find(q)
                    if a != b:
                        parent[a] = b
            frontier = nxt
        self.cls = {p: find(p) for p in parent}
        self.adj: Dict[Point, List[Tuple[Point, Fraction]]] = {c: [] for c in self.cls.values()}
        nodes = sorted(parent)
        for a, b in zip(nodes, nodes[1:]):
            ca, cb = self.cls[a], self.cls[b]
            if a[0] == b[0] and ca != cb:
                self.adj[ca].append((cb, b[1] - a[1]))
                self.adj[cb].append((ca, b[1] - a[1]))

    def distance(self, p: Point, q: Point) -> Fraction:
        p = self.track.check_point(p)
        q = self.track.check_point(q)
        if p not in self.cls or q not in self.cls:
            raise ConstraintViolation("query points must be supplied at construction")
        target = self.cls[q]
        done = set()
        heap: List[Tuple[Fraction, Point]] = [(Fraction(0), self.cls[p])]
        while heap:
            d, a = heapq.heappop(heap)
            if a == target:
                return d
            if a in done:
                continue
            done.add(a)
            for b, cost in self.adj[a]:
                if b not in done:
                    heapq.heappush(heap, (d + cost, b))
        raise ConstraintViolation(f"points {p[0]}:{p[1]} and {q[0]}:{q[1]} lie in different components")

    def pairwise(self) -> List[List[Fraction]]:
        return [[self.distance(p, q) for q in self.points] for p in self.points]


GRID_CAP = 200000

# (dart, lo, hi, dart2, c): view coordinate u in lo..hi at ``dart`` is glued
# to view coordinate c - u at ``dart2``, all in grid units.
Gluing = Tuple[Dart, int, int, Dart, int]


def grid_gluings(track: TrainTrack, step: Fraction) -> Tuple[List[int], List[Gluing]]:
    """Edge widths in grid units and every gluing as an integer map.

    At each dart ``d`` with corner width A, the corner segment ``0..A``
    maps by u ↦ C(next) + A − u into the next dart's view and the far
    segment ``A..W`` by u ↦ C(prev) + A − u into the previous dart's view.
    Raises before anything of the grid's size is allocated: when an edge
    width or a corner width is not a multiple of ``step``, or when the
    grid would exceed ``GRID_CAP`` nodes.
    """
    step = Fraction(step)
    widths: List[int] = []
    for e in range(len(track.edge_ends)):
        w = track.width(e) / step
        if w.denominator != 1:
            raise ConstraintViolation(f"width of edge {e} is not a multiple of the grid step")
        widths.append(int(w))
    total = sum(widths) + len(widths)
    if total > GRID_CAP:
        raise ConstraintViolation(f"grid has {total} nodes; coarsen the step")
    corner: Dict[Dart, int] = {}
    for d, val in track.a_plus:
        a = val / step
        if a.denominator != 1:
            raise ConstraintViolation(
                f"gluing image left the grid: corner width at slot {d} is not a multiple of the step"
            )
        corner[d] = int(a)
    gluings: List[Gluing] = []
    for d, a in corner.items():
        d2, d0 = track.next_dart(d), track.prev_dart(d)
        gluings.append((d, 0, a, d2, corner[d2] + a))
        gluings.append((d, a, widths[d[0]], d0, corner[d0] + a))
    return widths, gluings


def grid_metric(
    track: TrainTrack, pairs: Sequence[Tuple[Point, Point]], step: Fraction = Fraction(1, 1000)
) -> List[Fraction]:
    """Brute-force check distances on a uniform grid of mesh ``step``.

    Grid nodes are the multiples of ``step`` on every chart, neighbours on a
    chart are one step apart, and the gluings of :func:`grid_gluings` join
    nodes at zero cost.  Those zero-cost classes are merged by union-find;
    each pair's points are snapped to the nearest node and its distance is a
    unit-cost breadth-first search over the classes that stops at the
    target.  Returns one Fraction per pair, with resolution error at most a
    few steps, for cross-checking the exact metric; it shares no code with
    :class:`TrackMetric`.
    """
    step = Fraction(step)
    widths, gluings = grid_gluings(track, step)
    offsets = [0]
    for w in widths:
        offsets.append(offsets[-1] + w + 1)
    total = offsets[-1]

    def origin(d: Dart) -> Tuple[int, int]:
        """Index of view coordinate 0 at ``d`` and the index change per unit of view."""
        e, end = d
        return (offsets[e], 1) if end == 0 else (offsets[e] + widths[e], -1)

    parent = list(range(total))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for d, lo, hi, d2, c in gluings:
        base, sign = origin(d)
        base2, sign2 = origin(d2)
        for u in range(lo, hi + 1):
            a, b = find(base + sign * u), find(base2 + sign2 * (c - u))
            if a != b:
                parent[a] = b

    root = [find(i) for i in range(total)]
    adj: Dict[int, List[int]] = {}
    for e, w in enumerate(widths):
        for i in range(offsets[e], offsets[e] + w):
            a, b = root[i], root[i + 1]
            if a != b:
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)

    def snap(p: Point) -> int:
        e, x = track.check_point(p)
        k = int(round(float(x / step)))
        return root[offsets[e] + min(max(k, 0), widths[e])]

    out: List[Fraction] = []
    for p, q in pairs:
        source, target = snap(p), snap(q)
        level = 0
        seen = {source}
        frontier = [source]
        while target not in seen:
            if not frontier:
                raise ConstraintViolation(f"points {p} and {q} lie in different components")
            level += 1
            nxt = []
            for a in frontier:
                for b in adj.get(a, ()):
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        out.append(level * step)
    return out


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def single_edge_track(s: Fraction = Fraction(1)) -> TrainTrack:
    """One edge, one dart at each end, all corner widths ``s``.

    Both ends fold the chart ``[0, 2s]`` at its midpoint; the quotient is a
    segment of length ``s``.
    """
    s = Fraction(s)
    return make_track(
        ("v", "w"),
        [("v", "w")],
        {"v": [(0, 0)], "w": [(0, 1)]},
        {(0, 0): s, (0, 1): s},
    )


def theta_track() -> TrainTrack:
    """Three parallel edges with interleaved cyclic orders and widths 4, 3, 5."""
    return make_track(
        ("v", "w"),
        [("v", "w"), ("v", "w"), ("v", "w")],
        {
            "v": [(0, 0), (1, 0), (2, 0)],
            "w": [(0, 1), (2, 1), (1, 1)],
        },
        {
            (0, 0): Fraction(1),
            (1, 0): Fraction(2),
            (2, 0): Fraction(3),
            (0, 1): Fraction(3),
            (2, 1): Fraction(2),
            (1, 1): Fraction(1),
        },
    )


def rose_track() -> TrainTrack:
    """Two loops at one vertex, order (A, B, A-bar, B-bar), widths 3 and 3."""
    return make_track(
        ("z",),
        [("z", "z"), ("z", "z")],
        {"z": [(0, 0), (1, 0), (0, 1), (1, 1)]},
        {(0, 0): Fraction(1), (1, 0): Fraction(2), (0, 1): Fraction(1), (1, 1): Fraction(2)},
    )


CORPUS = {
    "segment": lambda: single_edge_track(Fraction(2)),
    "theta": theta_track,
    "rose": rose_track,
}


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def track_to_json(track: TrainTrack) -> dict:
    return {
        "vertices": list(track.vertices),
        "edges": [{"ends": [v, w]} for v, w in track.edge_ends],
        "cyclic": {str(v): [list(d) for d in ring] for v, ring in track.cyclic},
        "widths": {f"{e}:{end}": str(val) for (e, end), val in track.a_plus},
    }


def track_from_json(data: dict) -> TrainTrack:
    """Read the wire format; widths go through :func:`parse_fraction`."""
    try:
        vertices = list(data["vertices"])
        edge_ends = [tuple(entry["ends"]) for entry in data["edges"]]
        for key in ("cyclic", "widths"):
            if not isinstance(data[key], dict):
                raise TypeError(f"{key!r} must be a JSON object, got {data[key]!r}")
        cyclic = {v: [tuple(d) for d in ring] for v, ring in data["cyclic"].items()}
        widths = {}
        for key, val in data["widths"].items():
            e, end = key.split(":")
            widths[(int(e), int(end))] = parse_fraction(val)
    except (KeyError, TypeError, ValueError, ConstraintViolation) as exc:
        raise ConstraintViolation(f"malformed train track JSON: {exc}") from exc
    return make_track(vertices, edge_ends, cyclic, widths)

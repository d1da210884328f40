"""Window tests: tree structure of the left Cayley ball, subtree
boundaries, difference functions, and the abstract-tree relabelling."""

import itertools
from collections import Counter

import pytest

from isoact.errors import ConstraintViolation
from isoact.groups import FreeWord
from isoact.immobile import (
    CayleyWindow,
    EnergyReport,
    boundary_edge_count,
    chain_identity_residual,
    gamma_difference,
    immobile_function_test,
    parity_indicator,
    subset_from_json,
    suffix_indicator,
)
from isoact.treeball import TreeBall, word_to_address

from builders import cayley_graph


def word(*letters, rank=2):
    return FreeWord(tuple(letters), rank)


def distance(u, v):
    """The window metric ``d(u, v) = |v u^{-1}|``."""
    return len((v * u.inverse()).letters)


def test_window_counts():
    w = CayleyWindow(2, 4)
    vs = w.vertices()
    # 1 + 4 + 4*3 + 4*9 + 4*27
    assert len(vs) == 161
    assert len(w.edges()) == 160
    w3 = CayleyWindow(3, 2)
    assert len(w3.vertices()) == 1 + 6 + 30


def test_window_size_cap():
    assert CayleyWindow(2, 11).radius == 11
    with pytest.raises(ConstraintViolation, match="radius 12 gives 1062881 vertices"):
        CayleyWindow(2, 12)
    with pytest.raises(ConstraintViolation, match="radius 1 gives 2000001 vertices"):
        CayleyWindow(10**6, 1)


def test_window_degrees():
    w = CayleyWindow(2, 3)
    degree = Counter()
    for t, h in w.edges():
        degree[t] += 1
        degree[h] += 1
    for m in w.vertices():
        if len(m.letters) < 3:
            assert degree[m] == 4
        else:
            assert degree[m] == 1


def test_vertices_breadth_first():
    w = CayleyWindow(2, 3)
    depths = [len(m.letters) for m in w.vertices()]
    assert depths == sorted(depths)
    assert depths[0] == 0


def test_parent_child_consistency():
    w = CayleyWindow(2, 3)
    for m in w.vertices():
        kids = w.children(m)
        if len(m.letters) < 3:
            assert len(kids) == (4 if not m.letters else 3)
        else:
            assert kids == []
        for kid in kids:
            assert FreeWord(kid.letters[1:], 2) == m
            assert distance(m, kid) == 1


def test_distance_right_invariant():
    u, v, g = word(1, 2), word(-2, 1, 1), word(2, -1)
    assert distance(u, v) == distance(u * g, v * g)
    assert distance(u, u) == 0
    assert distance(u, v) == distance(v, u)


def test_edges_have_distance_one():
    w = CayleyWindow(2, 3)
    for t, h in w.edges():
        assert distance(t, h) == 1
        assert abs(len(t.letters) - len(h.letters)) == 1


def suffix_set(window, *letters):
    """The window words ending with ``letters``: the subtree over that word."""
    return subset_from_json(window, {"kind": "suffix", "v": list(letters)})


def test_suffix_set_sizes_and_nesting():
    w = CayleyWindow(2, 4)
    x1 = suffix_set(w, 1)
    # depth k >= 1 contributes 3^(k-1) words ending in the fixed letter
    assert len(x1) == 1 + 3 + 9 + 27
    x21 = suffix_set(w, 2, 1)
    assert x21 <= x1
    assert len(x21) == 1 + 3 + 9


def test_subtree_boundary_is_one_edge():
    for radius in (2, 3, 4):
        w = CayleyWindow(2, radius)
        assert boundary_edge_count(w, suffix_set(w, 1)) == 1
    w = CayleyWindow(2, 4)
    assert boundary_edge_count(w, suffix_set(w, 2, 1)) == 1


def test_parity_boundary_is_everything():
    w = CayleyWindow(2, 3)
    even = frozenset(m for m in w.vertices() if len(m.letters) % 2 == 0)
    assert boundary_edge_count(w, even) == len(w.edges())


def test_gamma_of_single_generator():
    w = CayleyWindow(2, 4)
    r = suffix_indicator(word(1))
    assert gamma_difference(w, r, word(1)) == {word(): 1}
    assert gamma_difference(w, r, word(-1)) == {word(1): -1}


def test_gamma_support_within_word_length():
    w = CayleyWindow(2, 6)
    r = suffix_indicator(word(1))
    for g in [word(1, 2), word(-2, 1, 1), word(2, 1, -2, 1)]:
        diff = gamma_difference(w, r, g)
        assert diff
        assert all(v in (-1, 1) for v in diff.values())
        assert max(len(h.letters) for h in diff) <= len(g.letters)


def test_chain_identity_exact():
    w = CayleyWindow(2, 6)
    r = suffix_indicator(word(1))
    pairs = [
        (word(1, 2), word(-2, 1)),
        (word(2), word(-2)),
        (word(1, 1), word(-1, 2)),
    ]
    for g, q in pairs:
        assert chain_identity_residual(w, r, g, q) == 0
    # the identity is vacuous if the combined difference vanishes
    assert gamma_difference(w, r, word(1, 2) * word(-2, 1))


def test_chain_identity_catches_a_wrong_product(monkeypatch):
    w = CayleyWindow(2, 6)
    r = suffix_indicator(word(1))
    g, q = word(1, 2), word(-2, 1)
    right = FreeWord.__mul__

    def swapped_for_g_q(a, b):
        # q g in place of g q, for this one product only
        return right(b, a) if (a, b) == (g, q) else right(a, b)

    monkeypatch.setattr(FreeWord, "__mul__", swapped_for_g_q)
    assert chain_identity_residual(w, r, g, q) == 1


def test_energy_report_suffix_stabilizes():
    report = immobile_function_test(2, suffix_indicator(word(1)), [2, 3, 4, 5])
    assert report.sums == (1, 1, 1, 1)
    assert report.verdict == EnergyReport.STABLE


def test_energy_report_parity_diverges():
    report = immobile_function_test(2, parity_indicator(), [2, 3, 4, 5])
    assert report.sums == (16, 52, 160, 484)
    assert report.verdict == EnergyReport.GROWING


def test_energy_schedule_validation():
    with pytest.raises(ConstraintViolation):
        immobile_function_test(2, parity_indicator(), [4])
    with pytest.raises(ConstraintViolation):
        immobile_function_test(2, parity_indicator(), [4, 4, 6])


def test_window_graph_flags():
    w = CayleyWindow(2, 3)
    graph = cayley_graph(w)
    assert len(graph.vertices) == len(w.vertices())
    assert len(graph.edges) == len(w.edges())
    for i, v in enumerate(graph.vertices):
        assert graph.interior[i] == (len(v.letters) < 3)
        assert graph.degree(i) == (4 if graph.interior[i] else 1)


def window_tree_labels(window):
    """Relabel window words as addresses in the abstract rooted tree.

    Reversing a word turns prepended letters into appended ones, and the
    reduction constraints coincide, so the reversed word's path is an
    address in the ball of the ``2 rank``-regular tree: an independent
    model of the window's vertices and metric.
    """
    return {m: word_to_address(FreeWord(m.letters[::-1], window.rank)) for m in window.vertices()}


def test_tree_relabelling_is_isometric():
    w = CayleyWindow(2, 3)
    labels = window_tree_labels(w)
    ball = TreeBall(3, 3)
    assert len(labels) == ball.vertex_count()
    assert len(set(labels.values())) == len(labels)
    for u, v in itertools.combinations(w.vertices(), 2):
        assert distance(u, v) == ball.distance(labels[u], labels[v])


def test_tree_relabelling_rank_three():
    w = CayleyWindow(3, 2)
    labels = window_tree_labels(w)
    ball = TreeBall(5, 2)
    assert len(labels) == ball.vertex_count() == 37
    sample = w.vertices()
    for u, v in itertools.combinations(sample, 2):
        assert distance(u, v) == ball.distance(labels[u], labels[v])

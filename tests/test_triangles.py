import random

import numpy as np
import pytest

import trusskit.triangles as triangles_module
from trusskit import brute_force_supports, build_graph, edge_supports, vertex_ranking
from trusskit.graph import VertexRanking
from trusskit.triangles import triangle_list
from conftest import complete_graph, cycle_graph, er_graph, graph_from, random_graphs


def test_k4_supports():
    sup = edge_supports(complete_graph(4))
    assert sup.sup == (2,) * 6


def test_k5_supports():
    sup = edge_supports(complete_graph(5))
    assert sup.sup == (3,) * 10


def test_c5_no_triangles():
    sup = brute_force_supports(cycle_graph(5))
    assert sup.sup == (0,) * 5
    assert sup.total_triangles() == 0


def test_two_triangles_sharing_edge():
    # shared edge a-b sits in both triangles
    g = graph_from("a b\na c\nb c\na d\nb d")
    sup = brute_force_supports(g)
    by_pair = {g.edge_label_pair(e): sup.sup[e] for e in range(g.m)}
    assert by_pair[("a", "b")] == 2
    assert all(v == 1 for pair, v in by_pair.items() if pair != ("a", "b"))


def test_er_30_fast_equals_oracle():
    g = er_graph(30, 0.3, seed=12345)
    assert edge_supports(g).sup == brute_force_supports(g).sup


def test_support_bounds_and_total(dolphins):
    sup = edge_supports(dolphins)
    for eid, (lo, hi) in enumerate(dolphins.edges):
        assert sup.sup[eid] <= min(dolphins.degree(lo), dolphins.degree(hi)) - 1
    assert sum(sup.sup) == 3 * sup.total_triangles()
    assert sup.sup == brute_force_supports(dolphins).sup


def test_oracle_equivalence_sample():
    for _, g in random_graphs(60, 40, seed=202):
        assert edge_supports(g).sup == brute_force_supports(g).sup


def test_ranking_choice_does_not_change_counts():
    # bucket under a (degree, internal id) order instead of (degree, label)
    for _, g in random_graphs(25, 20, seed=303):
        order = sorted(range(g.n), key=lambda v: (g.degree(v), v))
        rank = [0] * g.n
        for r, v in enumerate(order):
            rank[v] = r
        alt = VertexRanking(rank=tuple(rank), order=tuple(order))
        assert edge_supports(g, alt).sup == edge_supports(g, vertex_ranking(g)).sup


def _triangle_rows(g, triangles):
    """Rows as sets of edge ids, checked to close a triangle each."""
    rows = []
    for row in triangles.tolist():
        ends = [v for e in row for v in g.edges[e]]
        assert len(set(row)) == 3 and len(set(ends)) == 3
        assert all(ends.count(v) == 2 for v in ends)
        rows.append(frozenset(row))
    return rows


def test_triangle_list_properties():
    for _, g in random_graphs(60, 30, seed=808):
        triangles = triangle_list(g)
        assert triangles.dtype == np.int32 and triangles.shape[1:] == (3,)
        rows = _triangle_rows(g, triangles)
        assert len(rows) == len(set(rows))
        counts = np.bincount(triangles.ravel(), minlength=g.m)
        assert tuple(counts.tolist()) == brute_force_supports(g).sup
        # any total order lists the same triangles, each once
        order = list(range(g.n))
        random.Random(g.m).shuffle(order)
        rank = [0] * g.n
        for r, v in enumerate(order):
            rank[v] = r
        alt = VertexRanking(rank=tuple(rank), order=tuple(order))
        assert sorted(_triangle_rows(g, triangle_list(g, alt)), key=sorted) == sorted(
            rows, key=sorted
        )


def test_triangle_list_empty_and_triangle_free():
    assert triangle_list(build_graph(3, [])).shape == (0, 3)
    assert triangle_list(cycle_graph(6)).shape == (0, 3)
    assert edge_supports(build_graph(2, [(0, 1)])).sup == (0,)


def test_plain_map_max_support(dolphins):
    sup = edge_supports(dolphins)
    assert sup.max_support == max(sup.sup) and isinstance(sup.max_support, int)
    assert sup.weights is None
    assert brute_force_supports(dolphins).max_support == sup.max_support
    assert edge_supports(build_graph(3, [])).max_support == 0


def test_triangle_cap_fails_fast(monkeypatch):
    k6 = complete_graph(6)
    # every wedge of K6 closes: 20 wedges, 20 triangles
    monkeypatch.setattr(triangles_module, "DEFAULT_TRIANGLE_CAP", 20)
    assert len(triangle_list(k6)) == 20
    monkeypatch.setattr(triangles_module, "DEFAULT_TRIANGLE_CAP", 19)
    with pytest.raises(ValueError, match=r"test 20 wedges, over the cap of 19"):
        edge_supports(k6)

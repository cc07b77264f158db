import io
import random
from collections import deque

import pytest

from trusskit import (
    DisjointSet,
    EdgeListParseError,
    build_graph,
    connected_components,
    induced_edge_subgraph,
    load_edge_list,
    vertex_ranking,
)
from trusskit.graph import component_edge_sets
from conftest import complete_graph, graph_from, random_graphs


def test_triangle_parse():
    g = graph_from("a b\nb c\nc a")
    assert g.n == 3
    assert g.m == 3


def test_degenerate_input_policy():
    # self loop dropped, duplicate collapsed
    g = graph_from("a a\na b\na b")
    assert g.n == 2
    assert g.m == 1


def test_duplicate_weight_keeps_maximum():
    g = graph_from("a b 2\na b 5\na b 3", weighted=True)
    assert g.m == 1
    assert g.weights[0] == 5


def test_weighted_line_may_omit_weight():
    g = graph_from("a b\nb c 3", weighted=True)
    assert sorted(g.weights) == [1, 3]


def test_comments_and_blanks_ignored():
    g = graph_from("# header\n\na b\n   \nb c\n")
    assert g.m == 2


def test_parse_error_carries_line_number():
    with pytest.raises(EdgeListParseError) as err:
        graph_from("a b\na b c\n")
    assert "line 2" in str(err.value)
    assert err.value.lineno == 2


def test_nonpositive_weight_rejected():
    with pytest.raises(EdgeListParseError):
        graph_from("a b -1", weighted=True)
    with pytest.raises(EdgeListParseError):
        graph_from("a b 0", weighted=True)


def test_dolphins_counts(dolphins):
    assert dolphins.n == 62
    assert dolphins.m == 159


def test_edges_canonical_and_indexed(dolphins):
    for eid, (lo, hi) in enumerate(dolphins.edges):
        assert lo < hi
        assert dolphins.edge_id(lo, hi) == eid
        assert dolphins.edge_id(hi, lo) == eid
    g = build_graph(3, [(0, 2)])
    for u, v in ((-1, 0), (0, -1), (3, 0), (0, 3), (5, 0), (-3, 2)):
        assert g.edge_id(u, v) is None
        assert not g.has_edge(u, v)


def test_degree_sum(dolphins):
    assert sum(dolphins.degree(v) for v in range(dolphins.n)) == 2 * dolphins.m


def test_neighbors_sorted(dolphins):
    for v in range(dolphins.n):
        nbrs = dolphins.neighbors(v)
        assert nbrs == sorted(nbrs)


def test_ranking_path():
    g = graph_from("a b\nb c")
    s = vertex_ranking(g)
    ranks = {g.labels[v]: s[v] for v in range(3)}
    assert ranks == {"a": 0, "c": 1, "b": 2}


def test_ranking_all_ties_by_label():
    g = graph_from("x y\ny z\nz x")
    s = vertex_ranking(g)
    assert [g.labels[v] for v in s.order] == ["x", "y", "z"]


def test_ranking_star():
    g = graph_from("h a\nh b\nh c\nh d\nh e")
    s = vertex_ranking(g)
    assert s[0] == 5  # center loaded first
    leaves = sorted((g.labels[v], s[v]) for v in range(1, 6))
    assert [r for _, r in leaves] == [0, 1, 2, 3, 4]


def test_ranking_independent_of_line_order():
    a = graph_from("a b\nb c\nc d")
    b = graph_from("c d\na b\nb c")
    ra = {a.labels[v]: vertex_ranking(a)[v] for v in range(a.n)}
    rb = {b.labels[v]: vertex_ranking(b)[v] for v in range(b.n)}
    assert ra == rb


def test_components_two_triangles():
    g = graph_from("a b\nb c\nc a\nx y\ny z\nz x")
    comps = connected_components(g)
    assert len(comps) == 2
    assert all(len(c) == 3 for c in comps)


def test_components_single(dolphins):
    comps = connected_components(dolphins)
    assert len(comps) == 1
    assert len(comps[0]) == 159


def test_components_partition_property():
    for _, g in random_graphs(30, 25, seed=101):
        comps = connected_components(g)
        seen = [e for c in comps for e in c]
        assert sorted(seen) == list(range(g.m))


def bfs_components(graph, edge_ids):
    """Edge-id components by breadth-first search over the given edges."""
    incident: dict[int, list[int]] = {}
    for e in set(edge_ids):
        for v in graph.edges[e]:
            incident.setdefault(v, []).append(e)
    seen: set[int] = set()
    comps = []
    for start in sorted(set(edge_ids)):
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [], deque([start])
        while queue:
            e = queue.popleft()
            comp.append(e)
            for v in graph.edges[e]:
                for f in incident[v]:
                    if f not in seen:
                        seen.add(f)
                        queue.append(f)
        comps.append(sorted(comp))
    return comps


def test_component_edge_sets_match_bfs():
    rng = random.Random(7)
    for _, g in random_graphs(60, 30, seed=202, densities=(0.03, 0.08, 0.2, 0.5)):
        assert connected_components(g) == bfs_components(g, range(g.m))
        for _ in range(5):
            subset = [rng.randrange(g.m) for _ in range(rng.randint(0, 2 * g.m))]
            assert component_edge_sets(g, subset) == bfs_components(g, subset)
        assert component_edge_sets(g, []) == []
    # isolated vertices among the components
    g = build_graph(9, [(7, 8), (1, 3), (3, 5), (0, 7)])
    assert connected_components(g) == [[0, 3], [1, 2]]
    # paths whose vertex and edge numbering make hooking and jumping slow:
    # ids alternate low and high along the path, or fall along it
    n = 2001
    zigzag = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    for walk in (zigzag, list(range(n - 1, -1, -1))):
        pairs = list(zip(walk, walk[1:]))
        rng.shuffle(pairs)
        g = build_graph(n, pairs)
        assert connected_components(g) == [list(range(n - 1))]
        subset = [e for e in range(g.m) if rng.random() < 0.9]
        assert component_edge_sets(g, subset + subset[:50]) == bfs_components(g, subset)


def test_induced_identity():
    g = complete_graph(4)
    sub = induced_edge_subgraph(g, range(g.m))
    assert sub.graph.m == g.m and sub.graph.n == g.n


def test_induced_empty():
    g = complete_graph(4)
    sub = induced_edge_subgraph(g, [])
    assert sub.graph.m == 0 and sub.graph.n == 0


def test_induced_k4_minus_edge():
    g = complete_graph(4)
    sub = induced_edge_subgraph(g, [e for e in range(g.m) if e != 0])
    assert sub.graph.m == 5
    assert sorted(len(a) for a in sub.graph.adj) == [2, 2, 3, 3]


def test_induced_unknown_edge():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        induced_edge_subgraph(g, [99])


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1), (1, 0)])  # duplicate under canonicalization
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1)], weights=[0])
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        build_graph(3, [(-1, 1), (0, 1)])
    with pytest.raises(ValueError, match="vertex 3 out of range"):
        build_graph(3, [(0, 1), (1, 3)])
    with pytest.raises(ValueError, match="vertex 2 out of range"):
        build_graph(2, [(2, 0)])
    with pytest.raises(ValueError, match=f"vertex {2**70} out of range"):
        build_graph(3, [(0, 1), (2**70, 1)])
    with pytest.raises(ValueError, match="must be integers"):
        build_graph(3, [(0, 1), (1.5, 0)])


def test_disjoint_set():
    ds = DisjointSet(5)
    ds.union(0, 1)
    ds.union(3, 4)
    assert ds.together(0, 1) and not ds.together(1, 2)
    ds.union(1, 3)
    assert ds.together(0, 4)
    assert ds.find(2) == 2

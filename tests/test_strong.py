import random
from fractions import Fraction

import pytest

from trusskit import (
    ClusterFamily,
    DisjointSet,
    Merge,
    TriangleWeightSpec,
    build_graph,
    edge_supports,
    k_classes,
    strong_truss_family,
    strong_trusses_at,
    summit_strong_trusses,
    triangle_connected_components,
    weighted_k_classes,
)
from trusskit.strong import is_strong_truss
from conftest import complete_graph, graph_from, random_graphs

K4A = "a0 a1\na0 a2\na0 a3\na1 a2\na1 a3\na2 a3"
K4B = K4A.replace("a", "b")


def family_of(g):
    return g, strong_truss_family(g, k_classes(g, edge_supports(g)))


def test_two_triangles_sharing_edge():
    g, fam = family_of(graph_from("a b\na c\nb c\na d\nb d"))
    clusters = strong_trusses_at(fam, 3)
    assert len(clusters) == 1
    assert len(clusters[0]) == 5


def test_two_k4_sharing_vertex_split():
    # one maximal 4-truss, but no triangle crosses the cut vertex
    g, fam = family_of(graph_from(K4A + "\n" + K4B.replace("b0", "a3")))
    clusters = strong_trusses_at(fam, 4)
    assert sorted(len(c) for c in clusters) == [6, 6]


def test_two_k4_sharing_edge_joined():
    g, fam = family_of(graph_from(K4A + "\na2 b0\na3 b0\na2 b1\na3 b1\nb0 b1"))
    clusters = strong_trusses_at(fam, 4)
    assert [len(c) for c in clusters] == [11]


def test_k5_at_level_5():
    g, fam = family_of(complete_graph(5))
    assert [len(c) for c in strong_trusses_at(fam, 5)] == [10]


def test_level_below_2_rejected():
    _, fam = family_of(complete_graph(4))
    with pytest.raises(ValueError):
        strong_trusses_at(fam, 1)


def test_summit_unique_for_k5():
    g, fam = family_of(complete_graph(5))
    assert [(k, len(m)) for k, m in summit_strong_trusses(fam)] == [(5, 10)]


def test_summits_across_bridge_path():
    k5 = "\n".join(f"k{i} k{j}" for i in range(5) for j in range(i + 1, 5))
    k4 = "\n".join(f"m{i} m{j}" for i in range(4) for j in range(i + 1, 4))
    g, fam = family_of(graph_from(k5 + "\n" + k4 + "\nk0 x\nx m0"))
    summits = summit_strong_trusses(fam)
    assert sorted((k, len(m)) for k, m in summits) == [(4, 6), (5, 10)]


def test_two_tier_dendrogram_summits():
    # two tight clusters formed at levels 5 and 4, joined at level 3 through
    # a hub vertex; only the original two are summits
    k5 = "\n".join(f"k{i} k{j}" for i in range(5) for j in range(i + 1, 5))
    k4 = "\n".join(f"m{i} m{j}" for i in range(4) for j in range(i + 1, 4))
    joins = "k3 x\nk4 x\nm0 x\nm1 x\nk4 m0"
    g, fam = family_of(graph_from(k5 + "\n" + k4 + "\n" + joins))
    assert len(strong_trusses_at(fam, 3)) == 1  # everything triangle-connected
    summits = summit_strong_trusses(fam)
    assert sorted((k, len(m)) for k, m in summits) == [(4, 6), (5, 10)]


def test_reported_clusters_satisfy_definition():
    for _, g in random_graphs(25, 20, seed=808):
        dec = k_classes(g, edge_supports(g))
        fam = strong_truss_family(g, dec)
        for k in range(2, dec.k_max + 1):
            for cluster in strong_trusses_at(fam, k):
                assert is_strong_truss(g, cluster, k)


def test_matches_triangle_connectivity_oracle():
    for _, g in random_graphs(40, 22, seed=909):
        dec = k_classes(g, edge_supports(g))
        fam = strong_truss_family(g, dec)
        for k in range(2, dec.k_max + 1):
            keep = [e for e in range(g.m) if dec.phi[e] >= k]
            oracle = [c for c in triangle_connected_components(g, keep) if len(c) >= 2]
            got = strong_trusses_at(fam, k)
            assert sorted(sorted(c) for c in got) == sorted(sorted(c) for c in oracle)


def test_strong_refines_weak(dolphins):
    from trusskit import trusses_at

    dec = k_classes(dolphins, edge_supports(dolphins))
    fam = strong_truss_family(dolphins, dec)
    for k in range(3, dec.k_max + 1):
        weak = trusses_at(dec, dolphins, k).members
        for cluster in strong_trusses_at(fam, k):
            assert sum(1 for w in weak if cluster <= w) == 1


def test_strong_summit_edge_disjoint():
    for _, g in random_graphs(30, 22, seed=1010):
        fam = strong_truss_family(g, k_classes(g, edge_supports(g)))
        seen: set[int] = set()
        for _, member in summit_strong_trusses(fam):
            assert not (member & seen)
            seen |= member


def reference_family(graph, decomposition):
    """The strong family by scanning the adjacency at each arriving edge:
    the lower-degree endpoint's neighbours, ascending, that close a
    triangle with two edges already present."""
    adj = graph.adj
    present = bytearray(graph.m)
    leaf_of_edge = [0] * graph.m
    leaf_edges, leaf_levels, merges = [], [], []
    ds = DisjointSet(graph.m)
    cid = []
    for level in sorted(decomposition.classes, reverse=True):
        for eid in decomposition.classes[level]:
            leaf = len(leaf_edges)
            leaf_edges.append(eid)
            leaf_levels.append(level)
            leaf_of_edge[eid] = leaf
            cid.append(leaf)
            u, v = graph.edges[eid]
            if len(adj[u]) > len(adj[v]):
                u, v = v, u
            for w, e_uw in adj[u].items():
                e_vw = adj[v].get(w)
                if not present[e_uw] or e_vw is None or not present[e_vw]:
                    continue
                ids = {
                    cid[ds.find(leaf)],
                    cid[ds.find(leaf_of_edge[e_uw])],
                    cid[ds.find(leaf_of_edge[e_vw])],
                }
                if len(ids) > 1:
                    survivor = min(ids)
                    ids.discard(survivor)
                    merges.append(Merge(level, tuple(sorted(ids)), survivor))
                    root = ds.find(survivor)
                    for a in ids:
                        root = ds.union(root, ds.find(a))
                    cid[root] = survivor
            present[eid] = 1
    return ClusterFamily(tuple(leaf_edges), tuple(leaf_levels), tuple(merges))


def test_family_matches_adjacency_scan(dolphins):
    graphs = [g for _, g in random_graphs(200, 22, seed=1111)] + [dolphins]
    # 2,500 disjoint triangles: the replay crosses its chunk boundaries, and
    # each triangle makes its own merge
    pairs = ((0, 1), (0, 2), (1, 2))
    graphs.append(build_graph(7500, [(3 * t + a, 3 * t + b) for t in range(2500) for a, b in pairs]))
    for g in graphs:
        dec = k_classes(g, edge_supports(g))
        assert strong_truss_family(g, dec) == reference_family(g, dec)


@pytest.mark.parametrize("kind", ["minimum", "harmonic"])
@pytest.mark.parametrize("alpha", [Fraction(3, 2), 3])
def test_weighted_family_matches_adjacency_scan(kind, alpha):
    spec = TriangleWeightSpec(kind, alpha)
    rng = random.Random(f"{kind}-{alpha}")
    for _, g in random_graphs(40, 18, seed=1414):
        g = build_graph(g.n, g.edges, [rng.randint(1, 9) for _ in range(g.m)])
        dec = weighted_k_classes(g, spec)
        assert strong_truss_family(g, dec) == reference_family(g, dec)

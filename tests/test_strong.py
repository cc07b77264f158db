import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from trusskit import (
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
from conftest import (
    DisjointSet,
    complete_graph,
    graph_from,
    level_pairs,
    random_graphs,
    reference_clusters_at,
    reference_summit_clusters,
    traced_peak,
    weighted_graphs,
)

K4A = "a0 a1\na0 a2\na0 a3\na1 a2\na1 a3\na2 a3"
K4B = K4A.replace("a", "b")


def family_of(g):
    return g, strong_truss_family(k_classes(g, edge_supports(g)))


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
    assert [(k, len(m)) for k, m in level_pairs(summit_strong_trusses(fam))] == [(5, 10)]


def test_summits_across_bridge_path():
    k5 = "\n".join(f"k{i} k{j}" for i in range(5) for j in range(i + 1, 5))
    k4 = "\n".join(f"m{i} m{j}" for i in range(4) for j in range(i + 1, 4))
    g, fam = family_of(graph_from(k5 + "\n" + k4 + "\nk0 x\nx m0"))
    summits = summit_strong_trusses(fam)
    assert sorted((k, len(m)) for k, m in level_pairs(summits)) == [(4, 6), (5, 10)]


def test_two_tier_dendrogram_summits():
    # two tight clusters formed at levels 5 and 4, joined at level 3 through
    # a hub vertex; only the original two are summits
    k5 = "\n".join(f"k{i} k{j}" for i in range(5) for j in range(i + 1, 5))
    k4 = "\n".join(f"m{i} m{j}" for i in range(4) for j in range(i + 1, 4))
    joins = "k3 x\nk4 x\nm0 x\nm1 x\nk4 m0"
    g, fam = family_of(graph_from(k5 + "\n" + k4 + "\n" + joins))
    assert len(strong_trusses_at(fam, 3)) == 1  # everything triangle-connected
    summits = summit_strong_trusses(fam)
    assert sorted((k, len(m)) for k, m in level_pairs(summits)) == [(4, 6), (5, 10)]


def test_reported_clusters_satisfy_definition():
    for _, g in random_graphs(25, 20, seed=808):
        dec = k_classes(g, edge_supports(g))
        fam = strong_truss_family(dec)
        for k in range(2, dec.k_max + 1):
            for cluster in strong_trusses_at(fam, k):
                assert is_strong_truss(g, cluster, k)


def test_matches_triangle_connectivity_oracle():
    for _, g in random_graphs(40, 22, seed=909):
        dec = k_classes(g, edge_supports(g))
        fam = strong_truss_family(dec)
        for k in range(2, dec.k_max + 1):
            keep = [e for e in range(g.m) if dec.phi[e] >= k]
            oracle = [c for c in triangle_connected_components(g, keep) if len(c) >= 2]
            got = strong_trusses_at(fam, k)
            assert sorted(sorted(c) for c in got) == sorted(sorted(c) for c in oracle)


def test_strong_refines_weak(dolphins):
    from trusskit import trusses_at

    dec = k_classes(dolphins, edge_supports(dolphins))
    fam = strong_truss_family(dec)
    for k in range(3, dec.k_max + 1):
        weak = trusses_at(dec, k)
        for cluster in strong_trusses_at(fam, k):
            assert sum(1 for w in weak if cluster <= w) == 1


def test_strong_summit_edge_disjoint():
    for _, g in random_graphs(30, 22, seed=1010):
        fam = strong_truss_family(k_classes(g, edge_supports(g)))
        seen: set[int] = set()
        for member in summit_strong_trusses(fam):
            assert not (member & seen)
            seen |= member


def reference_family(graph, decomposition):
    """The strong family's leaf edges, leaf levels and merge rows (level,
    survivor, absorbed0, absorbed1 or -1), by scanning the adjacency at
    each arriving edge: the lower-degree endpoint's neighbours, ascending,
    that close a triangle with two edges already present."""
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
                    merges.append([level, survivor, *sorted(ids), -1][:4])
                    root = ds.find(survivor)
                    for a in ids:
                        root = ds.union(root, ds.find(a))
                    cid[root] = survivor
            present[eid] = 1
    return leaf_edges, leaf_levels, merges


def assert_matches_reference(family, graph, decomposition):
    leaf_edges, leaf_levels, merges = reference_family(graph, decomposition)
    assert family.leaf_order.tolist() == leaf_edges
    assert family.leaf_levels.tolist() == leaf_levels
    assert family.merges.tolist() == merges


def test_family_matches_adjacency_scan(dolphins):
    graphs = [g for _, g in random_graphs(200, 22, seed=1111)] + [dolphins]
    # 2,500 disjoint triangles: the replay crosses its chunk boundaries, and
    # each triangle makes its own merge
    pairs = ((0, 1), (0, 2), (1, 2))
    graphs.append(build_graph(7500, [(3 * t + a, 3 * t + b) for t in range(2500) for a, b in pairs]))
    for g in graphs:
        dec = k_classes(g, edge_supports(g))
        assert_matches_reference(strong_truss_family(dec), g, dec)


@pytest.mark.parametrize("kind", ["minimum", "harmonic"])
@pytest.mark.parametrize("alpha", [Fraction(3, 2), 3])
def test_weighted_family_matches_adjacency_scan(kind, alpha):
    spec = TriangleWeightSpec(kind, alpha)
    rng = random.Random(f"{kind}-{alpha}")
    for _, g in random_graphs(40, 18, seed=1414):
        g = build_graph(g.n, g.edges, [rng.randint(1, 9) for _ in range(g.m)])
        dec = weighted_k_classes(g, spec)
        assert_matches_reference(strong_truss_family(dec), g, dec)


def test_family_matches_adjacency_scan_above_16_bit_levels():
    # levels of 2^15 and more: a 16-bit level key would wrap and misorder
    # the links, so cuts would read the wrong links at each level
    spec = TriangleWeightSpec("minimum", 1)
    high = 0
    for g in weighted_graphs(30, 22, seed=2525, top=100_000):
        dec = weighted_k_classes(g, spec)
        fam = strong_truss_family(dec)
        assert_matches_reference(fam, g, dec)
        assert np.all(np.diff(fam.links[:, 0]) <= 0)
        assert level_pairs(summit_strong_trusses(fam)) == reference_summit_clusters(fam, 2)
        for k in sorted({2, *dec.classes, dec.k_max + 1}):
            assert strong_trusses_at(fam, k) == reference_clusters_at(fam, k, 2)
        high += dec.k_max >= 1 << 15 and int(dec.trussness.min()) < 1 << 15
    assert high   # some graphs have levels on both sides of 2^15


def test_link_order_within_a_level_changes_nothing(dolphins):
    # cuts and summits read only which links sit at each level; the merge
    # log orders its own copy of the links
    rng = np.random.default_rng(2626)
    cases = [family_of(g) for _, g in random_graphs(60, 20, seed=2727)] + [family_of(dolphins)]
    spec = TriangleWeightSpec("minimum", 1)
    for g in weighted_graphs(20, 22, seed=2828):
        cases.append((g, strong_truss_family(weighted_k_classes(g, spec))))
    for g, fam in cases:
        links = fam.links[np.lexsort((rng.random(len(fam.links)), -fam.links[:, 0]))]
        shuffled = dataclasses.replace(fam, links=links)
        levels = sorted({2, *fam.leaf_levels.tolist()}, reverse=True)
        for (k, root), (k2, root2) in zip(fam.cuts(levels), shuffled.cuts(levels)):
            assert k == k2 and np.array_equal(root, root2)
        for k in levels:
            assert shuffled.clusters_at(k, 2) == fam.clusters_at(k, 2)
        assert level_pairs(shuffled.summit_clusters()) == level_pairs(fam.summit_clusters())
        assert np.array_equal(shuffled.merges, fam.merges)


def test_strong_cuts_and_summits_match_the_replays(dolphins):
    spec = TriangleWeightSpec("minimum", 1)
    cases = [(g, k_classes(g, edge_supports(g))) for _, g in random_graphs(120, 20, seed=1818)]
    cases.append((dolphins, k_classes(dolphins, edge_supports(dolphins))))
    cases += [(g, weighted_k_classes(g, spec)) for g in weighted_graphs(60, 22, seed=1919)]
    for g, dec in cases:
        fam = strong_truss_family(dec)
        assert_matches_reference(fam, g, dec)
        # ordered lists: clusters_to_node_partition breaks ties by position
        assert level_pairs(summit_strong_trusses(fam)) == reference_summit_clusters(fam, 2)
        for k in sorted({2, *dec.classes, dec.k_max + 1}):
            assert strong_trusses_at(fam, k) == reference_clusters_at(fam, k, 2)


def test_strong_summit_scratch_per_link_row():
    """The strong summits' traced peak over their family, per link row, on
    the first batch `bench` scores (three seeded planted graphs, 37,068
    link rows): 28.3 bytes, against 55.3 when they joined copies of every
    row's x-y and x-z link ends."""
    from trusskit import PlantedModel
    from trusskit.bench import _batches

    batch = next(_batches(PlantedModel(l=20, group_size=20, p=0.8, mu=0.3, seed=11), 60))
    family = strong_truss_family(k_classes(batch.graph, batch.supports))
    _, peak = traced_peak(summit_strong_trusses, family)
    assert peak <= 32 * len(family.links)

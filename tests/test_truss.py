import random

import numpy as np
import pytest

from trusskit import (
    Merge,
    MergeLog,
    TriangleWeightSpec,
    brute_force_supports,
    build_graph,
    edge_supports,
    iterative_deletion_oracle,
    k_classes,
    strong_truss_family,
    summit_trusses,
    truss_dendrogram,
    trusses_at,
    weighted_k_classes,
)
from trusskit.graph import _component_labels, edge_nodes
from trusskit.truss import _link_ends, _vertex_family, truss_leaves
from conftest import (
    complete_graph,
    cycle_graph,
    graph_from,
    random_graphs,
    reference_clusters_at,
    reference_summit_clusters,
    weighted_graphs,
)


def decompose(g):
    return k_classes(g, edge_supports(g))


def test_k5_is_a_5_class():
    dec = decompose(complete_graph(5))
    assert dec.phi == (5,) * 10
    assert dec.k_max == 5


def test_k4_plus_pendant():
    g = graph_from("a b\na c\na d\nb c\nb d\nc d\nd e")
    dec = decompose(g)
    assert sorted(dec.phi) == [2, 4, 4, 4, 4, 4, 4]


def test_planted_clique_lower_bound():
    # K6 on otherwise-isolated vertices keeps phi = 6 on its edges
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    edges += [(6, 7), (7, 8)]
    dec = decompose(build_graph(9, edges))
    assert sorted(dec.classes) == [2, 6]
    assert len(dec.classes[6]) == 15


@pytest.mark.parametrize("call", [
    pytest.param(lambda dec, g: trusses_at(dec, g, 3), id="trusses_at"),
    pytest.param(lambda dec, g: summit_trusses(dec, g), id="summit_trusses"),
    pytest.param(lambda dec, g: truss_dendrogram(dec, g), id="truss_dendrogram"),
    pytest.param(lambda dec, g: strong_truss_family(g, dec), id="strong_truss_family"),
])
def test_decomposition_of_another_graph_is_refused(call):
    abc = graph_from("a b\nb c\na c")
    two = graph_from("a b\nb c\na c\nc d\nd e\nc e")     # abc and a second triangle
    with pytest.raises(ValueError, match="decomposition does not match graph"):
        call(decompose(abc), two)
    call(decompose(two), two)


def test_trusses_at_rejects_small_k():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        trusses_at(decompose(g), g, 1)


def test_oracle_examples():
    k4 = complete_graph(4)
    ts = iterative_deletion_oracle(k4, 4)
    assert len(ts.members) == 1 and len(ts.members[0]) == 6
    assert iterative_deletion_oracle(cycle_graph(6), 3).members == ()


def test_oracle_equivalence():
    for _, g in random_graphs(50, 25, seed=404):
        dec = decompose(g)
        for k in range(2, dec.k_max + 2):
            fast = sorted(sorted(m) for m in trusses_at(dec, g, k).members)
            slow = sorted(sorted(m) for m in iterative_deletion_oracle(g, k).members)
            assert fast == slow


def test_dolphins_truss_family(dolphins):
    dec = decompose(dolphins)
    assert dec.k_max == 5
    assert len(trusses_at(dec, dolphins, 3).members) == 1
    assert len(trusses_at(dec, dolphins, 4).members) == 4
    t5 = trusses_at(dec, dolphins, 5)
    shapes = sorted(
        (len(t5.member_nodes(dolphins, i)), len(m)) for i, m in enumerate(t5.members)
    )
    assert shapes == [(5, 10), (6, 14)]
    assert 6 not in dec.classes


def test_nesting_and_disjointness():
    for _, g in random_graphs(40, 30, seed=505):
        dec = decompose(g)
        previous = None
        for k in range(dec.k_max, 1, -1):
            members = trusses_at(dec, g, k).members
            # edge- and vertex-disjoint at fixed k
            all_edges = [e for m in members for e in m]
            assert len(all_edges) == len(set(all_edges))
            all_nodes = [v for m in members for v in edge_nodes(g, m)]
            assert len(all_nodes) == len(set(all_nodes))
            if previous is not None:
                for small in previous:
                    assert any(small <= big for big in members)
            previous = members


def test_internal_min_degree():
    # every vertex of a maximal k-truss has at least k-1 neighbors inside
    for _, g in random_graphs(30, 30, seed=606):
        dec = decompose(g)
        for k in range(3, dec.k_max + 1):
            for member in trusses_at(dec, g, k).members:
                inside: dict[int, int] = {}
                for e in member:
                    lo, hi = g.edges[e]
                    inside[lo] = inside.get(lo, 0) + 1
                    inside[hi] = inside.get(hi, 0) + 1
                assert min(inside.values()) >= k - 1


def test_dendrogram_k5():
    g = complete_graph(5)
    fam = truss_dendrogram(decompose(g), g)
    assert all(m.level == 5 for m in fam.merges)
    assert [len(c) for c in fam.clusters_at(5)] == [10]


def test_dendrogram_bridge():
    k4 = "a0 a1\na0 a2\na0 a3\na1 a2\na1 a3\na2 a3\n"
    k4b = k4.replace("a", "b")
    g = graph_from(k4 + k4b + "a0 b0")
    fam = truss_dendrogram(decompose(g), g)
    assert [len(c) for c in fam.clusters_at(4)] == [6, 6]
    assert [len(c) for c in fam.clusters_at(2)] == [13]
    level2 = [m for m in fam.merges if m.level == 2]
    assert len(level2) == 1 and len(level2[0].absorbed) == 2


def test_dendrogram_levels_never_increase(dolphins):
    fam = truss_dendrogram(decompose(dolphins), dolphins)
    levels = [m.level for m in fam.merges]
    assert levels == sorted(levels, reverse=True)


def test_dendrogram_cut_matches_trusses(dolphins):
    dec = decompose(dolphins)
    fam = truss_dendrogram(dec, dolphins)
    for k in range(2, dec.k_max + 1):
        cut = sorted(sorted(c) for c in fam.clusters_at(k))
        direct = sorted(sorted(m) for m in trusses_at(dec, dolphins, k).members)
        assert cut == direct


def test_summit_k5():
    g = complete_graph(5)
    summits = summit_trusses(decompose(g), g)
    assert [(k, len(m)) for k, m in summits] == [(5, 10)]


def test_summit_pendant_excluded():
    g = graph_from("a b\na c\na d\nb c\nb d\nc d\nd e")
    summits = summit_trusses(decompose(g), g)
    assert [(k, len(m)) for k, m in summits] == [(4, 6)]


def test_summits_disjoint_k5_k4_two_path():
    k5 = "\n".join(f"k{i} k{j}" for i in range(5) for j in range(i + 1, 5))
    k4 = "\n".join(f"m{i} m{j}" for i in range(4) for j in range(i + 1, 4))
    g = graph_from(k5 + "\n" + k4 + "\nk0 x\nx m0")
    summits = summit_trusses(decompose(g), g)
    assert sorted((k, len(m)) for k, m in summits) == [(4, 6), (5, 10)]
    a, b = summits[0][1], summits[1][1]
    assert not (a & b)


def test_summit_union_edge_disjoint():
    for _, g in random_graphs(30, 30, seed=707):
        seen: set[int] = set()
        for _, member in summit_trusses(decompose(g), g):
            assert not (member & seen)
            seen |= member


def test_networkx_k_truss_differential():
    nx = pytest.importorskip("networkx")
    for _, g in random_graphs(40, 30, seed=909):
        dec = decompose(g)
        reference = nx.Graph(g.edges)
        for k in range(2, dec.k_max + 2):
            truss = nx.k_truss(reference, k)
            expected = {g.edge_id(u, v) for u, v in truss.edges}
            assert expected == {e for e in range(g.m) if dec.phi[e] >= k}


def test_peel_reuses_and_matches_oracle_supports():
    # supports without a triangle list (the oracle's) get a fresh listing
    for _, g in random_graphs(20, 25, seed=1010):
        assert k_classes(g, brute_force_supports(g)) == decompose(g)


def test_dendrogram_summits_match_summit_trusses(dolphins):
    # summit_clusters replays the merge log; summit_trusses cuts every level
    graphs = [g for _, g in random_graphs(300, 20, seed=1313)] + [dolphins]
    for g in graphs:
        dec = decompose(g)
        got = set(truss_dendrogram(dec, g).summit_clusters())
        want = {(k, member) for k, member in summit_trusses(dec, g) if len(member) >= 2}
        assert got == want


def level_loop_summits(dec, g):
    """summit_trusses as a cut of every level: the trusses at k whose edges
    all have phi == k, ordered by k, then by smallest edge id."""
    out = []
    for k in sorted(dec.classes):
        for member in trusses_at(dec, g, k).members:
            if all(dec.phi[e] == k for e in member):
                out.append((k, member))
    return out


def many_level_cases(dolphins):
    """(graph, decomposition) pairs: plain random graphs, dolphins, and
    minimum-weight graphs with weights 1..1000 (many distinct levels)."""
    cases = [(g, decompose(g)) for _, g in random_graphs(120, 20, seed=1616)]
    cases.append((dolphins, decompose(dolphins)))
    spec = TriangleWeightSpec("minimum", 1)
    cases += [(g, weighted_k_classes(g, spec)) for g in weighted_graphs(60, 22, seed=1717)]
    return cases


def test_summit_trusses_match_the_level_loop(dolphins):
    for g, dec in many_level_cases(dolphins):
        assert summit_trusses(dec, g) == level_loop_summits(dec, g)


def test_dendrogram_cuts_and_summits_match_the_replays(dolphins):
    for g, dec in many_level_cases(dolphins):
        fam = truss_dendrogram(dec, g)
        assert fam.summit_clusters() == reference_summit_clusters(fam)
        for k in sorted({2, *dec.classes, dec.k_max + 1}):
            for size in (1, 2):
                assert fam.clusters_at(k, size) == reference_clusters_at(fam, k, size)


def test_merge_log_rows_read_as_merges():
    log = MergeLog([(5, 0, 3, -1), (4, 1, 2, 6)])
    assert len(log) == 2
    assert list(log) == [Merge(5, (3,), 0), Merge(4, (2, 6), 1)]
    assert log == MergeLog(np.array([[5, 0, 3, -1], [4, 1, 2, 6]]))
    assert log != MergeLog([(5, 0, 3, -1)])


def test_cuts_match_a_fresh_pass_per_level(dolphins):
    rng = random.Random(2323)
    for g, dec in many_level_cases(dolphins):
        for fam in (
            _vertex_family(g, *truss_leaves(dec, g)),
            truss_dendrogram(dec, g),
            strong_truss_family(g, dec),
        ):
            level, a, b = _link_ends(fam.links)
            present = sorted({2, *dec.classes, dec.k_max + 1})
            ks = rng.sample(present, rng.randint(1, len(present))) * rng.randint(1, 2)
            seen = []
            for k, root in fam.cuts(ks):
                seen.append(k)
                assert root.dtype == np.int32
                keep = level >= k
                assert np.array_equal(root, _component_labels(fam.nodes, a[keep], b[keep]))
            assert seen == sorted(set(ks), reverse=True)
            for k in present:
                for size in (1, 2):
                    assert fam.clusters_at(k, size) == reference_clusters_at(fam, k, size)

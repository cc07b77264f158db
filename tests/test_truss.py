import dataclasses
import inspect
import random
import typing

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trusskit import (
    ETPGraph,
    Graph,
    KClassDecomposition,
    SupportMap,
    TriangleWeightSpec,
    build_etp_graph,
    build_graph,
    edge_supports,
    k_classes,
    strong_trapezes_at,
    strong_truss_family,
    strong_trusses_at,
    summit_strong_trusses,
    summit_trusses,
    trapeze_level_run,
    trapezes_at,
    truss_dendrogram,
    trusses_at,
    weighted_k_classes,
)
from trusskit.forest import forest_merges
from trusskit.graph import _component_labels
from trusskit.truss import (
    _leaves,
    _replay,
    _vertex_family,
    truss_leaves,
)
from oracles import brute_force_supports, edge_id, edge_nodes, iterative_deletion_oracle
from conftest import (
    complete_graph,
    cycle_graph,
    graph_from,
    level_pairs,
    random_graphs,
    reference_clusters_at,
    reference_summit_clusters,
    traced_peak,
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
    pytest.param(lambda dec: trusses_at(dec, 3), id="trusses_at"),
    pytest.param(summit_trusses, id="summit_trusses"),
    pytest.param(truss_dendrogram, id="truss_dendrogram"),
    pytest.param(strong_truss_family, id="strong_truss_family"),
])
def test_readers_take_the_graph_from_the_decomposition(call):
    joined = graph_from("a b\nb c\na c\nc d\nd e\nc e")   # two triangles sharing c
    apart = graph_from("a b\nb c\na c\nd e\ne f\nd f")    # the same edge ids, apart
    spec = TriangleWeightSpec("minimum", 1)
    for g in (joined, apart):
        assert decompose(g).graph is g and weighted_k_classes(g, spec).graph is g
    # the two decompositions differ only in their graphs, so they differ
    assert np.array_equal(decompose(joined).trussness, decompose(apart).trussness)
    assert decompose(joined) != decompose(apart)
    rows = [np.sort(decompose(g).triangles, axis=1) for g in (joined, apart)]
    assert np.array_equal(*rows)
    moved = dataclasses.replace(decompose(joined), graph=apart)
    assert moved == decompose(apart)
    assert call(moved) == call(decompose(apart))


def test_no_reader_of_a_result_takes_the_graph_again():
    """A decomposition and an ETP structure carry their graph, so no
    public function takes a Graph beside either of them."""
    import trusskit
    from trusskit.cli import graphml_export

    functions = [getattr(trusskit, name) for name in trusskit.__all__]
    readers = set()
    for fn in filter(inspect.isfunction, [*functions, truss_leaves, graphml_export]):
        hints = typing.get_type_hints(fn)
        hints.pop("return", None)
        # a parameter's type, or each member of a union such as `Graph | None`
        types = {t for hint in hints.values() for t in (hint, *typing.get_args(hint))}
        if {KClassDecomposition, ETPGraph} & types:
            assert Graph not in types, fn.__name__
            readers.add(fn.__name__)
    assert readers >= {
        "trusses_at", "summit_trusses", "truss_dendrogram", "truss_leaves",
        "strong_truss_family", "trapezes_at", "strong_trapezes_at", "graphml_export",
    }


def test_trusses_at_rejects_small_k():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        trusses_at(decompose(g), 1)


def test_oracle_examples():
    k4 = complete_graph(4)
    ts = iterative_deletion_oracle(k4, 4)
    assert len(ts) == 1 and len(ts[0]) == 6
    assert iterative_deletion_oracle(cycle_graph(6), 3) == ()


def test_oracle_equivalence():
    for _, g in random_graphs(50, 25, seed=404):
        dec = decompose(g)
        for k in range(2, dec.k_max + 2):
            fast = sorted(sorted(m) for m in trusses_at(dec, k))
            slow = sorted(sorted(m) for m in iterative_deletion_oracle(g, k))
            assert fast == slow


def test_dolphins_truss_family(dolphins):
    dec = decompose(dolphins)
    assert dec.k_max == 5
    assert len(trusses_at(dec, 3)) == 1
    assert len(trusses_at(dec, 4)) == 4
    t5 = trusses_at(dec, 5)
    shapes = sorted((len(edge_nodes(dolphins, m)), len(m)) for m in t5)
    assert shapes == [(5, 10), (6, 14)]
    assert 6 not in dec.classes


def test_nesting_and_disjointness():
    for _, g in random_graphs(40, 30, seed=505):
        dec = decompose(g)
        previous = None
        for k in range(dec.k_max, 1, -1):
            members = trusses_at(dec, k)
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
            for member in trusses_at(dec, k):
                inside: dict[int, int] = {}
                for e in member:
                    lo, hi = g.edges[e]
                    inside[lo] = inside.get(lo, 0) + 1
                    inside[hi] = inside.get(hi, 0) + 1
                assert min(inside.values()) >= k - 1


def test_dendrogram_k5():
    g = complete_graph(5)
    fam = truss_dendrogram(decompose(g))
    assert (fam.merges[:, 0] == 5).all()
    assert [len(c) for c in fam.clusters_at(5)] == [10]


def test_dendrogram_bridge():
    k4 = "a0 a1\na0 a2\na0 a3\na1 a2\na1 a3\na2 a3\n"
    k4b = k4.replace("a", "b")
    g = graph_from(k4 + k4b + "a0 b0")
    fam = truss_dendrogram(decompose(g))
    assert [len(c) for c in fam.clusters_at(4)] == [6, 6]
    assert [len(c) for c in fam.clusters_at(2)] == [13]
    level2 = fam.merges[fam.merges[:, 0] == 2]
    assert len(level2) == 1 and level2[0, 3] >= 0   # one merge, absorbing two


def test_dendrogram_levels_never_increase(dolphins):
    fam = truss_dendrogram(decompose(dolphins))
    levels = fam.merges[:, 0].tolist()
    assert levels == sorted(levels, reverse=True)


def test_dendrogram_cut_matches_trusses(dolphins):
    dec = decompose(dolphins)
    fam = truss_dendrogram(dec)
    for k in range(2, dec.k_max + 1):
        cut = sorted(sorted(c) for c in fam.clusters_at(k))
        direct = sorted(sorted(m) for m in trusses_at(dec, k))
        assert cut == direct


def test_summit_k5():
    g = complete_graph(5)
    summits = summit_trusses(decompose(g))
    assert [(k, len(m)) for k, m in level_pairs(summits)] == [(5, 10)]


def test_summit_pendant_excluded():
    g = graph_from("a b\na c\na d\nb c\nb d\nc d\nd e")
    summits = summit_trusses(decompose(g))
    assert [(k, len(m)) for k, m in level_pairs(summits)] == [(4, 6)]


def test_summits_disjoint_k5_k4_two_path():
    k5 = "\n".join(f"k{i} k{j}" for i in range(5) for j in range(i + 1, 5))
    k4 = "\n".join(f"m{i} m{j}" for i in range(4) for j in range(i + 1, 4))
    g = graph_from(k5 + "\n" + k4 + "\nk0 x\nx m0")
    summits = summit_trusses(decompose(g))
    assert sorted((k, len(m)) for k, m in level_pairs(summits)) == [(4, 6), (5, 10)]
    a, b = summits
    assert not (a & b)


def test_summit_union_edge_disjoint():
    for _, g in random_graphs(30, 30, seed=707):
        seen: set[int] = set()
        for member in summit_trusses(decompose(g)):
            assert not (member & seen)
            seen |= member


def test_networkx_k_truss_differential():
    nx = pytest.importorskip("networkx")
    for _, g in random_graphs(40, 30, seed=909):
        dec = decompose(g)
        reference = nx.Graph(g.edges)
        for k in range(2, dec.k_max + 2):
            truss = nx.k_truss(reference, k)
            expected = {edge_id(g, u, v) for u, v in truss.edges}
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
        got = set(level_pairs(truss_dendrogram(dec).summit_clusters()))
        want = {(k, member) for k, member in level_pairs(summit_trusses(dec)) if len(member) >= 2}
        assert got == want


def level_loop_summits(dec, g):
    """summit_trusses as a cut of every level: the trusses at k whose edges
    all have phi == k, as (k, edges) pairs ordered by smallest edge id."""
    out = []
    for k in sorted(dec.classes):
        for member in trusses_at(dec, k):
            if all(dec.phi[e] == k for e in member):
                out.append((k, member))
    return sorted(out, key=lambda pair: min(pair[1]))


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
        assert level_pairs(summit_trusses(dec)) == level_loop_summits(dec, g)


def test_dendrogram_cuts_and_summits_match_the_replays(dolphins):
    for g, dec in many_level_cases(dolphins):
        fam = truss_dendrogram(dec)
        assert level_pairs(fam.summit_clusters()) == reference_summit_clusters(fam)
        for k in sorted({2, *dec.classes, dec.k_max + 1}):
            for size in (1, 2):
                assert fam.clusters_at(k, size) == reference_clusters_at(fam, k, size)


def test_cuts_match_a_fresh_pass_per_level(dolphins):
    rng = random.Random(2323)
    for g, dec in many_level_cases(dolphins):
        for fam in (
            _vertex_family(g, *truss_leaves(dec)),
            truss_dendrogram(dec),
            strong_truss_family(dec),
        ):
            # the pairwise links: x-y for every row, x-z for a row with z
            level, x, y, z = fam.links.T
            third = z >= 0
            level = np.concatenate((level, level[third]))
            a, b = np.concatenate((x, x[third])), np.concatenate((y, z[third]))
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


def reference_views(trussness):
    """phi, classes and the leaf order as the decomposition and the families
    stored them before they became views of arrays: a tuple, a dict keyed
    by each level's first edge with ids ascending, and the classes chained
    from the top level down."""
    phi = tuple(int(k) for k in trussness)
    classes: dict[int, list[int]] = {}
    for eid, k in enumerate(phi):
        classes.setdefault(k, []).append(eid)
    return phi, classes, [e for k in sorted(classes, reverse=True) for e in classes[k]]


@given(st.lists(st.integers(2, 9) | st.just(40), max_size=60))
def test_classes_keyed_by_each_levels_first_edge(levels):
    """For any trussness, also with gaps between levels and none at all,
    `classes` keys each level in order of its first edge and lists its
    edge ids ascending, as a loop over the edges in id order builds it."""
    trussness = np.array(levels, dtype=np.int64)
    graph = build_graph(len(levels) + 1, [(i, i + 1) for i in range(len(levels))])
    dec = KClassDecomposition(trussness, np.empty((0, 3), np.int32), graph)
    _, classes, _ = reference_views(trussness)
    assert list(dec.classes.items()) == list(classes.items())


def test_views_match_the_stored_forms(dolphins):
    for g, dec in many_level_cases(dolphins):
        phi, classes, leaves = reference_views(dec.trussness)
        assert dec.phi == phi
        assert dec.classes == classes and list(dec.classes) == list(classes)
        assert type(dec.k_max) is int and dec.k_max == max(phi, default=0)
        for fam in (
            _vertex_family(g, *truss_leaves(dec)),
            truss_dendrogram(dec),
            strong_truss_family(dec),
        ):
            assert fam.leaf_order.dtype == fam.leaf_levels.dtype == np.int32
            assert fam.leaf_order.tolist() == leaves
            assert fam.leaf_levels.tolist() == [phi[e] for e in leaves]
            assert all(fam.leaves_at(k) == sum(phi[e] >= k for e in leaves) for k in {1, *classes})


def test_oracle_and_listed_results_are_equal():
    for _, g in random_graphs(40, 20, seed=1919):
        listed, oracle = edge_supports(g), brute_force_supports(g)
        assert listed == oracle and hash(listed) == hash(oracle)
        assert listed.sup == oracle.sup == tuple(listed.support.tolist())
        for sup in (listed, oracle):
            assert type(sup.max_support) is int and type(sup.total_triangles()) is int
        dec = k_classes(g, listed)
        assert dec == k_classes(g, oracle)
        assert dec == weighted_k_classes(g, TriangleWeightSpec("minimum", 1))
    assert SupportMap(listed.support + 1) != listed
    assert KClassDecomposition(dec.trussness + 1, dec.triangles, dec.graph) != dec
    assert dec != dec.phi


def forest_graphs():
    """300 seeded graphs of every shape a vertex family's reconstruction
    tree can take: empty, one edge, isolated vertices, paths and stars
    (as deep as they are long, around each power of two), and random
    graphs, often disconnected, with shuffled vertex ids."""
    rng = random.Random(3030)
    graphs = [build_graph(0, []), build_graph(3, []), build_graph(2, [(0, 1)])]
    graphs.append(build_graph(6, [(4, 1)]))
    graphs += [build_graph(m + 1, [(i, i + 1) for i in range(m)]) for m in range(1, 70)]
    for m in (1, 2, 3, 7, 8, 9, 31, 33):
        graphs.append(build_graph(m + 1, [(0, i) for i in range(1, m + 1)]))
    while len(graphs) < 300:
        n = rng.randint(1, 40)
        p = rng.choice((0.03, 0.08, 0.2, 0.5))
        relabel = rng.sample(range(n), n)
        edges = [(relabel[i], relabel[j])
                 for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if rng.random() < 0.2:   # a path through every vertex, in random order
            edges = list(zip(relabel, relabel[1:]))
        rng.shuffle(edges)
        graphs.append(build_graph(n, edges))
    return graphs


def test_forest_merge_log_matches_the_replay(dolphins):
    """The vertex family's merge log from its spanning forest equals the
    replay of its links, for the truss family of every graph, for a family
    over an edge subset with random levels (as the trapeze level run makes),
    on dolphins and on minimum-weight graphs with many levels."""
    rng = random.Random(3131)
    cases = []
    for g in forest_graphs():
        cases.append((g, truss_leaves(decompose(g))))
        level = np.array([rng.randint(0, 4) for _ in range(g.m)], dtype=np.int32)
        cases.append((g, _leaves(level)))
    cases.append((dolphins, truss_leaves(decompose(dolphins))))
    spec = TriangleWeightSpec("minimum", 1)
    for g in weighted_graphs(20, 40, seed=3232):
        cases.append((g, truss_leaves(weighted_k_classes(g, spec))))
    deep = 0
    for g, leaves in cases:
        fam = _vertex_family(g, *leaves)
        want = _replay(fam.links, fam.nodes, len(fam.leaf_order))
        got = forest_merges(fam.links, fam.nodes, len(fam.leaf_order))
        assert got.dtype == np.int32 and got.shape == (len(want), 4)
        assert np.array_equal(got, want)
        assert np.array_equal(fam.merges, want)
        deep += len(want) >= 64 and (want[:, 3] >= 0).any()
    assert deep   # some logs are long and hold three-way merges


def assert_well_formed(store):
    """The `Clusters` layout every producer promises: int32 edges, int64
    row starts and int32 levels; one non-empty row range per cluster
    covering every edge; edges ascending within a cluster, first edges
    strictly ascending across clusters, and no edge in two clusters."""
    edges, start, level = store.edges, store.start, store.level
    assert (edges.dtype, start.dtype, level.dtype) == (np.int32, np.int64, np.int32)
    assert len(start) == len(level) + 1 == len(store) + 1
    assert start[0] == 0 and start[-1] == len(edges)
    assert (np.diff(start) > 0).all()
    within = np.repeat(np.arange(len(level)), np.diff(start))
    same = within[1:] == within[:-1]
    assert (np.diff(edges)[same] > 0).all()
    assert (np.diff(edges[start[:-1]]) > 0).all()
    assert len(np.unique(edges)) == len(edges)


def test_every_producer_builds_a_well_formed_store(dolphins):
    graphs = [g for _, g in random_graphs(40, 16, seed=3434)] + [dolphins]
    graphs += [complete_graph(6), cycle_graph(4), build_graph(3, [])]
    kinds = set()
    for g in graphs:
        dec = decompose(g)
        fam = strong_truss_family(dec)
        ks = range(2, dec.k_max + 2)
        at_level = [(k, trusses_at(dec, k)) for k in ks]
        at_level += [(k, iterative_deletion_oracle(g, k)) for k in ks]
        at_level += [(k, truss_dendrogram(dec).clusters_at(k)) for k in ks]
        at_level += [(k, strong_trusses_at(fam, k)) for k in ks]
        schedule = [1, 2, 4]
        etp = build_etp_graph(g)
        at_level += [(k, trapezes_at(etp, k)) for k in schedule]
        etp = build_etp_graph(g)
        at_level += [(k, strong_trapezes_at(etp, k)) for k in schedule]
        run = trapeze_level_run(g, schedule)
        at_level += [(k, run.weak[k]) for k in schedule] + [(k, run.strong[k]) for k in schedule]
        for k, store in at_level:
            assert_well_formed(store)
            assert (store.level == k).all()
            kinds.add(len(store) > 1)
        for store in (summit_trusses(dec), summit_strong_trusses(fam), run.summits):
            assert_well_formed(store)
            assert (store.level >= 1).all()
    assert kinds == {False, True}   # empty or single stores, and stores of several


def test_forest_merges_scratch_per_edge():
    """The truss dendrogram's merge log's traced peak over the family's
    links, per edge, on the first batch `bench` scores (three seeded
    planted graphs, 13,005 edges): 39.0 bytes (37.3 on the seed-11
    truss-scale row). The peak is the log's assembly: the int32 lo, hi and
    leaf columns (12 bytes), the keep mask (1), the rows (16 per kept
    edge), one column gathered into them (4) and the jump tables."""
    from trusskit import PlantedModel
    from trusskit.bench import _batches

    batch = next(_batches(PlantedModel(l=20, group_size=20, p=0.8, mu=0.3, seed=11), 60))
    dec = k_classes(batch.graph, batch.supports)
    family = _vertex_family(batch.graph, *truss_leaves(dec))
    _, peak = traced_peak(forest_merges, family.links, family.nodes, len(family.leaf_order))
    assert peak <= 44 * batch.graph.m


def test_peel_scratch_per_triangle():
    """The peel's traced peak over the list it is handed, per triangle, on
    the first batch `bench` scores (three seeded planted graphs, 37,068
    triangles): 37.4 bytes plain and weighted, against 38.8 plain and 62.8
    weighted when it kept a liveness flag per triangle and copied the
    weights to every slot."""
    from trusskit import PlantedModel, build_graph, weighted_supports
    from trusskit.bench import _batches
    from trusskit.truss import peel_triangles

    batch = next(_batches(PlantedModel(l=20, group_size=20, p=0.8, mu=0.3, seed=11), 60))
    g = batch.graph
    heavy = build_graph(g.n, g.ends, np.random.default_rng(11).integers(1, 10, g.m).tolist())
    for supports in (batch.supports, weighted_supports(heavy, TriangleWeightSpec("minimum", 1))):
        args = g.m, supports.triangles, supports.support, supports.weights
        _, peak = traced_peak(peel_triangles, *args)
        assert peak <= 40 * len(supports.triangles)

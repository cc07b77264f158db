import math
import random

import numpy as np
import pytest

from trusskit import (
    InfeasibleModelError,
    Partition,
    PlantedModel,
    build_graph,
    clusters_to_node_partition,
    derive_inter_prob,
    edge_supports,
    generate_planted,
    k_classes,
    nmi,
    run_benchmark,
    strong_truss_family,
    strong_trusses_at,
    trusses_at,
)
from conftest import graph_from, random_graphs, reference_benchmark_rows, reference_nmi


def test_inter_prob_zero_mixing():
    assert derive_inter_prob(10, 100, 0.8, 0.0) == 0.0


def test_inter_prob_balance_point():
    # mu = 1/2: expected inter-degree equals expected intra-degree
    r = derive_inter_prob(2, 4, 1.0, 0.5)
    assert r == pytest.approx(0.5)
    g = 4 / 2
    assert r * (4 - g) == pytest.approx(1.0 * (g - 1))


def test_inter_prob_table_row():
    r = derive_inter_prob(10, 100, 0.8, 0.1)
    assert r == pytest.approx((0.1 / 0.9) * 0.8 * 9 / 90)
    expected_m = 10 * 45 * 0.8 + (4950 - 450) * r
    assert expected_m == pytest.approx(400.0)


def test_inter_prob_infeasible():
    with pytest.raises(InfeasibleModelError):
        derive_inter_prob(2, 4, 1.0, 0.95)


def test_generate_cliques():
    g, part = generate_planted(PlantedModel(l=5, group_size=4, p=1.0, mu=0.0, seed=1))
    assert g.n == 20 and g.m == 5 * 6
    for lo, hi in g.edges:
        assert part.label[lo] == part.label[hi]


def test_generate_empty():
    g, _ = generate_planted(PlantedModel(l=3, group_size=3, p=0.0, mu=0.0, seed=1))
    assert g.n == 9 and g.m == 0


def test_generate_deterministic():
    model = PlantedModel(l=4, group_size=8, p=0.6, mu=0.2, seed=42)
    g1, p1 = generate_planted(model)
    g2, p2 = generate_planted(model)
    assert g1.edges == g2.edges and p1 == p2


def test_generate_mixed_sizes():
    g, part = generate_planted(PlantedModel(l=10, group_size=(5, 10), p=0.9, mu=0.1, seed=3))
    sizes = [0] * 10
    for c in part.label:
        sizes[c] += 1
    assert all(5 <= s <= 10 for s in sizes)
    assert g.n == sum(sizes)


def per_group_generate(model):
    """generate_planted with the group pairs of np.triu_indices built for
    every group on its own."""
    rng = np.random.default_rng(model.seed)
    if isinstance(model.group_size, tuple):
        lo, hi = model.group_size
        sizes = rng.integers(lo, hi + 1, size=model.l).tolist()
    else:
        sizes = [model.group_size] * model.l
    n = int(sum(sizes))
    group = np.repeat(np.arange(model.l), sizes)
    offsets = (np.cumsum(sizes) - sizes).tolist()
    r = model.inter_prob
    if r is None:
        r = derive_inter_prob(model.l, n, model.p, model.mu)
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for base, size in zip(offsets, sizes):
        upper = np.stack(np.triu_indices(size, k=1), axis=1)
        pairs.append(upper[rng.random(len(upper)) < model.p] + base)
    intra_pairs = sum(s * (s - 1) // 2 for s in sizes)
    inter_pairs = n * (n - 1) // 2 - intra_pairs
    if inter_pairs > 0 and r > 0:
        count = int(rng.binomial(inter_pairs, r))
        chosen = np.empty(0, dtype=np.int64)
        while len(chosen) < count:
            need = count - len(chosen)
            us = rng.integers(0, n, size=2 * need + 8)
            vs = rng.integers(0, n, size=2 * need + 8)
            ok = (us != vs) & (group[us] != group[vs])
            key = np.minimum(us[ok], vs[ok]) * n + np.maximum(us[ok], vs[ok])
            key = key[np.sort(np.unique(key, return_index=True)[1])]
            chosen = np.concatenate((chosen, key[~np.isin(key, chosen)][:need]))
        pairs.append(np.stack(np.divmod(np.sort(chosen), n), axis=1))
    return build_graph(n, np.concatenate(pairs)), Partition(label=tuple(group.tolist()))


@pytest.mark.parametrize("sizes", [(2, 3), (2, 9), (5, 10), (7, 7)])
def test_generate_mixed_sizes_match_the_per_group_loop(sizes):
    # repeated sizes share one pair table; the draws keep their order
    for seed in range(6):
        for p, mu in ((0.7, 0.2), (1.0, 0.0), (0.3, 0.5)):
            model = PlantedModel(l=12, group_size=sizes, p=p, mu=mu, seed=seed)
            graph, truth = generate_planted(model)
            want_graph, want_truth = per_group_generate(model)
            assert graph == want_graph and truth == want_truth


def test_generate_edge_count_band():
    # 20 trials of the l=10, size 10, p=0.8, mu=0.1 row
    model = PlantedModel(l=10, group_size=10, p=0.8, mu=0.1, seed=0)
    total = 0
    for i in range(20):
        g, _ = generate_planted(model.with_seed(i))
        total += g.m
    assert 400 <= total / 20 <= 520


def test_inter_prob_override():
    model = PlantedModel(l=10, group_size=10, p=0.8, mu=0.1, seed=0, inter_prob=0.0)
    g, part = generate_planted(model)
    for lo, hi in g.edges:
        assert part.label[lo] == part.label[hi]


def test_partition_from_single_cluster():
    g = graph_from("a b\nb c\nc a")
    part = clusters_to_node_partition(g, [frozenset(range(3))])
    assert len(set(part.label)) == 1


def test_partition_no_clusters():
    g = graph_from("a b\nb c")
    part = clusters_to_node_partition(g, [])
    assert len(set(part.label)) == g.n


def test_partition_cut_vertex_goes_to_lower_id():
    text = "a0 a1\na0 a2\na0 a3\na1 a2\na1 a3\na2 a3\n"
    g = graph_from(text + text.replace("a", "b").replace("b0", "a3"))
    fam = strong_truss_family(k_classes(g, edge_supports(g)))
    clusters = strong_trusses_at(fam, 4)
    part = clusters_to_node_partition(g, clusters)
    cut = g.labels.index("a3")
    assert part.label[cut] == 0
    blocks = part.blocks()
    assert sorted(len(b) for b in blocks.values()) == [3, 4]


def test_partition_higher_level_wins():
    g = graph_from("a b\nb c\nc d")
    clusters = [frozenset([0]), frozenset([1])]
    low_first = clusters_to_node_partition(g, clusters, levels=[2, 5])
    b = g.labels.index("b")
    assert low_first.label[b] == 1  # vertex b touches both; level 5 wins


def test_nmi_identical():
    a = Partition((0, 0, 1, 1, 2, 2))
    assert nmi(a, a) == 1.0


def test_nmi_relabel_invariant():
    a = Partition((0, 0, 1, 1, 2, 2))
    b = Partition((7, 7, 3, 3, 9, 9))
    assert nmi(a, b) == pytest.approx(1.0)


def test_nmi_single_block_vs_split():
    assert nmi(Partition((0,) * 4), Partition((0, 0, 1, 1))) == 0.0


def test_nmi_independent_two_by_two():
    assert nmi(Partition((0, 0, 1, 1)), Partition((0, 1, 0, 1))) == 0.0


def test_nmi_both_trivial():
    assert nmi(Partition((0, 0, 0)), Partition((5, 5, 5))) == 1.0
    singles = Partition((0, 1, 2, 3))
    assert nmi(singles, Partition((4, 5, 6, 7))) == 1.0


def test_nmi_symmetry():
    a = Partition((0, 0, 1, 1, 2, 2, 0, 1))
    b = Partition((0, 1, 1, 2, 2, 0, 0, 1))
    assert abs(nmi(a, b) - nmi(b, a)) < 1e-12


def test_nmi_mismatched_universe():
    with pytest.raises(ValueError):
        nmi(Partition((0, 1)), Partition((0, 1, 2)))


def nmi_cases(count: int, seed: int):
    """Seeded partition pairs: n = 1, one block, all singletons, exactly one
    side a single block, then random labellings (some negative or wide)
    with few to many blocks."""
    rng = random.Random(seed)
    yield Partition((0,)), Partition((3,))
    yield Partition((2,) * 9), Partition((2,) * 9)
    yield Partition(tuple(range(7))), Partition(tuple(range(7, 0, -1)))
    yield Partition((0,) * 6), Partition((0, 1, 1, 2, 2, 2))
    yield Partition((5, 4, 4, 3, 3, 3)), Partition((1,) * 6)
    for _ in range(count):
        n = rng.choice((1, 2, 3, 8, 40, 400))
        a = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        b = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        if rng.random() < 0.2:
            a = [x * -1_000_003 for x in a]
        if rng.random() < 0.1:
            a, b = [0] * n, b   # one side a single block
        yield Partition(tuple(a)), Partition(tuple(b))


def test_nmi_matches_the_dict_loop_bit_for_bit():
    # the same floats, not close ones: bench rows are means of these scores
    from trusskit.bench import _nmi_scores

    cases = list(nmi_cases(320, seed=2424))
    for a, b in cases:
        assert nmi(a, b).hex() == reference_nmi(a, b).hex()
    # every pair in one pass, as a benchmark batch scores its trials
    at = np.cumsum([0, *(a.n for a, _ in cases)])
    truth = np.concatenate([a.label for a, _ in cases])
    found = np.concatenate([b.label for _, b in cases])
    got = _nmi_scores(truth, found, at)
    assert [x.hex() for x in got] == [reference_nmi(a, b).hex() for a, b in cases]


def test_perfect_recovery_at_group_size():
    model = PlantedModel(l=6, group_size=6, p=1.0, mu=0.0, seed=9)
    g, truth = generate_planted(model)
    dec = k_classes(g, edge_supports(g))
    part = clusters_to_node_partition(g, list(trusses_at(dec, 6)))
    assert nmi(truth, part) == 1.0


def test_benchmark_determinism():
    model = PlantedModel(l=6, group_size=8, p=0.8, mu=0.15, seed=4)
    r1 = run_benchmark(model, "truss", trials=5, k_range=(3, 4))
    r2 = run_benchmark(model, "truss", trials=5, k_range=(3, 4))
    assert r1.rows == r2.rows
    assert r1.to_tsv() == r2.to_tsv()
    assert r1.mean_m == r2.mean_m


def test_benchmark_methods_run():
    model = PlantedModel(l=4, group_size=6, p=0.9, mu=0.1, seed=2)
    for method in ("truss", "strong", "summit", "strong-summit"):
        report = run_benchmark(model, method, trials=3, k_range=(3, 4))
        assert report.rows
        for row in report.rows:
            assert 0.0 <= row.mean_nmi <= 1.0
    with pytest.raises(ValueError):
        run_benchmark(model, "modularity", trials=1)


def test_report_summary_layout():
    model = PlantedModel(l=4, group_size=6, p=0.9, mu=0.1, seed=2)
    report = run_benchmark(model, "truss", trials=2, k_range=(3, 4, 5))
    text = report.summary()
    assert "k:" in text and "NMI:" in text
    assert math.isclose(report.mean_n, 24.0)


def loop_partition(graph, clusters, levels=None):
    """clusters_to_node_partition as a loop over every cluster's edges."""
    best: dict[int, tuple[int, int]] = {}  # vertex -> (-level, cluster id)
    for ci, edge_set in enumerate(clusters):
        level = levels[ci] if levels is not None else 0
        for eid in edge_set:
            for v in graph.edges[eid]:
                key = (-level, ci)
                if v not in best or key < best[v]:
                    best[v] = key
    label, next_free = [], len(clusters)
    for v in range(graph.n):
        if v in best:
            label.append(best[v][1])
        else:
            label.append(next_free)
            next_free += 1
    return Partition(label=tuple(label))


def test_partition_matches_the_loop():
    rng = random.Random(2020)
    for _, g in random_graphs(150, 18, seed=2121):
        clusters = [
            rng.sample(range(g.m), rng.randint(1, min(g.m, 6))) for _ in range(rng.randint(0, 6))
        ]
        # few distinct levels, so ties between clusters are common
        levels = [rng.randint(2, 4) for _ in clusters]
        assert clusters_to_node_partition(g, clusters) == loop_partition(g, clusters)
        assert clusters_to_node_partition(g, clusters, levels) == loop_partition(g, clusters, levels)


@pytest.mark.parametrize("method", ["truss", "strong"])
def test_benchmark_scores_match_the_per_level_loop(method):
    # exact floats: the descent's labels give the same blocks, in the same
    # order of first appearance, as the per-level cuts
    for seed in (1, 2, 3, 11):
        model = PlantedModel(l=6, group_size=10, p=0.8, mu=0.3, seed=seed)
        # every level; levels past k_max; unsorted with a repeat
        for k_range in (None, range(2, 13), (5, 3, 9, 3)):
            report = run_benchmark(model, method, trials=3, k_range=k_range)
            assert report.rows == reference_benchmark_rows(model, method, 3, k_range)


@pytest.mark.parametrize("method", ["truss", "strong"])
def test_benchmark_refuses_k_below_2_before_the_first_trial(method, monkeypatch):
    import trusskit.bench as bench

    def no_trial(model):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(bench, "generate_planted", no_trial)
    model = PlantedModel(l=4, group_size=6, p=0.9, mu=0.1, seed=2)
    with pytest.raises(ValueError, match="k must be at least 2"):
        run_benchmark(model, method, trials=2, k_range=(4, 1))


# a model with no edges; one whose trials have edges but no triangle; mixed
# group sizes; trials whose k_max ranges below and above the fixed levels
BATCH_MODELS = (
    PlantedModel(l=3, group_size=4, p=0.0, mu=0.0, seed=1),
    PlantedModel(l=6, group_size=2, p=1.0, mu=0.0, seed=2),
    PlantedModel(l=5, group_size=(3, 9), p=0.7, mu=0.3, seed=3),
    PlantedModel(l=6, group_size=10, p=0.8, mu=0.3, seed=4),
)
BATCH_TRIALS = 7


def trial_triangles(model, trials):
    return [
        len(edge_supports(generate_planted(model.with_seed(model.seed + i))[0]).triangles)
        for i in range(trials)
    ]


@pytest.mark.parametrize("split", ["one per batch", "uneven", "all in one"])
@pytest.mark.parametrize("model", BATCH_MODELS, ids=["no-edges", "no-triangles", "mixed", "fixed"])
def test_batches_score_like_trials_alone(model, split, monkeypatch):
    # exact floats: each trial's labels are a slice of its batch's, with the
    # same blocks met in the same vertex order as when it is scored alone
    import trusskit.bench as bench

    counts = trial_triangles(model, BATCH_TRIALS)
    edges = sum(generate_planted(model.with_seed(model.seed + i))[0].m for i in range(BATCH_TRIALS))
    budget = {"one per batch": 0, "uneven": sum(counts[:3]), "all in one": sum(counts) + 1}[split]
    monkeypatch.setattr(bench, "BATCH_TRIANGLES", budget)
    batches = []
    union = bench._union

    def counted(trials):
        batches.append(len(trials))
        joined = union(trials)
        assert joined.graph.weight_code is None   # generated trials weigh 1 per edge
        return joined

    monkeypatch.setattr(bench, "_union", counted)
    for method in ("truss", "strong", "summit", "strong-summit"):
        for k_range in (None, (9, 3, 8, 3, 2)):
            batches.clear()
            report = run_benchmark(model, method, trials=BATCH_TRIALS, k_range=k_range)
            assert report.rows == reference_benchmark_rows(model, method, BATCH_TRIALS, k_range)
            assert report.mean_m * BATCH_TRIALS == edges
            if split == "all in one":
                assert batches == [BATCH_TRIALS]
            elif split == "one per batch" or not budget:
                assert batches == [1] * BATCH_TRIALS
            else:
                assert batches[0] == 3 and len(set(batches)) > 1 and sum(batches) == BATCH_TRIALS


def test_batches_build_each_trial_graph_once(monkeypatch):
    # the union is assembled from the trials' arrays, so build_graph (and the
    # tracer's graph.n and graph.m) see the trials alone
    import trusskit.bench as bench

    built = []
    original = bench.build_graph
    monkeypatch.setattr(bench, "build_graph", lambda *a, **k: built.append(a[0]) or original(*a, **k))
    monkeypatch.setattr(bench, "BATCH_TRIANGLES", 1 << 30)
    model = PlantedModel(l=4, group_size=6, p=0.9, mu=0.1, seed=2)
    run_benchmark(model, "summit", trials=5)
    assert built == [24] * 5

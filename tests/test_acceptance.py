"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them inline).
Benchmark rows reproduce the planted-partition reference results; where a
row's mixing label and its reported edge count disagree, the generator is
pinned to the reported edge count via the explicit inter-group probability.
"""

import time

import pytest

from trusskit import (
    PlantedModel,
    brute_force_rectangles,
    brute_force_supports,
    build_etp_graph,
    build_graph,
    edge_supports,
    iterative_deletion_oracle,
    k_classes,
    rectangle_supports,
    run_benchmark,
    strong_trapezes_at,
    summit_trusses,
    trapezes_at,
    trim,
    trusses_at,
    weighted_k_classes,
)
from trusskit.graph import edge_nodes
from trusskit.weighted import TriangleWeightSpec
from conftest import complete_bipartite, complete_graph, cycle_graph, graph_from, random_graphs

# the 10-group/size-10 reference row: the reported average edge count (~426)
# fixes the inter-group probability at (426 - 360) / 4500
ROW1_INTER = 66 / 4500
# the 1000-group scale row reports ~426k edges: (426k - 152k) / inter pairs
SCALE_INTER = 274_000 / 199_810_000


def report(flag: bool, line: str) -> bool:
    print(("PASS " if flag else "FAIL ") + line)
    return flag


def test_criterion_1_dolphin_fixture(dolphins):
    started = time.perf_counter()
    dec = k_classes(dolphins, edge_supports(dolphins))
    t3 = trusses_at(dec, dolphins, 3)
    t4 = trusses_at(dec, dolphins, 4)
    t5 = trusses_at(dec, dolphins, 5)
    elapsed = time.perf_counter() - started

    cliques = 0
    for member in t4:
        nodes = len(edge_nodes(dolphins, member))
        if len(member) == nodes * (nodes - 1) // 2:
            cliques += 1
    shapes = sorted((len(edge_nodes(dolphins, m)), len(m)) for m in t5)
    ok = (
        dolphins.n == 62
        and len(t3) == 1
        and len(t4) == 4
        and cliques == 1
        and shapes == [(5, 10), (6, 14)]
        and 6 not in dec.classes
        and elapsed < 1.0
    )
    assert report(ok, f"criterion 1: dolphin fixture trusses exact ({elapsed:.2f}s)")


def test_criterion_2_planted_truss_bands():
    model = PlantedModel(
        l=10, group_size=10, p=0.8, mu=0.1, seed=0, inter_prob=ROW1_INTER
    )
    rep = run_benchmark(model, "truss", trials=20, k_range=(3, 4))
    at3 = rep.row("truss", 3).mean_nmi
    at4 = rep.row("truss", 4).mean_nmi
    ok = 0.88 <= at4 <= 1.00 and 0.50 <= at3 <= 0.75 and rep.seconds_per_trial < 1.0
    assert report(
        ok,
        f"criterion 2: planted 10x10 truss@4={at4:.3f} truss@3={at3:.3f} "
        f"({rep.seconds_per_trial * 1000:.0f} ms/trial)",
    )


def test_criterion_3_planted_strong_bands():
    model = PlantedModel(
        l=10, group_size=10, p=0.8, mu=0.1, seed=0, inter_prob=ROW1_INTER
    )
    rep = run_benchmark(model, "strong", trials=20, k_range=(3, 4))
    at3 = rep.row("strong", 3).mean_nmi
    at4 = rep.row("strong", 4).mean_nmi
    ok = at4 >= 0.95 and at3 >= 0.80
    assert report(ok, f"criterion 3: planted 10x10 strong@4={at4:.3f} strong@3={at3:.3f}")


def test_criterion_4_summit_band_20_groups():
    model = PlantedModel(l=20, group_size=20, p=0.8, mu=0.1, seed=0)
    rep = run_benchmark(model, "summit", trials=20)
    score = rep.row("summit").mean_nmi
    ok = 0.85 <= score <= 1.00
    assert report(ok, f"criterion 4: planted 20x20 summit NMI={score:.3f}")


def test_criterion_5_summit_dominates_mixed_sizes():
    model = PlantedModel(l=10, group_size=(5, 10), p=0.9, mu=0.55, seed=0)
    summit = run_benchmark(model, "summit", trials=20).row("summit").mean_nmi
    fixed = run_benchmark(model, "truss", trials=20, k_range=range(3, 9))
    cells = {row.k: row.mean_nmi for row in fixed.rows}
    ok = all(summit > value for value in cells.values())
    best = max(cells.values())
    assert report(
        ok, f"criterion 5: mixed sizes summit={summit:.3f} > best fixed {best:.3f}"
    )


def test_criterion_6_scale_smoke():
    model = PlantedModel(
        l=1000, group_size=20, p=0.8, mu=0.5, seed=11, inter_prob=SCALE_INTER
    )
    from trusskit import clusters_to_node_partition, generate_planted, nmi

    scores = []
    worst = 0.0
    edge_counts = []
    for trial in range(3):
        graph, truth = generate_planted(model.with_seed(model.seed + trial))
        edge_counts.append(graph.m)
        started = time.perf_counter()
        dec = k_classes(graph, edge_supports(graph))
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        part = clusters_to_node_partition(
            graph, list(trusses_at(dec, graph, 4))
        )
        scores.append(nmi(truth, part))
    mean = sum(scores) / len(scores)
    ok = worst < 120.0 and mean >= 0.98
    assert report(
        ok,
        f"criterion 6: scale row m~{sum(edge_counts)//3} decomposition "
        f"max {worst:.1f}s, truss@4 NMI={mean:.4f} over 3 trials",
    )


def test_criterion_7a_support_oracles():
    for _, g in random_graphs(200, 40, seed=21):
        assert edge_supports(g).sup == brute_force_supports(g).sup
    for _, g in random_graphs(170, 25, seed=22):
        assert rectangle_supports(build_etp_graph(g)) == brute_force_rectangles(g)
    import random as _random

    rng = _random.Random(23)
    for _ in range(30):
        a, b = rng.randint(2, 7), rng.randint(2, 9)
        edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.5]
        if not edges:
            continue
        g = build_graph(a + b, edges)
        assert rectangle_supports(build_etp_graph(g)) == brute_force_rectangles(g)
    assert report(True, "criterion 7a: 200+200 support oracle equivalences exact")


def test_criterion_7b_truss_oracle():
    for _, g in random_graphs(200, 30, seed=24):
        dec = k_classes(g, edge_supports(g))
        for k in range(2, dec.k_max + 2):
            fast = sorted(sorted(m) for m in trusses_at(dec, g, k))
            slow = sorted(sorted(m) for m in iterative_deletion_oracle(g, k))
            assert fast == slow
    assert report(True, "criterion 7b: peel vs deletion oracle exact on 200 graphs")


def test_criterion_7c_weighted_reduction():
    spec = TriangleWeightSpec("minimum", 1)
    for _, g in random_graphs(100, 30, seed=25):
        assert weighted_k_classes(g, spec).phi == k_classes(g, edge_supports(g)).phi
    assert report(True, "criterion 7c: unit-weight reduction exact on 100 graphs")


def test_criterion_8_observation_suites():
    fixtures = [
        complete_graph(5),
        complete_graph(6),
        complete_bipartite(3, 4),
        graph_from("a b\na c\na d\nb c\nb d\nc d\nd e"),
    ]
    graphs = fixtures + [g for _, g in random_graphs(100, 24, seed=26)]
    for g in graphs:
        dec = k_classes(g, edge_supports(g))
        previous = None
        for k in range(dec.k_max, 1, -1):
            members = trusses_at(dec, g, k)
            flat = [e for m in members for e in m]
            assert len(flat) == len(set(flat))  # fixed-k disjointness
            nodes = [v for m in members for v in edge_nodes(g, m)]
            assert len(nodes) == len(set(nodes))
            if previous is not None:  # nesting into k-1
                for small in previous:
                    assert any(small <= big for big in members)
            previous = members
            if k >= 3:
                for member in members:  # internal degree >= k-1
                    inside: dict[int, int] = {}
                    for e in member:
                        lo, hi = g.edges[e]
                        inside[lo] = inside.get(lo, 0) + 1
                        inside[hi] = inside.get(hi, 0) + 1
                    assert min(inside.values()) >= k - 1
        seen: set[int] = set()
        for member in summit_trusses(dec, g):
            assert not (member & seen)  # summit edge-disjointness
            seen |= member
        # every k-truss (k in 4..6) survives the rectangle trim at (k-2)(k-3)
        for k in (4, 5, 6):
            if k > dec.k_max:
                continue
            survivors = set(trim(build_etp_graph(g), (k - 2) * (k - 3)).tolist())
            for member in trusses_at(dec, g, k):
                assert member <= survivors
        # trapeze nesting and disjointness over a short ladder
        etp = build_etp_graph(g)
        prev_members = None
        for k in (1, 2, 3):
            members = trapezes_at(g, etp, k)
            flat = [e for m in members for e in m]
            assert len(flat) == len(set(flat))
            if prev_members is not None:
                for small in members:
                    assert any(small <= big for big in prev_members)
            prev_members = members
    assert report(True, "criterion 8: observation suites hold on 104 graphs")


def test_criterion_9_trapeze_fixtures():
    k5 = complete_graph(5)
    ok = len(trapezes_at(k5, build_etp_graph(k5), 6)) == 1
    ok &= trapezes_at(k5, build_etp_graph(k5), 7) == ()

    k33 = complete_bipartite(3, 3)
    ts = trapezes_at(k33, build_etp_graph(k33), 4)
    ok &= len(ts) == 1 and len(ts[0]) == 9

    c4 = cycle_graph(4)
    ok &= len(trapezes_at(c4, build_etp_graph(c4), 1)) == 1
    ok &= trapezes_at(c4, build_etp_graph(c4), 2) == ()

    bowtie = graph_from("a b\nb c\nc d\nd a\nd e\ne f\nf g\ng d")
    ok &= len(trapezes_at(bowtie, build_etp_graph(bowtie), 1)) == 1
    strong = strong_trapezes_at(bowtie, build_etp_graph(bowtie), 1)
    ok &= sorted(len(m) for m in strong) == [4, 4]
    assert report(ok, "criterion 9: trapeze fixtures exact")

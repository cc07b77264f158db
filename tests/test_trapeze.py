import random
from itertools import chain, combinations

import numpy as np
import pytest

from trusskit import (
    brute_force_rectangles,
    build_etp_graph,
    build_graph,
    edge_supports,
    induced_edge_subgraph,
    k_classes,
    rectangle_supports,
    strong_trapezes_at,
    trapeze_level_run,
    trapezes_at,
    trim,
    trusses_at,
    vertex_ranking,
)
import trusskit.trapeze
from trusskit.trapeze import LOW_APEX, MEDIAN_APEX, _stable_sort
from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_from,
    level_pairs,
    random_graphs,
    reference_level_summits,
    traced_peak,
)


def test_c4_structure():
    etp = build_etp_graph(cycle_graph(4))
    triads = etp.alive_triads()
    assert len(triads) == 2
    assert sorted(t[3] for t in triads) == [LOW_APEX, MEDIAN_APEX]
    degrees = etp.alive_periphery_degrees()
    assert list(degrees.values()) == [2]


def test_path_prunes_to_nothing():
    g = graph_from("a b\nb c\nc d")
    etp = build_etp_graph(g)
    assert etp.alive_triads() == []
    assert not etp.edge_alive.any()


def test_k23_periphery():
    etp = build_etp_graph(complete_bipartite(2, 3))
    degrees = etp.alive_periphery_degrees()
    assert list(degrees.values()) == [3]
    total = sum(d * (d - 1) // 2 for d in degrees.values())
    assert total == 3


def test_rectangle_supports_examples():
    assert rectangle_supports(build_etp_graph(cycle_graph(4))) == [1, 1, 1, 1]
    assert rectangle_supports(build_etp_graph(complete_graph(5))) == [6] * 10
    assert rectangle_supports(build_etp_graph(complete_bipartite(3, 3))) == [4] * 9


def test_oracle_examples():
    c4 = brute_force_rectangles(cycle_graph(4))
    assert sum(c4) == 4  # one rectangle, four edge slots
    k4 = brute_force_rectangles(complete_graph(4))
    assert k4 == [2] * 6 and sum(k4) // 4 == 3
    k5 = brute_force_rectangles(complete_graph(5))
    assert k5 == [6] * 10 and sum(k5) // 4 == 15


def test_supports_match_oracle():
    for _, g in random_graphs(60, 25, seed=1313):
        assert rectangle_supports(build_etp_graph(g)) == brute_force_rectangles(g)


def test_bipartite_supports_match_oracle():
    rng = random.Random(14)
    for _ in range(30):
        a, b = rng.randint(2, 6), rng.randint(2, 8)
        edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.5]
        if not edges:
            continue
        g = build_graph(a + b, edges)
        assert rectangle_supports(build_etp_graph(g)) == brute_force_rectangles(g)


def test_unique_representation_totals():
    for _, g in random_graphs(40, 20, seed=1414):
        etp = build_etp_graph(g)
        triad_pairs = sum(d * (d - 1) // 2 for d in etp.alive_periphery_degrees().values())
        assert triad_pairs == sum(brute_force_rectangles(g)) // 4


def test_trim_c4():
    etp = build_etp_graph(cycle_graph(4))
    assert trim(etp, 1).tolist() == [0, 1, 2, 3]
    assert trim(etp, 2).tolist() == []


def test_trim_keeps_k5_drops_c4():
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    c4 = [(5, 6), (6, 7), (7, 8), (5, 8)]
    g = build_graph(9, k5 + c4)
    etp = build_etp_graph(g)
    assert trim(etp, 2).tolist() == list(range(10))


def test_trim_monotone_contract():
    etp = build_etp_graph(complete_graph(5))
    trim(etp, 3)
    with pytest.raises(ValueError):
        trim(etp, 2)
    with pytest.raises(ValueError):
        trim(etp, 0)



def test_trapezes_at_below_the_completed_level_raise():
    # two K_{2,3} glued at a hub and bridged by one rectangle: edges fall at 2
    text = "a 0\na x1\na x2\na2 0\na2 x1\na2 x2\nb 0\nb y1\nb y2\nb2 0\nb2 y1\nb2 y2\nw a\nw b"
    g = graph_from(text)
    etp = build_etp_graph(g)
    weak, strong = trapezes_at(etp, 2), strong_trapezes_at(etp, 2)
    assert weak == trapezes_at(build_etp_graph(g), 2)
    assert not etp.edge_alive.all()
    alive, support = etp.edge_alive.copy(), etp.support.copy()
    for at in (trapezes_at, strong_trapezes_at):
        with pytest.raises(ValueError, match="below the completed level 2"):
            at(etp, 1)
        assert np.array_equal(etp.edge_alive, alive)
        assert np.array_equal(etp.support, support)
    # at the completed level the sets come back unchanged
    assert trapezes_at(etp, 2) == weak
    assert strong_trapezes_at(etp, 2) == strong
    assert np.array_equal(etp.edge_alive, alive)
    assert np.array_equal(etp.support, support)

def test_trim_idempotent():
    for _, g in random_graphs(20, 16, seed=1515):
        etp = build_etp_graph(g)
        first = trim(etp, 2).tolist()
        assert trim(etp, 2).tolist() == first


def test_trim_order_invariance():
    for idx, g in random_graphs(20, 16, seed=1616):
        baseline = trim(build_etp_graph(g), 2).tolist()
        for rs in (1, 2, 3):
            etp = build_etp_graph(g)
            assert trim(etp, 2, rng=random.Random(rs)).tolist() == baseline


def test_trim_cascade_empties_structure():
    # a 2x3 ladder: the middle rung closes both squares and starts with two
    # rectangles, but at k=2 it falls with the edges around it
    g = graph_from("t0 t1\nt1 t2\nb0 b1\nb1 b2\nt0 b0\nt1 b1\nt2 b2")
    etp = build_etp_graph(g)
    supports = rectangle_supports(etp)
    rung = g.edge_id(g.labels.index("t1"), g.labels.index("b1"))
    assert supports[rung] == 2 and sorted(supports) == [1] * 6 + [2]
    assert trim(etp, 1).tolist() == list(range(g.m))
    assert trim(etp, 2).tolist() == []
    assert etp.alive_triads() == []
    assert etp.alive_periphery_degrees() == {}


def test_edge_without_rectangles_is_plain_deletion():
    # K_{2,3} plus a tail whose triads all sit on degree-1 peripheries:
    # the tail edges fall and the K_{2,3} structure is left as it was
    tail = [(4, 5), (5, 6)]
    g = build_graph(7, [(i, 2 + j) for i in range(2) for j in range(3)] + tail)
    etp = build_etp_graph(g)
    before, triads = etp.alive_periphery_degrees(), etp.alive_triads()
    assert sum(d * (d - 1) // 2 for d in before.values()) == 3
    assert rectangle_supports(etp) == [2] * 6 + [0, 0]
    assert trim(etp, 1).tolist() == list(range(6))
    assert etp.alive_periphery_degrees() == before
    assert etp.alive_triads() == triads


def test_periphery_degree_drop_reaches_every_edge():
    # K_{2,5} minus one edge: its co-edge at the same outer vertex closes
    # no rectangle and drops; the other 8 edges read support 3 from the
    # one periphery, now of degree 4, so all of them fall at k=4
    full = complete_bipartite(2, 5)
    assert rectangle_supports(build_etp_graph(full)) == [4] * 10
    assert trim(build_etp_graph(full), 4).tolist() == list(range(10))
    g = build_graph(7, [e for e in full.edges if e != (0, 2)])
    co_edge = g.edge_id(1, 2)
    etp = build_etp_graph(g)
    supports = rectangle_supports(etp)
    assert supports[co_edge] == 0
    assert [s for e, s in enumerate(supports) if e != co_edge] == [3] * 8
    survivors = trim(etp, 3).tolist()
    assert survivors == [e for e in range(g.m) if e != co_edge]
    assert list(etp.alive_periphery_degrees().values()) == [4]
    assert trim(etp, 4).tolist() == []


def test_trapezes_k23():
    g = complete_bipartite(2, 3)
    ts = trapezes_at(build_etp_graph(g), 2)
    assert len(ts) == 1 and len(ts[0]) == 6


def test_trapezes_k5_levels():
    g = complete_graph(5)
    assert len(trapezes_at(build_etp_graph(g), 6)[0]) == 10
    assert trapezes_at(build_etp_graph(g), 7) == ()


def test_two_k4_with_bridge_cycles():
    # three parallel bridges give every bridge two rectangles, so one
    # 2-trapeze spans both cliques and the connecting structure
    k4a = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    k4b = [(4 + i, 4 + j) for i, j in k4a]
    bridges = [(0, 4), (1, 5), (2, 6)]
    g = build_graph(8, k4a + k4b + bridges)
    assert brute_force_rectangles(g)[g.edge_id(0, 4)] == 2
    ts = trapezes_at(build_etp_graph(g), 2)
    assert len(ts) == 1
    assert len(ts[0]) == g.m
    dec = k_classes(g, edge_supports(g))
    inside = trusses_at(dec, 4)
    assert len(inside) == 2 and all(m <= ts[0] for m in inside)


def test_strong_trapezes_shared_vertex():
    g = graph_from("a b\nb c\nc d\nd a\nd e\ne f\nf g\ng d")
    weak = trapezes_at(build_etp_graph(g), 1)
    assert len(weak) == 1
    strong = strong_trapezes_at(build_etp_graph(g), 1)
    assert sorted(len(m) for m in strong) == [4, 4]


def test_strong_trapezes_shared_edge():
    g = graph_from("a b\nb c\nc d\nd a\nc e\ne f\nf d")
    strong = strong_trapezes_at(build_etp_graph(g), 1)
    assert [len(m) for m in strong] == [7]


def test_strong_equals_weak_on_k23():
    g = complete_bipartite(2, 3)
    weak = trapezes_at(build_etp_graph(g), 2)
    strong = strong_trapezes_at(build_etp_graph(g), 2)
    assert weak == strong


def test_level_run_with_summits():
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    k23 = [(5 + i, 7 + j) for i in range(2) for j in range(3)]
    g = build_graph(10, k5 + k23)
    run = trapeze_level_run(g, [1, 2, 4])
    assert [len(run.weak[k]) for k in (1, 2, 4)] == [2, 2, 1]
    summits = sorted((k, len(m)) for k, m in level_pairs(run.summits))
    assert summits == [(2, 6), (4, 10)]


def test_level_run_summits_match_set_reference():
    """Summits, weak and strong trapezes of a level run, all read from its
    one level store, against the set references at every scheduled level."""
    rng = random.Random(2626)
    graphs = chain(
        random_graphs(40, 16, seed=2727),
        random_bipartite_graphs(40, seed=2828),
        glued_graphs(20, seed=2929),
    )
    below_top = 0    # summits under the last scheduled level
    for _, g in graphs:
        schedule = sorted(rng.sample(range(1, 9), rng.randint(1, 5)))
        run = trapeze_level_run(g, schedule)
        assert tuple(level_pairs(run.summits)) == reference_level_summits(g, schedule)
        below_top += sum(k < schedule[-1] for k in run.summits.level.tolist())
        etp = build_etp_graph(g)
        for k in schedule:
            assert run.weak[k] == trapezes_at(build_etp_graph(g), k)
            assert list(run.strong[k]) == rectangle_components(g, trim(etp, k).tolist())
    assert below_top >= 15


def test_level_run_first_level_empties_the_graph():
    g = complete_bipartite(3, 3)           # 4 rectangles on every edge
    assert level_pairs(trapeze_level_run(g, [4]).summits) == [(4, frozenset(range(9)))]
    run = trapeze_level_run(g, [5, 6])
    assert tuple(level_pairs(run.summits)) == reference_level_summits(g, [5, 6]) == ()


def test_level_run_rectangle_free():
    g = graph_from("a b\nb c\nc a")
    run = trapeze_level_run(g, [1, 2])
    assert all(ts == () for ts in run.weak.values())
    assert run.summits == ()


def test_level_run_rejects_bad_schedule():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        trapeze_level_run(g, [2, 2])
    with pytest.raises(ValueError):
        trapeze_level_run(g, [0, 1])
    with pytest.raises(ValueError):
        trapeze_level_run(g, [])
    with pytest.raises(ValueError, match="levels"):
        trapeze_level_run(g, [1, 2**31])


def test_counts_non_increasing_on_bipartite():
    rng = random.Random(99)
    edges = [(i, 10 + j) for i in range(10) for j in range(14) if rng.random() < 0.35]
    g = build_graph(24, edges)
    run = trapeze_level_run(g, [1, 2, 4, 8])
    sizes = [sum(len(m) for m in run.weak[k]) for k in (1, 2, 4, 8)]
    assert sizes == sorted(sizes, reverse=True)


def test_nesting_and_disjointness():
    for _, g in random_graphs(25, 18, seed=1717):
        previous = None
        etp = build_etp_graph(g)
        for k in (1, 2, 3, 4):
            members = trapezes_at(etp, k)
            flat = [e for m in members for e in m]
            assert len(flat) == len(set(flat))
            if previous is not None:
                for small in members:
                    assert any(small <= big for big in previous)
            previous = members


def test_truss_implies_trapeze():
    for _, g in random_graphs(30, 20, seed=1818):
        dec = k_classes(g, edge_supports(g))
        for k in (4, 5, 6):
            if k > dec.k_max:
                continue
            level = (k - 2) * (k - 3)
            survivors = set(trim(build_etp_graph(g), level).tolist())
            for member in trusses_at(dec, k):
                assert member <= survivors


def rectangle_deletion_oracle(g, k):
    """Survivors of trim(k) by definition: drop every edge under k
    rectangles, recounting by brute force on what is left, until none falls."""
    alive = set(range(g.m))
    while True:
        sub = induced_edge_subgraph(g, alive)
        counts = brute_force_rectangles(sub.graph)
        drop = {sub.edge_of[i] for i, c in enumerate(counts) if c < k}
        if not drop:
            return sorted(alive)
        alive -= drop


def rectangle_components(g, edge_ids):
    """Components of the "share a 4-cycle" relation among the given edges,
    from brute-force enumeration of their 4-cycles."""
    keep = set(edge_ids)
    nbr = [set() for _ in range(g.n)]
    for e in keep:
        u, v = g.edges[e]
        nbr[u].add(v)
        nbr[v].add(u)
    parent = {e: e for e in keep}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    in_cycle = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            for w1, w2 in combinations(sorted(nbr[u] & nbr[v]), 2):
                cycle = [g.edge_id(u, w1), g.edge_id(w1, v), g.edge_id(v, w2), g.edge_id(w2, u)]
                in_cycle.update(cycle)
                for e in cycle[1:]:
                    parent[find(e)] = find(cycle[0])
    groups = {}
    for e in sorted(in_cycle):
        groups.setdefault(find(e), []).append(e)
    return sorted((frozenset(m) for m in groups.values()), key=min)


def random_bipartite_graphs(count, seed):
    rng = random.Random(seed)
    made = 0
    while made < count:
        a, b = rng.randint(2, 9), rng.randint(2, 11)
        p = rng.choice((0.3, 0.5, 0.7, 0.9))
        edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]
        if edges:
            yield made, build_graph(a + b, edges)
            made += 1


def oracle_graphs():
    yield from random_graphs(40, 14, seed=2020)
    yield from random_bipartite_graphs(40, seed=2121)


def glued_graphs(count, seed):
    """Chains of random graphs, each sharing one vertex with the last, so
    their rectangle components are joined only at cut vertices."""
    rng = random.Random(seed)
    parts = [g for _, g in random_bipartite_graphs(3 * count, seed)]
    for i in range(count):
        edges, n = [], 0
        for g in parts[3 * i : 3 * i + 3]:
            base = max(n - 1, 0)                # vertex 0 of g is vertex n-1
            edges += [(base + u, base + v) for u, v in g.edges]
            n = base + g.n
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
        edges += [p for p in pairs if p[0] != p[1]]
        yield i, build_graph(n, sorted({(min(e), max(e)) for e in edges}))


def test_trim_matches_iterative_deletion_oracle():
    for _, g in oracle_graphs():
        expected = {k: rectangle_deletion_oracle(g, k) for k in range(1, 7)}
        etp = build_etp_graph(g)      # one structure through the schedule
        for k in range(1, 7):
            assert trim(etp, k).tolist() == expected[k]
            assert trim(build_etp_graph(g), k).tolist() == expected[k]
        assert trim(build_etp_graph(g), 3, rng=random.Random(5)).tolist() == expected[3]


def test_strong_trapezes_match_rectangle_components():
    for _, g in chain(oracle_graphs(), glued_graphs(40, seed=2222)):
        etp = build_etp_graph(g)
        for k in range(1, 7):
            members = strong_trapezes_at(etp, k)
            assert list(members) == rectangle_components(g, np.flatnonzero(etp.edge_alive).tolist())


def test_triad_cap_is_checked_before_building(monkeypatch):
    import trusskit.trapeze

    g = complete_graph(6)        # both low-apex and median-apex triads
    total = len(build_etp_graph(g).triads)
    assert total == 2 * 20          # C(6, 3) triples, two admissible apexes each
    monkeypatch.setattr(trusskit.trapeze, "DEFAULT_TRIAD_CAP", total)
    assert len(build_etp_graph(g).triads) == total
    monkeypatch.setattr(trusskit.trapeze, "DEFAULT_TRIAD_CAP", total - 1)
    with pytest.raises(ValueError, match=f"{total} triads, over the cap of {total - 1}"):
        build_etp_graph(g)


def test_build_memory_on_sparse_bipartite_graph():
    # 1000 x 1000 at p = 0.02: about 20k edges and 238k triads
    rng = random.Random(7)
    edges = [(i, 1000 + j) for i in range(1000) for j in range(1000) if rng.random() < 0.02]
    g = build_graph(2000, edges)
    ranking = vertex_ranking(g)
    etp, peak = traced_peak(build_etp_graph, g, ranking)
    assert len(etp.triads) > 200_000
    assert peak < 30 * 2**20


def test_strong_trapezes_split_when_the_bridging_rectangle_falls():
    # two K_{2,3} glued at hub 0, joined by the rectangle w-a-0-b. Ranked
    # below a and b, the hub is an admissible apex on periphery (a, b), so
    # at k=2 that periphery keeps the hub's triad alone once w-a and w-b
    # fall; it must close no rectangle and join nothing
    text = "a 0\na x1\na x2\na2 0\na2 x1\na2 x2\nb 0\nb y1\nb y2\nb2 0\nb2 y1\nb2 y2\nw a\nw b"
    g = graph_from(text)
    etp = build_etp_graph(g)
    assert len(strong_trapezes_at(etp, 1)) == 1
    strong = strong_trapezes_at(etp, 2)
    assert sorted(len(m) for m in strong) == [6, 6]
    assert sorted(etp.alive_periphery_degrees().values()) == [3, 3]


def recount(m, arm1, arm2, periph, npe):
    """Periphery degrees over the given triads, and each edge's rectangles:
    (degree - 1) per arm of each triad."""
    degree = np.bincount(periph, minlength=npe)
    weight = degree[periph] - 1
    return degree, np.bincount(arm1, weight, m) + np.bincount(arm2, weight, m)


def reference_trim(etp, k, rng=None):
    """The round-recount trim: every round counts each live edge's
    rectangles over all live triads and removes the edges under k, until
    none falls; then peripheries left with one triad are pruned."""
    m, alive = etp.graph.m, etp.edge_alive
    ids = np.flatnonzero(etp.triad_live)
    arm1, arm2, periph = (np.ascontiguousarray(etp.triads[ids, j]) for j in range(3))
    opens = np.ones(len(ids), dtype=bool)
    np.not_equal(periph[1:], periph[:-1], out=opens[1:])
    periph_of = periph[opens]
    periph = np.cumsum(opens, dtype=np.int32) - 1
    while True:
        degree, support = recount(m, arm1, arm2, periph, len(periph_of))
        fall = np.flatnonzero(alive & (support < k))
        if not len(fall):
            break
        if rng is not None:
            fall = np.array(rng.sample(fall.tolist(), rng.randint(1, len(fall))))
        alive[fall] = False
        keep = alive[arm1] & alive[arm2]
        ids, arm1, arm2, periph = ids[keep], arm1[keep], arm2[keep], periph[keep]
    degree[degree < 2] = 0
    etp.periph_degree[:] = 0
    etp.periph_degree[periph_of] = degree
    etp.triad_live[:] = False
    etp.triad_live[ids[degree[periph] > 0]] = True
    etp.current_k = k
    return np.flatnonzero(alive).tolist()


def random_bipartite_graphs_of_side(side, count, seed):
    rng = random.Random(seed)
    for i in range(count):
        p = (0.1, 0.2, 0.3, 0.5)[i % 4]
        edges = [(a, side + b) for a in range(side) for b in range(side) if rng.random() < p]
        yield i, build_graph(2 * side, edges)


def decrement_cases():
    yield from oracle_graphs()
    yield from glued_graphs(40, seed=2222)
    yield from random_bipartite_graphs_of_side(40, 4, seed=2323)


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_trim_decrements_match_the_round_recount(seed):
    for _, g in decrement_cases():
        etp, ref = build_etp_graph(g), build_etp_graph(g)
        rng = None if seed is None else random.Random(seed)
        ref_rng = None if seed is None else random.Random(seed)
        for k in range(1, 8):
            assert trim(etp, k, rng=rng).tolist() == reference_trim(ref, k, rng=ref_rng)
            assert etp.alive_triads() == ref.alive_triads()
            assert etp.alive_periphery_degrees() == ref.alive_periphery_degrees()
            # the kept counts are what a recount of the live triads gives
            live = etp.triads[etp.triad_live]
            _, support = recount(g.m, live[:, 0], live[:, 1], live[:, 2], len(etp.periph_key))
            kept = etp.support
            assert np.array_equal(kept[etp.edge_alive], support[etp.edge_alive])


def test_etp_rows_match_a_stable_argsort(monkeypatch):
    def argsort_reference(key, bound):
        order = np.argsort(key, kind="stable")
        return key[order], order

    rng = random.Random(7)
    edges = [(i, 300 + j) for i in range(300) for j in range(300) if rng.random() < 0.05]
    graphs = [g for _, g in oracle_graphs()] + [build_graph(600, edges)]
    built = [build_etp_graph(g) for g in graphs]
    monkeypatch.setattr(trusskit.trapeze, "_stable_sort", argsort_reference)
    for g, etp in zip(graphs, built):
        ref = build_etp_graph(g)
        assert np.array_equal(etp.triads, ref.triads)
        assert np.array_equal(etp.periph_key, ref.periph_key)
        assert np.array_equal(etp.periph_degree, ref.periph_degree)


def test_stable_sort_packs_keys_or_falls_back():
    rng = np.random.default_rng(5)
    small = rng.integers(0, 40, 5000)
    # packed keys up to bound * rows - 1, just under 2^63
    rows = 4
    edge = (2**63 - 1) // rows
    near_edge = np.array([edge - 1, edge - 3, edge - 1, edge - 2], dtype=np.int64)
    # bound * rows >= 2^63: the stable argsort
    big = (1 << 62) + rng.integers(0, 40, 5000)
    pair = np.array([(1 << 62) + 3, (1 << 62) + 1], dtype=np.int64)
    cases = ((small, 40), (near_edge, edge), (big, (1 << 62) + 40), (pair, (1 << 62) + 4), (small[:0], 1))
    for key, bound in cases:
        order = np.argsort(key, kind="stable")
        keys, got = _stable_sort(key, bound)
        assert np.array_equal(got, order)
        assert np.array_equal(keys, key[order])

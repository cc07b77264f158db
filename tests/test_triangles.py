import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import trusskit.triangles as triangles_module
from trusskit import (
    PlantedModel,
    build_graph,
    edge_supports,
    generate_planted,
    vertex_ranking,
)
from trusskit.bench import _union
from trusskit.graph import VertexRanking
from trusskit.triangles import triangle_list
from oracles import brute_force_supports, degree, edge_label_pair
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
    by_pair = {edge_label_pair(g, e): sup.sup[e] for e in range(g.m)}
    assert by_pair[("a", "b")] == 2
    assert all(v == 1 for pair, v in by_pair.items() if pair != ("a", "b"))


def test_er_30_fast_equals_oracle():
    g = er_graph(30, 0.3, seed=12345)
    assert edge_supports(g).sup == brute_force_supports(g).sup


def test_support_bounds_and_total(dolphins):
    sup = edge_supports(dolphins)
    for eid, (lo, hi) in enumerate(dolphins.edges):
        assert sup.sup[eid] <= min(degree(dolphins, lo), degree(dolphins, hi)) - 1
    assert sum(sup.sup) == 3 * sup.total_triangles()
    assert sup.sup == brute_force_supports(dolphins).sup


def test_oracle_equivalence_sample():
    for _, g in random_graphs(60, 40, seed=202):
        assert edge_supports(g).sup == brute_force_supports(g).sup


def test_ranking_choice_does_not_change_counts():
    # bucket under a (degree, internal id) order instead of (degree, label)
    for _, g in random_graphs(25, 20, seed=303):
        order = sorted(range(g.n), key=lambda v: (degree(g, v), v))
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

    def no_table(n, wedges):
        raise AssertionError("the closing-edge table was sized")

    # the cap is checked before the table is sized or allocated
    monkeypatch.setattr(triangles_module, "_table_rows", no_table)
    with pytest.raises(ValueError, match=r"test 20 wedges, over the cap of 19"):
        edge_supports(k6)


# -- closing edges by table and by binary search ------------------------------


def _listed(g, rows=None, chunk=None, rule=True):
    """triangle_list with `rows` table rows (TABLE_CELLS = rows * n) and
    WEDGE_CHUNK = chunk, each left as is when None. rule=False uses the
    table whenever it has a row, whatever the pay-off rule says. Returns
    the list, the rows the listing used and its number of chunks."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(triangles_module, "TABLE_CELLS", rows * g.n)
        if chunk is not None:
            mp.setattr(triangles_module, "WEDGE_CHUNK", chunk)
        chosen = triangles_module._table_rows if rule else (
            lambda n, wedges: min(triangles_module.TABLE_CELLS // n, n)
        )
        sized = []

        def table_rows(n, wedges):
            sized.append(chosen(n, wedges))
            return sized[-1]

        mp.setattr(triangles_module, "_table_rows", table_rows)
        listed = triangle_list(g)
        chunks = len(list(triangles_module._triangle_chunks(g, vertex_ranking(g)))) if g.m else 0
    return listed, (sized or [None])[0], chunks


def _searched(g):
    """The list by binary search alone: a table of no row."""
    listed, rows, _ = _listed(g, rows=0)
    assert rows == (0 if g.m else None)
    return listed


def _reference(graph):
    """The listing before the closing-edge table, kept as the reference for
    row order: `first` repeated per wedge and one binary search per wedge."""
    if graph.m == 0:
        return np.empty((0, 3), dtype=np.int32)
    n, m = graph.n, graph.m
    rank = np.asarray(vertex_ranking(graph).rank, dtype=np.int32)
    ends = rank[graph.ends]
    # oriented edge v->a, v ranked below a, as key v*n + a, sorted
    key = ends.min(axis=1).astype(np.int64) * n + ends.max(axis=1)
    del ends
    eid = np.argsort(key).astype(np.int32)
    key = key[eid]
    dst = (key % n).astype(np.int32)
    outdeg = np.bincount(key // n, minlength=n)
    start = np.cumsum(outdeg) - outdeg
    ends_at = np.cumsum(outdeg[dst])     # v->a opens |out(a)| wedges

    chunks = []
    lo = 0
    while lo < m:
        base = int(ends_at[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends_at, base + (1 << 17), "right")), lo + 1)
        reps = np.diff(ends_at[lo:hi], prepend=base)
        first = np.repeat(np.arange(lo, hi), reps)                      # v->a
        offs = np.arange(len(first)) - np.repeat(ends_at[lo:hi] - reps - base, reps)
        second = start[dst[first]] + offs                                # a->b
        closing = key[first] - dst[first] + dst[second]                  # v->b, if present
        third = np.searchsorted(key, closing)
        np.minimum(third, m - 1, out=third)
        hit = key[third] == closing
        chunks.append(np.stack((eid[first[hit]], eid[second[hit]], eid[third[hit]]), axis=1))
        lo = hi
    return np.concatenate(chunks)


def _as_before(listed, g):
    expected = _reference(g)
    return listed.dtype == expected.dtype == np.int32 and np.array_equal(listed, expected)


def _lookup_cases(dolphins):
    cases = [dolphins, complete_graph(5), complete_graph(6), cycle_graph(7), build_graph(3, [])]
    cases += [g for _, g in random_graphs(30, 30, seed=1717)]
    model = PlantedModel(l=6, group_size=8, p=0.8, mu=0.3, seed=5)
    cases.append(generate_planted(model)[0])
    # a three-trial disjoint union, as the benchmark scores a batch
    trials = [generate_planted(model.with_seed(5 + i)) for i in range(3)]
    cases.append(_union([(g, truth, edge_supports(g)) for g, truth in trials]).graph)
    return cases


# rows per table and wedges per chunk: (None, None) are the module's budgets
BUDGETS = {
    "default": (None, None),
    "table budget": (3, 1 << 30),
    "wedge budget": (1 << 12, 8),
    "split sources": (5, 1),
}


@pytest.mark.parametrize("budget", BUDGETS)
def test_table_lists_what_binary_search_lists(dolphins, budget):
    rows, chunk = BUDGETS[budget]
    for g in _lookup_cases(dolphins):
        assert _as_before(_searched(g), g)
        listed, used, _ = _listed(g, rows, chunk, rule=False)
        assert _as_before(listed, g)
        assert _as_before(_listed(g, rows, chunk)[0], g)
        assert g.m == 0 or used == min(rows or triangles_module.TABLE_CELLS // g.n, g.n)


def _wedge_heads(g):
    """Per source vertex, how many of its out-edges open a wedge."""
    rank = vertex_ranking(g).rank
    out = [[] for _ in range(g.n)]
    for u, w in g.edges:
        v, a = sorted((u, w), key=rank.__getitem__)
        out[v].append(a)
    return [sum(1 for a in heads if out[a]) for heads in out]


def test_each_budget_closes_chunks(dolphins):
    _, rows, one = _listed(dolphins, rows=1 << 12, chunk=1 << 30, rule=False)
    assert (rows, one) == (dolphins.n, 1)
    # three rows per chunk and no wedge budget: the table closes the chunks
    _, rows, chunks = _listed(dolphins, rows=3, chunk=1 << 30, rule=False)
    assert rows == 3 and chunks > 1
    # a table for the whole graph: only the wedge budget closes chunks
    _, rows, chunks = _listed(dolphins, rows=1 << 12, chunk=8, rule=False)
    assert rows == dolphins.n and chunks > 1
    # a one-wedge chunk holds at most one edge that opens a wedge, so a
    # source with two such out-edges has them split across chunks
    heads = _wedge_heads(dolphins)
    assert max(heads) >= 2
    _, rows, chunks = _listed(dolphins, rows=5, chunk=1, rule=False)
    assert rows == 5 and chunks >= sum(heads)


def test_table_rows_rule():
    cells = triangles_module.TABLE_CELLS
    rule = triangles_module._table_rows
    # a table for the whole graph adds no chunk: used even with no wedge
    assert rule(1, 0) == 1 and rule(1000, 0) == 1000
    # no room for one row of n columns: binary search
    assert rule(cells + 1, 1 << 40) == 0
    # the benchmark's 20,000-vertex graph: 52 rows per chunk
    assert rule(20_000, 6_000_045) == cells // 20_000 == 52
    # 200,000 vertices and 10^6 wedges: 5 rows per chunk do not pay (on such
    # a planted graph, with 1.45M wedges, the table took 12.5 times as long)
    assert rule(200_000, 10**6) == 0
    # the pay-off boundary: the table's extra chunks against the wedges
    n = 10_000
    rows = cells // n
    edge = -(-(n - rows) * 2048 // rows)
    assert (rule(n, edge), rule(n, edge - 1)) == (rows, 0)


def test_large_n_lists_by_binary_search(dolphins):
    # TABLE_CELLS below n leaves no row; so does a row budget too small to pay
    for rows in (0, 4):
        listed, used, _ = _listed(dolphins, rows=rows)
        assert used == 0
        assert _as_before(listed, dolphins)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [p for p, keep in zip(pairs, chosen) if keep])


@given(
    small_graphs(),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=200),
    st.booleans(),
)
def test_any_budget_lists_what_binary_search_lists(g, rows, chunk, rule):
    listed, _, _ = _listed(g, rows, chunk, rule)
    assert _as_before(listed, g)

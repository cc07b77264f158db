import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from trusskit import (
    EdgeListParseError,
    Graph,
    build_etp_graph,
    build_graph,
    clusters_to_node_partition,
    edge_supports,
    generate_planted,
    k_classes,
    load_edge_list,
    nmi,
    strong_truss_family,
    strong_trusses_at,
    trapezes_at,
    trim,
    trusses_at,
)
from trusskit.bench import BenchmarkRow

DATA = Path(__file__).parent / "data"


def graph_from(text: str, weighted: bool = False) -> Graph:
    return load_edge_list(io.StringIO(text), weighted=weighted)


def reference_load_edge_list(stream, weighted: bool = False) -> Graph:
    """The edge-list loader as one dict pass: each line's pair is looked up
    in a dict of canonical pairs that keeps the first appearance and the
    maximum weight."""
    ids: dict[str, int] = {}
    labels: list[str] = []
    found: dict[tuple[int, int], Fraction | int] = {}

    def vid(token: str) -> int:
        i = ids.get(token)
        if i is None:
            i = len(labels)
            ids[token] = i
            labels.append(token)
        return i

    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if weighted:
            if len(tokens) not in (2, 3):
                raise EdgeListParseError(lineno, f"expected 2 or 3 tokens, got {len(tokens)}")
        elif len(tokens) != 2:
            raise EdgeListParseError(lineno, f"expected 2 tokens, got {len(tokens)}")
        u, v = vid(tokens[0]), vid(tokens[1])
        if u == v:
            continue
        if weighted and len(tokens) == 3:
            try:
                w = Fraction(tokens[2])
            except (ValueError, ZeroDivisionError):
                raise EdgeListParseError(lineno, f"bad weight {tokens[2]!r}") from None
            if w <= 0:
                raise EdgeListParseError(lineno, f"non-positive weight {tokens[2]}")
        else:
            w = 1
        key = (u, v) if u < v else (v, u)
        prev = found.get(key)
        if prev is None or w > prev:
            found[key] = w

    pairs = list(found)
    return build_graph(len(labels), pairs, [found[p] for p in pairs], labels)


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def er_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def random_graphs(count: int, max_n: int, seed: int, densities=(0.05, 0.2, 0.4, 0.6, 0.9)):
    """Seeded stream of (index, Graph) pairs spanning sizes and densities."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(4, max_n)
        p = rng.choice(densities)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if not edges:
            continue
        yield made, build_graph(n, edges)
        made += 1


@pytest.fixture(scope="session")
def dolphins() -> Graph:
    with open(DATA / "dolphins.tsv", encoding="utf-8") as handle:
        return load_edge_list(handle)


def weighted_graphs(count: int, max_n: int, seed: int, top: int = 1000):
    """Seeded random graphs with integer weights 1..top on their edges, so
    weighted trussness spreads over many distinct levels."""
    rng = random.Random(seed)
    for _, g in random_graphs(count, max_n, seed):
        yield build_graph(g.n, g.edges, [rng.randint(1, top) for _ in range(g.m)])


class DisjointSet:
    """Union-find with path halving and union by size; the references'
    replays run on it."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> int:
        """Merge the sets of a and b; returns the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def together(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


def reference_clusters_at(family, k: int, min_size: int = 1) -> list[frozenset[int]]:
    """Clusters alive at level k by replaying the merge log's rows of level
    >= k over the leaves, ordered by cluster id."""
    nleaf = len(family.leaf_edges)
    ds = DisjointSet(nleaf)
    cid = list(range(nleaf))
    for merge in family.merges:
        if merge.level < k:
            break
        for a in merge.absorbed:
            root = ds.union(ds.find(merge.survivor), ds.find(a))
            cid[root] = merge.survivor
    groups: dict[int, list[int]] = {}
    for leaf in range(nleaf):
        if family.leaf_levels[leaf] >= k:
            groups.setdefault(cid[ds.find(leaf)], []).append(leaf)
    return [
        frozenset(family.leaf_edges[i] for i in groups[key])
        for key in sorted(groups)
        if len(groups[key]) >= min_size
    ]


def reference_summit_clusters(family, min_size: int = 2) -> list[tuple[int, frozenset[int]]]:
    """Summits by a state machine over the merge log: a cluster stays pure
    while every merge in its history happened at its own formation level;
    a pure cluster absorbed below its level is reported. Ordered by cluster
    id."""
    state: dict[int, tuple[int, bool, list[int]]] = {}
    summits: dict[int, tuple[int, frozenset[int]]] = {}
    for merge in family.merges:
        level, ok, merged = merge.level, True, []
        for p in (merge.survivor, *merge.absorbed):
            formed, pure, leaves = state.pop(p, (level, True, [p]))
            if not pure or formed != level:
                ok = False
                if pure and formed > level:
                    summits[p] = (formed, frozenset(family.leaf_edges[i] for i in leaves))
            merged.extend(leaves)
        state[merge.survivor] = (level, ok, merged)
    for key, (formed, pure, leaves) in state.items():
        if pure:
            summits[key] = (formed, frozenset(family.leaf_edges[i] for i in leaves))
    return [summits[key] for key in sorted(summits) if len(summits[key][1]) >= min_size]


def reference_level_summits(graph, schedule) -> tuple[tuple[int, frozenset[int]], ...]:
    """Trapeze summits by sets: a weak member at a scheduled level is a
    summit when none of its edges survives the next scheduled level."""
    etp = build_etp_graph(graph)
    weak, survivors = {}, {}
    for k in schedule:
        survivors[k] = set(trim(etp, k))
        weak[k] = trapezes_at(graph, etp, k)
    summits = []
    for i, k in enumerate(schedule):
        nxt = survivors[schedule[i + 1]] if i + 1 < len(schedule) else set()
        for member in weak[k].members:
            if not (member & nxt):
                summits.append((k, member))
    return tuple(summits)


def reference_benchmark_rows(model, method: str, trials: int, k_range=None) -> tuple:
    """The rows run_benchmark reports for "truss" or "strong", by cutting
    each level of each trial on its own (trusses_at or strong_trusses_at),
    turning the clusters into a partition with clusters_to_node_partition
    and scoring it with nmi."""
    ks = sorted(k_range) if k_range is not None else None
    sums: dict[int, float] = {}
    seen: dict[int, int] = {}
    for i in range(trials):
        graph, truth = generate_planted(model.with_seed(model.seed + i))
        dec = k_classes(graph, edge_supports(graph))
        family = strong_truss_family(graph, dec) if method == "strong" else None
        levels = ks if ks is not None else list(range(3, max(dec.k_max, 2) + 1))
        for k in levels:
            if method == "truss":
                clusters = list(trusses_at(dec, graph, k).members)
            else:
                clusters = strong_trusses_at(family, k)
            score = nmi(truth, clusters_to_node_partition(graph, clusters))
            sums[k] = sums.get(k, 0.0) + score
            seen[k] = seen.get(k, 0) + 1
    return tuple(BenchmarkRow(method, k, sums[k] / seen[k], seen[k]) for k in sorted(sums))

import io
import math
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
    strong_truss_family,
    strong_trusses_at,
    summit_strong_trusses,
    summit_trusses,
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


def level_pairs(clusters) -> list[tuple[int, frozenset[int]]]:
    """A cluster store read as (level, edge set) pairs, in store order."""
    return list(zip(clusters.level.tolist(), clusters))


def merge_rows(family):
    """The family's merge log as (level, survivor, absorbed ids) rows."""
    return [
        (level, survivor, (a0,) if a1 < 0 else (a0, a1))
        for level, survivor, a0, a1 in family.merges.tolist()
    ]


def reference_clusters_at(family, k: int, min_size: int = 1) -> list[frozenset[int]]:
    """Clusters alive at level k by replaying the merge log's rows of level
    >= k over the leaves, ordered by smallest edge id."""
    leaf_edges, leaf_levels = family.leaf_order.tolist(), family.leaf_levels.tolist()
    ds = DisjointSet(len(leaf_edges))
    cid = list(range(len(leaf_edges)))
    for level, survivor, absorbed in merge_rows(family):
        if level < k:
            break
        for a in absorbed:
            root = ds.union(ds.find(survivor), ds.find(a))
            cid[root] = survivor
    groups: dict[int, list[int]] = {}
    for leaf, leaf_level in enumerate(leaf_levels):
        if leaf_level >= k:
            groups.setdefault(cid[ds.find(leaf)], []).append(leaf)
    clusters = [
        frozenset(leaf_edges[i] for i in groups[key])
        for key in sorted(groups)
        if len(groups[key]) >= min_size
    ]
    return sorted(clusters, key=min)


def reference_summit_clusters(family, min_size: int = 2) -> list[tuple[int, frozenset[int]]]:
    """Summits by a state machine over the merge log: a cluster stays pure
    while every merge in its history happened at its own formation level;
    a pure cluster absorbed below its level is reported. (level, edges)
    pairs ordered by smallest edge id."""
    leaf_edges = family.leaf_order.tolist()
    state: dict[int, tuple[int, bool, list[int]]] = {}
    summits: dict[int, tuple[int, frozenset[int]]] = {}
    for level, survivor, absorbed in merge_rows(family):
        ok, merged = True, []
        for p in (survivor, *absorbed):
            formed, pure, leaves = state.pop(p, (level, True, [p]))
            if not pure or formed != level:
                ok = False
                if pure and formed > level:
                    summits[p] = (formed, frozenset(leaf_edges[i] for i in leaves))
            merged.extend(leaves)
        state[survivor] = (level, ok, merged)
    for key, (formed, pure, leaves) in state.items():
        if pure:
            summits[key] = (formed, frozenset(leaf_edges[i] for i in leaves))
    found = [summits[key] for key in sorted(summits) if len(summits[key][1]) >= min_size]
    return sorted(found, key=lambda pair: min(pair[1]))


def reference_level_summits(graph, schedule) -> tuple[tuple[int, frozenset[int]], ...]:
    """Trapeze summits by sets: a weak member at a scheduled level is a
    summit when none of its edges survives the next scheduled level.
    (level, edges) pairs ordered by smallest edge id."""
    etp = build_etp_graph(graph)
    weak, survivors = {}, {}
    for k in schedule:
        survivors[k] = set(trim(etp, k).tolist())
        weak[k] = trapezes_at(graph, etp, k)
    summits = []
    for i, k in enumerate(schedule):
        nxt = survivors[schedule[i + 1]] if i + 1 < len(schedule) else set()
        for member in weak[k]:
            if not (member & nxt):
                summits.append((k, member))
    return tuple(sorted(summits, key=lambda pair: min(pair[1])))


def reference_nmi(a, b) -> float:
    """NMI of two partitions by one dict pass over the vertices: the
    confusion matrix counted per vertex, each entropy and the mutual
    information summed over the dicts in insertion order."""
    total = a.n
    counts: dict[tuple[int, int], int] = {}
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for la, lb in zip(a.label, b.label):
        counts[(la, lb)] = counts.get((la, lb), 0) + 1
        rows[la] = rows.get(la, 0) + 1
        cols[lb] = cols.get(lb, 0) + 1

    ha = sum(c * math.log(c / total) for c in rows.values())
    hb = sum(c * math.log(c / total) for c in cols.values())
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    mutual = sum(
        nij * math.log(nij * total / (rows[i] * cols[j])) for (i, j), nij in counts.items()
    )
    return min(max(-2.0 * mutual / (ha + hb), 0.0), 1.0)


def reference_benchmark_rows(model, method: str, trials: int, k_range=None) -> tuple:
    """The rows run_benchmark reports, by scoring each trial on its own:
    for "truss" and "strong" each level cut alone (trusses_at or
    strong_trusses_at), for "summit" and "strong-summit" the trial's
    summits (summit_trusses or summit_strong_trusses); the clusters become
    a partition with clusters_to_node_partition, scored with reference_nmi,
    not with the batch scorer under test."""
    ks = sorted(k_range) if k_range is not None else None
    sums: dict[int | None, float] = {}
    seen: dict[int | None, int] = {}

    def score(key, clusters, levels=None):
        value = reference_nmi(truth, clusters_to_node_partition(graph, clusters, levels))
        sums[key] = sums.get(key, 0.0) + value
        seen[key] = seen.get(key, 0) + 1

    for i in range(trials):
        graph, truth = generate_planted(model.with_seed(model.seed + i))
        dec = k_classes(graph, edge_supports(graph))
        if method in ("summit", "strong-summit"):
            if method == "summit":
                summits = summit_trusses(dec, graph)
            else:
                summits = summit_strong_trusses(strong_truss_family(graph, dec))
            score(None, list(summits), summits.level.tolist())
            continue
        if method == "strong":
            family = strong_truss_family(graph, dec)
            leaf_at = {e: i for i, e in enumerate(family.leaf_order.tolist())}
        levels = ks if ks is not None else list(range(2, dec.k_max + 1))
        for k in levels:
            if method == "truss":
                score(k, list(trusses_at(dec, graph, k)))
            else:
                # a vertex two strong trusses share goes to the smaller
                # cluster id, its smallest position in the leaf order
                clusters = strong_trusses_at(family, k)
                score(k, sorted(clusters, key=lambda c: min(leaf_at[e] for e in c)))
    return tuple(
        BenchmarkRow(method, k, sums[k] / seen[k], seen[k])
        for k in sorted(sums, key=lambda k: (k is None, k or 0))
    )

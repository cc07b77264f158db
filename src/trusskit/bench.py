"""Planted-partition generation, NMI scoring, and the benchmark harness.

Graphs consist of l groups with dense internal Bernoulli edges (probability
p) and sparse edges between groups (probability r). Instead of r one gives
the mixing fraction mu, the expected share of a node's edges that leave its
group; recovery of the planted groups by truss clustering is scored with
normalized mutual information over node labels.

The benchmark draws and lists each trial on its own, then scores
consecutive trials in batches, each closed once it holds BATCH_TRIANGLES
triangles, as one disjoint-union graph: one peel, one family, one descent,
one summit pass and one NMI pass (`_nmi_scores`, over every (trial, level)
pair) per batch instead of per trial. No triangle crosses two trials and
the union keeps each trial's edge order, so each trial's labels give the
blocks it would give alone, and its scores are the same floats, summed in
trial order: the rows do not depend on the batches. `nmi` scores one pair
with the same code.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from .graph import Graph, build_graph
# run_benchmark cuts its fixed levels from one descent of a family, not with
# trusses_at or strong_trusses_at; both stay importable from this module,
# where callers look them up to wrap them
from .strong import strong_truss_family, strong_trusses_at, summit_strong_trusses  # noqa: F401
from .triangles import SupportMap, edge_supports
from .truss import (  # noqa: F401
    ClusterFamily,
    _vertex_family,
    k_classes,
    summit_trusses,
    truss_leaves,
    trusses_at,
)

METHODS = ("truss", "strong", "summit", "strong-summit")


class InfeasibleModelError(ValueError):
    """The requested mixing fraction needs an inter-group probability > 1."""


def derive_inter_prob(l: int, n: int, p: float, mu: float) -> float:
    """Inter-group edge probability that realizes mixing fraction mu.

    Equates the expected inter-degree r*(n - g) to mu/(1-mu) times the
    expected intra-degree p*(g - 1), with g = n/l.
    """
    if l < 2:
        raise ValueError("need at least 2 groups")
    if not 0 <= mu < 1:
        raise ValueError("mu must lie in [0, 1)")
    g = n / l
    if n - g <= 0:
        raise ValueError("groups must leave room for inter-group pairs")
    r = (mu / (1.0 - mu)) * p * (g - 1.0) / (n - g)
    if r > 1.0:
        raise InfeasibleModelError(
            f"mixing {mu} with p={p} would need inter-group probability {r:.4f} > 1"
        )
    return max(r, 0.0)


@dataclass(frozen=True)
class PlantedModel:
    """Stochastic l-group model; sizes may be fixed or a uniform range.

    inter_prob, when given, is used directly as the between-group edge
    probability; otherwise it is derived from the mixing fraction mu.
    """

    l: int
    group_size: int | tuple[int, int]   # g, or inclusive (lo, hi) per group
    p: float
    mu: float
    seed: int = 0
    inter_prob: float | None = None

    def __post_init__(self):
        if self.l < 2:
            raise ValueError("need at least 2 groups")
        if not 0 <= self.p <= 1:
            raise ValueError("p must lie in [0, 1]")
        if not 0 <= self.mu < 1:
            raise ValueError("mu must lie in [0, 1)")
        if self.inter_prob is not None and not 0 <= self.inter_prob <= 1:
            raise ValueError("inter_prob must lie in [0, 1]")
        sizes = self.group_size
        if isinstance(sizes, tuple):
            lo, hi = sizes
            if lo < 2 or hi < lo:
                raise ValueError("size range must satisfy 2 <= lo <= hi")
        elif sizes < 2:
            raise ValueError("groups need at least 2 nodes")

    def with_seed(self, seed: int) -> "PlantedModel":
        return PlantedModel(
            self.l, self.group_size, self.p, self.mu, seed, self.inter_prob
        )


@dataclass(frozen=True)
class Partition:
    """Cluster id per vertex; a total function over the graph's vertices."""

    label: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.label)

    def blocks(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for v, c in enumerate(self.label):
            out.setdefault(c, []).append(v)
        return out


def generate_planted(model: PlantedModel) -> tuple[Graph, Partition]:
    """Draw one graph from the model; deterministic under the model's seed.

    Isolated vertices stay in the graph so partitions always cover all
    planted nodes.
    """
    rng = np.random.default_rng(model.seed)
    if isinstance(model.group_size, tuple):
        lo, hi = model.group_size
        sizes = rng.integers(lo, hi + 1, size=model.l).tolist()
    else:
        sizes = [model.group_size] * model.l
    n = int(sum(sizes))
    group = np.repeat(np.arange(model.l), sizes)
    offsets = (np.cumsum(sizes) - sizes).tolist()

    if model.inter_prob is not None:
        r = model.inter_prob
    else:
        r = derive_inter_prob(model.l, n, model.p, model.mu)
    # every group's (i, j) pairs, i < j, in group order, drawn in that order;
    # one pair table per distinct group size
    upper = {size: np.stack(np.triu_indices(size, k=1), axis=1) for size in set(sizes)}
    intra = np.concatenate([upper[size] + base for base, size in zip(offsets, sizes)])
    pairs = [intra[rng.random(len(intra)) < model.p]]

    inter_pairs = n * (n - 1) // 2 - len(intra)
    if inter_pairs > 0 and r > 0:
        count = int(rng.binomial(inter_pairs, r))
        chosen = np.empty(0, dtype=np.int64)   # pairs (a, b), a < b, as a * n + b
        while len(chosen) < count:
            need = count - len(chosen)
            us = rng.integers(0, n, size=2 * need + 8)
            vs = rng.integers(0, n, size=2 * need + 8)
            ok = (us != vs) & (group[us] != group[vs])
            key = np.minimum(us[ok], vs[ok]) * n + np.maximum(us[ok], vs[ok])
            # the first `need` pairs of the draw not chosen yet, in draw order
            key = key[np.sort(np.unique(key, return_index=True)[1])]
            chosen = np.concatenate((chosen, key[~np.isin(key, chosen)][:need]))
        pairs.append(np.stack(np.divmod(np.sort(chosen), n), axis=1))

    graph = build_graph(n, np.concatenate(pairs))
    return graph, Partition(label=tuple(group.tolist()))


def clusters_to_node_partition(
    graph: Graph,
    clusters: Sequence[Collection[int]],
    levels: Sequence[int] | None = None,
) -> Partition:
    """Assign each vertex the id of a cluster whose edges touch it.

    A vertex touched by several clusters goes to the one formed at the
    highest support level, then to the smallest cluster id; vertices outside
    every cluster become singletons, numbered in vertex order after the
    clusters.
    """
    if levels is not None and len(levels) != len(clusters):
        raise ValueError("levels length does not match clusters")
    sizes = [len(c) for c in clusters]
    eids = np.fromiter(chain.from_iterable(clusters), np.int64, count=sum(sizes))
    level = np.zeros(len(clusters), np.int64) if levels is None else np.asarray(levels)
    return Partition(label=tuple(_touch_labels(graph, eids, sizes, level).tolist()))


def _touch_labels(graph: Graph, eids: np.ndarray, sizes, level: np.ndarray) -> np.ndarray:
    """clusters_to_node_partition's labels, an int64 array, for clusters
    given as runs of the given sizes of edge ids, and their levels."""
    owner = np.repeat(np.arange(len(sizes)), sizes)   # cluster of each listed edge
    # one touch per edge end; each vertex's best touch sorts first
    vertex, cluster, level = graph.ends[eids].ravel(), owner.repeat(2), level[owner].repeat(2)
    order = np.lexsort((cluster, -level, vertex))
    vertex, cluster = vertex[order], cluster[order]
    first = np.diff(vertex, prepend=-1) != 0
    label = np.full(graph.n, -1, dtype=np.int64)
    label[vertex[first]] = cluster[first]
    alone = label < 0
    label[alone] = len(sizes) + np.arange(np.count_nonzero(alone))
    return label


def _level_labels(
    graph: Graph, family: ClusterFamily, levels: Iterable[int], min_size: int
) -> Iterator[tuple[int, np.ndarray]]:
    """For each distinct level k, in descending order, an int32 vertex
    labelling by the family's clusters alive at k with at least min_size
    edges: a vertex gets the smallest id among the clusters whose edges
    touch it, and a vertex no such cluster touches gets a label of its own.
    Cluster ids are the family's, so the labels differ from
    clusters_to_node_partition's but give the same blocks."""
    leaf_ends = graph.ends[family.leaf_order]
    own = np.arange(family.nodes, family.nodes + graph.n, dtype=np.int32)
    for k, root in family.cuts(levels):
        alive = family.leaves_at(k)
        root = root[:alive]
        big = np.bincount(root)[root] >= min_size
        label = own.copy()
        # int32 values for an int32 target keep ufunc.at off its casting path
        np.minimum.at(label, leaf_ends[:alive][big].ravel(), root[big].repeat(2))
        yield k, label


def nmi(a: Partition, b: Partition) -> float:
    """Normalized mutual information between two node partitions.

    Uses the confusion-matrix form with natural logs; 1 means either
    partition determines the other, 0 means independence. One pair of
    `_nmi_scores`, the benchmark's scorer.
    """
    if a.n != b.n:
        raise ValueError("partitions cover different vertex sets")
    if a.n == 0:
        raise ValueError("empty partitions")
    return _nmi_scores(np.asarray(a.label), np.asarray(b.label), (0, a.n))[0]


def _first_seen(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct keys numbered in order of first appearance: each
    element's number, and each number's count and first position."""
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    number = np.empty(len(order), dtype=np.int64)
    number[order] = np.arange(len(order))
    return number[inverse.ravel()], counts[order], first[order]


def _nmi_scores(truth: np.ndarray, found: np.ndarray, at: Sequence[int]) -> list[float]:
    """The NMI of each pair of labellings truth[lo:hi] and found[lo:hi],
    for consecutive offsets lo, hi in `at`, no pair empty.

    The confusion-matrix form (Danon, Diaz-Guilera, Duch & Arenas, JSTAT
    2005): the two entropies and the mutual information are sums of
    count * log terms over a pair's blocks of each side and of both sides
    at once. Every pair's blocks are counted in one pass, in order of first
    appearance; each distinct log argument is logged once, with math.log,
    from the float a per-vertex dict loop computes; and each sum is sum()
    over its terms in the loop's order. So every score is the loop's float.
    """
    sizes = np.diff(np.asarray(at, dtype=np.int64))
    pairs = len(sizes)
    pair = np.repeat(np.arange(pairs), sizes)

    def blocks(label: np.ndarray):
        # ranked first, so the (pair, label) key fits int64 whatever the labels
        _, label = np.unique(label, return_inverse=True)
        return _first_seen(pair * (int(label.max(initial=0)) + 1) + label.ravel())

    row, row_count, row_first = blocks(truth)
    col, col_count, col_first = blocks(found)
    _, joint_count, joint_first = _first_seen(row * len(col_count) + col)
    # c / n for each block and n_ij * n / (n_i * n_j) for each joint block:
    # exact integers, one division each, as Python divides them
    args = np.concatenate((
        row_count / sizes[pair[row_first]],
        col_count / sizes[pair[col_first]],
        joint_count * sizes[pair[joint_first]]
        / (row_count[row[joint_first]] * col_count[col[joint_first]]),
    ))
    distinct, inverse = np.unique(args, return_inverse=True)
    logs = np.array([math.log(x) for x in distinct.tolist()])
    counts = np.concatenate((row_count, col_count, joint_count))
    terms = counts * logs[inverse.ravel()]
    # a pair's blocks are consecutive within each part: rows, columns, joint
    per_pair = [np.bincount(pair[f], minlength=pairs) for f in (row_first, col_first, joint_first)]
    bounds = np.cumsum(np.concatenate(([0], *per_pair))).tolist()

    def part_sum(part: int, p: int) -> float:
        # Python floats added by sum(), as the loop adds them
        return sum(terms[bounds[part * pairs + p] : bounds[part * pairs + p + 1]].tolist())

    scores = []
    for p in range(pairs):
        ha, hb = part_sum(0, p), part_sum(1, p)
        if ha == 0.0 and hb == 0.0:
            scores.append(1.0)   # both single-block (or single-node) partitions
        elif ha == 0.0 or hb == 0.0:
            scores.append(0.0)   # one partition carries no information
        else:
            mutual = part_sum(2, p)
            # rounding can push perfect agreement a few ulp past 1
            scores.append(min(max(-2.0 * mutual / (ha + hb), 0.0), 1.0))
    return scores


@dataclass(frozen=True)
class BenchmarkRow:
    """One (method, level) cell averaged over the trials."""

    method: str
    k: int | None           # None for summit methods
    mean_nmi: float
    trials: int


@dataclass(frozen=True)
class BenchmarkReport:
    model: PlantedModel
    trials: int
    mean_n: float
    mean_m: float
    seconds_per_trial: float
    rows: tuple[BenchmarkRow, ...]

    def row(self, method: str, k: int | None = None) -> BenchmarkRow:
        for row in self.rows:
            if row.method == method and row.k == k:
                return row
        raise KeyError((method, k))

    def to_tsv(self) -> str:
        lines = ["method\tk\tmean_nmi\ttrials"]
        for row in self.rows:
            kcell = "-" if row.k is None else str(row.k)
            lines.append(f"{row.method}\t{kcell}\t{row.mean_nmi:.4f}\t{row.trials}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        head = (
            f"l={self.model.l} size={self.model.group_size} p={self.model.p} "
            f"mu={self.model.mu} trials={self.trials} "
            f"mean_n={self.mean_n:.1f} mean_m={self.mean_m:.1f} "
            f"time/trial={self.seconds_per_trial:.3f}s"
        )
        fixed = [r for r in self.rows if r.k is not None]
        lines = [head]
        if fixed:
            lines.append("k:    " + "  ".join(f"{r.k:>5d}" for r in fixed))
            lines.append("NMI:  " + "  ".join(f"{r.mean_nmi:5.2f}" for r in fixed))
        for r in self.rows:
            if r.k is None:
                lines.append(f"{r.method}: {r.mean_nmi:.2f}")
        return "\n".join(lines) + "\n"


# A batch of trials closes once it holds this many triangles: it is scored
# as one graph, and its peel's and cluster family's arrays grow with them
BATCH_TRIANGLES = 1 << 15


@dataclass(frozen=True)
class _Batch:
    """Consecutive trials joined into one disjoint-union graph. Trial t
    owns vertices vertex_at[t]..vertex_at[t+1]-1 and edges
    edge_at[t]..edge_at[t+1]-1, in its own order."""

    graph: Graph
    supports: SupportMap
    truths: list[Partition]
    vertex_at: list[int]
    edge_at: list[int]


def _union(trials: list[tuple[Graph, Partition, SupportMap]]) -> _Batch:
    """The trials' graphs as one graph, their vertex and edge ids offset,
    and their triangle lists, shifted by the same edge offsets, as one
    SupportMap; assembled from `ends`, not through build_graph, with the
    unit weights of generated trials."""
    graphs, truths, supports = zip(*trials)
    vertex_at = list(accumulate((g.n for g in graphs), initial=0))
    edge_at = list(accumulate((g.m for g in graphs), initial=0))
    graph = Graph(
        n=vertex_at[-1],
        labels=tuple(chain.from_iterable(g.labels for g in graphs)),
        ends=np.concatenate([g.ends + at for g, at in zip(graphs, vertex_at)]),
    )
    joined = SupportMap(
        np.concatenate([s.support for s in supports]),
        np.concatenate([s.triangles + at for s, at in zip(supports, edge_at)]),
    )
    return _Batch(graph, joined, list(truths), vertex_at, edge_at)


def _batches(model: PlantedModel, trials: int) -> Iterator[_Batch]:
    """The trials in order, each drawn and listed on its own, joined into
    batches that close once they hold BATCH_TRIANGLES triangles."""
    batch: list[tuple[Graph, Partition, SupportMap]] = []
    held = 0
    for i in range(trials):
        graph, truth = generate_planted(model.with_seed(model.seed + i))
        supports = edge_supports(graph)
        batch.append((graph, truth, supports))
        held += len(supports.triangles)
        if held >= BATCH_TRIANGLES or i == trials - 1:
            union = _union(batch)
            # the trials' own graphs and triangle lists go before the union
            # is scored, and the union before the next trial is drawn
            del graph, truth, supports
            batch, held = [], 0
            yield union
            del union


def _batch_scores(
    batch: _Batch, method: str, ks: list[int] | None
) -> Iterator[tuple[int | None, float]]:
    """The NMI terms of a batch's trials, in trial order: (k, score) for
    each level of a trial's range under "truss" and "strong", a repeated
    level once per repeat, or (None, score) per trial under the summit
    methods. Each trial's labels are a slice of the batch's, and every
    (trial, level) pair of the batch is scored in one `_nmi_scores` pass."""
    graph = batch.graph
    decomposition = k_classes(graph, batch.supports)
    truth = np.concatenate([t.label for t in batch.truths])
    spans = list(zip(batch.vertex_at, batch.vertex_at[1:]))
    if method in ("summit", "strong-summit"):
        if method == "summit":
            summits = summit_trusses(decomposition, graph)
        else:
            summits = summit_strong_trusses(strong_truss_family(graph, decomposition))
        # a vertex that summits of one level share goes to the first in store
        # order, by smallest edge: all of a summit's edges sit at its level,
        # so that is also the smallest cluster id
        label = _touch_labels(graph, summits.edges, np.diff(summits.start), summits.level)
        for score in _nmi_scores(truth, label, batch.vertex_at):
            yield None, score
        return
    if method == "strong":
        family, min_size = strong_truss_family(graph, decomposition), 2
    else:
        family, min_size = _vertex_family(graph, *truss_leaves(decomposition, graph)), 1
    trussness = decomposition.trussness
    trial_levels = [
        ks if ks is not None else list(range(2, int(trussness[a:b].max(initial=0)) + 1))
        for a, b in zip(batch.edge_at, batch.edge_at[1:])
    ]
    labels = dict(_level_labels(graph, family, chain.from_iterable(trial_levels), min_size))
    # one (trial, level) pair per distinct level of each trial's range
    scored = [
        (t, k) for t, levels in enumerate(trial_levels) for k in sorted(set(levels), reverse=True)
    ]
    if not scored:   # no trial of the batch has a level to score
        return
    segments = [spans[t] for t, _ in scored]
    scores = _nmi_scores(
        np.concatenate([truth[lo:hi] for lo, hi in segments]),
        np.concatenate([labels[k][lo:hi] for (_, k), (lo, hi) in zip(scored, segments)]),
        list(accumulate((hi - lo for lo, hi in segments), initial=0)),
    )
    score_of = dict(zip(scored, scores))
    for t, levels in enumerate(trial_levels):
        for k in levels:
            yield k, score_of[t, k]


def run_benchmark(
    model: PlantedModel,
    method: str,
    trials: int = 20,
    k_range: Iterable[int] | None = None,
) -> BenchmarkReport:
    """Average NMI of the chosen clustering method over seeded trials.

    Trial i runs on the model reseeded with seed + i, so reports reproduce
    bit for bit. For the fixed-level methods k_range defaults to every class
    level 2..k_max seen in a trial, and every level of a trial is cut from
    one descent of its cluster family (`ClusterFamily.cuts`): the strong
    family with clusters of at least 2 edges for "strong", the
    edge-connected vertex family for "truss" (its clusters are the maximal
    k-trusses). A repeated k is scored once per trial and counted once per
    repeat.

    Trials are drawn and their triangles listed one at a time, in order;
    consecutive trials are then joined, until they hold BATCH_TRIANGLES
    triangles, into one disjoint-union graph, which is peeled, given its
    cluster family, cut and summited once. No triangle crosses two trials, and the union
    keeps each trial's edge order, so each trial's trussness is a slice of
    the union's, its clusters and summits come in the same relative order,
    and its vertex labels give the same blocks as a trial scored alone.
    A score depends only on those blocks, met in vertex order, and scores
    are added per trial in trial order, so every row is bit-identical to
    scoring the trials one by one.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if trials < 1:
        raise ValueError("need at least one trial")
    ks = sorted(k_range) if k_range is not None else None
    if ks and ks[0] < 2 and method in ("truss", "strong"):
        raise ValueError("k must be at least 2")

    sums: dict[int | None, float] = {}
    seen_counts: dict[int | None, int] = {}
    n_sum = 0
    m_sum = 0
    started = time.perf_counter()
    for batch in _batches(model, trials):
        n_sum += batch.graph.n
        m_sum += batch.graph.m
        for key, score in _batch_scores(batch, method, ks):
            sums[key] = sums.get(key, 0.0) + score
            seen_counts[key] = seen_counts.get(key, 0) + 1
        # free this batch's union and triangle list before the next is drawn
        del batch
    elapsed = time.perf_counter() - started

    rows = []
    for key in sorted(sums, key=lambda x: (x is None, x if x is not None else 0)):
        rows.append(
            BenchmarkRow(
                method=method,
                k=key,
                mean_nmi=sums[key] / seen_counts[key],
                trials=seen_counts[key],
            )
        )
    return BenchmarkReport(
        model=model,
        trials=trials,
        mean_n=n_sum / trials,
        mean_m=m_sum / trials,
        seconds_per_trial=elapsed / trials,
        rows=tuple(rows),
    )

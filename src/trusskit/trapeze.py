"""Rectangle (4-cycle) support machinery and trapeze extraction.

Support counting goes through an edge-triad-periphery (ETP) structure of
flat int32 arrays. With vertices ranked by degree, every admissible open
triad (its apex the lowest or the middle of its three vertices) links its
two arm edges to the rank-ordered pair of its outer vertices, its
periphery. Two triads sharing a periphery close a rectangle, and the
representation is unique, so an edge's rectangle count is the sum of
(degree - 1) over the peripheries of its triads. One vectorized pass builds
the structure: low-apex triads pair the edges inside a vertex's upward
bucket, median-apex triads pair its downward bucket with its upward one,
peripheries are numbered by sorting their pair keys, and peripheries of
degree 1 are pruned. Trimming runs level-synchronous rounds, like the truss
peel: every live edge with fewer than k rectangles falls at once, with its
triads, until none falls. k may only grow across calls, so one structure
serves a whole level schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, VertexRanking, component_edge_sets, edge_nodes, vertex_ranking
from .graph import _component_labels, _label_groups

LOW_APEX = 0
MEDIAN_APEX = 1

# Most triads one structure may hold. A triad costs 13 bytes in the
# structure and up to about 50 more while it is built.
DEFAULT_TRIAD_CAP = 1 << 25


@dataclass(frozen=True)
class TrapezeSet:
    """Maximal (or strong) trapezes at one support level."""

    k: int
    members: tuple[frozenset[int], ...]

    def member_nodes(self, graph: Graph, index: int) -> set[int]:
        return edge_nodes(graph, self.members[index])


class ETPGraph:
    """Tripartite edge-triad-periphery arrays for one graph.

    `triads` is an int32 (T, 3) array of (arm edge, arm edge, periphery)
    rows grouped by periphery. `periph_key` holds each periphery's outer
    vertex ranks as rank_lo * n + rank_hi, and `periph_degree` its live
    triad count, 0 once it closes no rectangle. `triad_alive` is a
    bytearray (`triad_live` views it as numpy bools) and `edge_alive` a
    bool array. Mutable: trimming consumes the structure in place.
    """

    def __init__(self, graph: Graph, ranking: VertexRanking):
        n, m = graph.n, graph.m
        self.graph = graph
        self.ranking = ranking
        self.current_k = 0      # highest trim level completed
        rank = np.fromiter(ranking.rank, dtype=np.int64, count=n)
        ends = rank[graph.ends]
        low, high = ends.min(axis=1), ends.max(axis=1)
        del ends
        up = np.bincount(low, minlength=n)      # per rank: neighbours ranked above
        down = np.bincount(high, minlength=n)   # and below
        total = int((up * (up - 1) // 2 + up * down).sum())
        if total > DEFAULT_TRIAD_CAP:
            raise ValueError(
                f"trapeze structure would hold {total} triads, over the cap of "
                f"{DEFAULT_TRIAD_CAP}; the graph has too many open wedges"
            )

        # upward buckets: edge ids grouped by their lower-ranked endpoint
        by_low = np.argsort(low, kind="stable").astype(np.int32)
        outer = high[by_low]
        up_end = np.cumsum(up)
        # low-apex: each bucket slot pairs with every later slot of its bucket
        first, offs = _expand(up_end[low[by_low]] - np.arange(1, m + 1))
        second = first + 1 + offs
        lo_key = np.minimum(outer[first], outer[second]) * n + np.maximum(outer[first], outer[second])
        lo_arms = (by_low[first], by_low[second])
        # median-apex: each edge, as a downward arm of its upper endpoint,
        # pairs with every slot of that endpoint's upward bucket
        down_arm, offs = _expand(up[high])
        second = (up_end - up)[high[down_arm]] + offs
        key = np.concatenate((lo_key, low[down_arm] * n + outer[second]))
        arm1 = np.concatenate((lo_arms[0], by_low[second]))
        arm2 = np.concatenate((lo_arms[1], down_arm.astype(np.int32)))
        del first, second, offs, down_arm, lo_key, lo_arms

        order = np.argsort(key, kind="stable")
        key = key[order]
        opens = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=opens[1:])
        self.periph_key = key[opens]
        self.triads = np.empty((len(key), 3), dtype=np.int32)
        self.triads[:, 0] = arm1[order]
        self.triads[:, 1] = arm2[order]
        del key, arm1, arm2, order
        np.cumsum(opens, dtype=np.int32, out=self.triads[:, 2])
        self.triads[:, 2] -= 1
        del opens

        # degree-1 peripheries close no rectangles: prune them and their
        # triads up front; edges with no triad left are not alive
        degree = np.bincount(self.triads[:, 2], minlength=len(self.periph_key))
        degree[degree < 2] = 0
        self.periph_degree = degree.astype(np.int32)
        self.triad_alive = bytearray(len(self.triads))
        self.triad_live = np.frombuffer(self.triad_alive, dtype=bool)
        self.triad_live[:] = self.periph_degree[self.triads[:, 2]] > 0
        self.edge_alive = np.zeros(m, dtype=bool)
        self.edge_alive[self.triads[self.triad_live, :2].ravel()] = True

    # -- inspection ------------------------------------------------------

    def alive_triads(self) -> list[tuple[int, int, int, int]]:
        """Live triads as (arm edge, arm edge, periphery, kind) tuples."""
        rank, edges = self.ranking.rank, self.graph.edges
        out = []
        for e1, e2, p in self.triads[self.triad_live].tolist():
            (a, b), (c, d) = edges[e1], edges[e2]
            apex = a if a in (c, d) else b
            outer = {a, b, c, d} - {apex}
            kind = LOW_APEX if all(rank[apex] < rank[v] for v in outer) else MEDIAN_APEX
            out.append((e1, e2, p, kind))
        return out

    def alive_periphery_degrees(self) -> dict[tuple[int, int], int]:
        """Live degree per live periphery, keyed by its outer vertex pair."""
        n, order = self.graph.n, self.ranking.order
        live = np.flatnonzero(self.periph_degree)
        return {
            (order[key // n], order[key % n]): degree
            for key, degree in zip(
                self.periph_key[live].tolist(), self.periph_degree[live].tolist()
            )
        }

    def surviving_edges(self) -> list[int]:
        return np.flatnonzero(self.edge_alive).tolist()


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For counts c, the pairs (i, j) with 0 <= j < c[i], as two arrays."""
    src = np.repeat(np.arange(len(counts)), counts)
    offs = np.arange(len(src)) - np.repeat(np.cumsum(counts) - counts, counts)
    return src, offs


def _supports(
    m: int, arm1: np.ndarray, arm2: np.ndarray, periph: np.ndarray, npe: int
) -> tuple[np.ndarray, np.ndarray]:
    """Periphery degrees over the given live triads, and the rectangle
    count per edge that those triads give: (degree - 1) per arm."""
    degree = np.bincount(periph, minlength=npe)
    weight = degree[periph] - 1
    return degree, np.bincount(arm1, weight, m) + np.bincount(arm2, weight, m)


def build_etp_graph(graph: Graph, ranking: VertexRanking | None = None) -> ETPGraph:
    """Construct and prune the edge-triad-periphery structure.

    The triad count is known from the bucket sizes before anything is
    allocated; above DEFAULT_TRIAD_CAP a ValueError naming it is raised.
    """
    if ranking is None:
        ranking = vertex_ranking(graph)
    return ETPGraph(graph, ranking)


def rectangle_supports(etp: ETPGraph) -> list[int]:
    """Exact 4-cycle count per graph edge: sum of (d(p) - 1) over the
    peripheries reachable from the edge. Call before trimming."""
    if etp.current_k > 0:
        raise ValueError("rectangle supports require an untrimmed structure")
    live = etp.triads[etp.triad_live]
    _, support = _supports(etp.graph.m, live[:, 0], live[:, 1], live[:, 2], len(etp.periph_key))
    return support.astype(np.int64).tolist()


def trim(etp: ETPGraph, k: int, rng: random.Random | None = None) -> list[int]:
    """Remove edge vertices until all survivors have >= k rectangles.

    Each round counts every live edge's rectangles among the live triads
    and removes all edges under k at once, with their triads. k must not
    decrease across calls on one structure. The optional rng applies each
    round's frontier in random batches, one batch per round, which must not
    change the outcome (tested). Returns the surviving edge ids.
    """
    if k < 1:
        raise ValueError("support level must be at least 1")
    if k < etp.current_k:
        raise ValueError(
            f"trim level {k} is below the completed level {etp.current_k}; "
            "levels must not decrease"
        )
    m, alive = etp.graph.m, etp.edge_alive
    ids = np.flatnonzero(etp.triad_live)
    arm1, arm2, periph = (np.ascontiguousarray(etp.triads[ids, j]) for j in range(3))
    # number the live peripheries 0..P-1; rows are grouped by periphery
    opens = np.ones(len(ids), dtype=bool)
    np.not_equal(periph[1:], periph[:-1], out=opens[1:])
    periph_of = periph[opens]
    periph = np.cumsum(opens, dtype=np.int32) - 1
    while True:
        degree, support = _supports(m, arm1, arm2, periph, len(periph_of))
        fall = np.flatnonzero(alive & (support < k))
        if not len(fall):
            break
        if rng is not None:
            fall = np.array(rng.sample(fall.tolist(), rng.randint(1, len(fall))))
        alive[fall] = False
        keep = alive[arm1] & alive[arm2]
        ids, arm1, arm2, periph = ids[keep], arm1[keep], arm2[keep], periph[keep]
    # a periphery left with one triad closes nothing: that triad goes too
    degree[degree < 2] = 0
    etp.periph_degree[:] = 0
    etp.periph_degree[periph_of] = degree
    etp.triad_live[:] = False
    etp.triad_live[ids[degree[periph] > 0]] = True
    etp.current_k = k
    return etp.surviving_edges()


def _ensure_trimmed(etp: ETPGraph, k: int) -> None:
    if k < 1:
        raise ValueError("support level must be at least 1")
    if etp.current_k > k:
        raise ValueError(f"structure already trimmed past level {k}")
    if etp.current_k < k:
        trim(etp, k)


def trapezes_at(graph: Graph, etp: ETPGraph, k: int) -> TrapezeSet:
    """Maximal k-trapezes: components of the survivors of trim(k)."""
    _ensure_trimmed(etp, k)
    members = tuple(map(frozenset, component_edge_sets(graph, etp.surviving_edges())))
    return TrapezeSet(k=k, members=members)


def strong_trapezes_at(graph: Graph, etp: ETPGraph, k: int) -> TrapezeSet:
    """Rectangle-connected clusters among the survivors of trim(k).

    All arm edges of the triads under one live periphery are mutually
    rectangle-connected (any two of its triads close a rectangle), so the
    components of the links between the two arms of each live triad and
    between the first arms of neighbouring triads of one periphery are the
    clusters. Members are ordered by their smallest edge id.
    """
    _ensure_trimmed(etp, k)
    triads = etp.triads[etp.triad_live]     # still grouped by periphery
    same = triads[1:, 2] == triads[:-1, 2]
    label = _component_labels(
        graph.m,
        np.concatenate((triads[:, 0], triads[1:, 0][same])),
        np.concatenate((triads[:, 1], triads[:-1, 0][same])),
    )
    involved = np.flatnonzero(etp.edge_alive)   # every survivor has a live triad
    groups = _label_groups(involved, label[involved])
    members = tuple(frozenset(g) for g in groups if len(g) >= 2)
    return TrapezeSet(k=k, members=members)


@dataclass(frozen=True)
class LevelRun:
    """Weak and strong trapezes over an ascending schedule, plus summits."""

    schedule: tuple[int, ...]
    weak: dict[int, TrapezeSet] = field(default_factory=dict)
    strong: dict[int, TrapezeSet] = field(default_factory=dict)
    summits: tuple[tuple[int, frozenset[int]], ...] = ()


def trapeze_level_run(graph: Graph, schedule: list[int]) -> LevelRun:
    """Trim one structure through every level of the schedule.

    A member is a summit when none of its edges survives the next scheduled
    level; members at the final level are all summits.
    """
    if not schedule:
        raise ValueError("schedule must not be empty")
    if schedule[0] < 1 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly ascending with k >= 1")
    etp = build_etp_graph(graph)
    weak: dict[int, TrapezeSet] = {}
    strong: dict[int, TrapezeSet] = {}
    survivors: dict[int, set[int]] = {}
    for k in schedule:
        alive = set(trim(etp, k))
        survivors[k] = alive
        weak[k] = trapezes_at(graph, etp, k)
        strong[k] = strong_trapezes_at(graph, etp, k)
    summits: list[tuple[int, frozenset[int]]] = []
    for i, k in enumerate(schedule):
        nxt = survivors[schedule[i + 1]] if i + 1 < len(schedule) else set()
        for member in weak[k].members:
            if not (member & nxt):
                summits.append((k, member))
    return LevelRun(
        schedule=tuple(schedule), weak=weak, strong=strong, summits=tuple(summits)
    )


def brute_force_rectangles(graph: Graph) -> list[int]:
    """Testing oracle: count simple 4-cycles per edge from common-neighbor
    pairs. A cycle u-w1-v-w2 is tallied from the diagonal (u, v) holding the
    cycle's minimum vertex so each rectangle counts once. Small graphs only.
    """
    nbr = [set(a) for a in graph.adj]
    counts = [0] * graph.m
    n = graph.n
    for u in range(n):
        for v in range(u + 1, n):
            common = sorted(nbr[u] & nbr[v])
            if len(common) < 2:
                continue
            for i in range(len(common) - 1):
                w1 = common[i]
                if w1 < u:
                    continue
                for w2 in common[i + 1 :]:
                    for a, b in ((u, w1), (w1, v), (v, w2), (w2, u)):
                        counts[graph.adj[a][b]] += 1
    return counts

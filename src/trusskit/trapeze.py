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
peripheries are numbered by one sort of their pair keys packed with the
row, and peripheries of degree 1 are pruned. Trimming runs level-synchronous
rounds, like the truss peel: every live edge with fewer than k rectangles
falls at once, with its triads, until none falls. The rectangles are
counted once; each round then subtracts what its dead triads closed
(after Sarıyüce & Pinar, WSDM 2018), so the structure is built with each
edge's count, each periphery's row range and live triad count, and an
edge -> triad index, and keeps them between rounds and calls. k may only
grow across calls, so one structure serves a whole level schedule. A
level run stores one level per edge, the highest scheduled level it
survives, like a trussness: its weak trapezes and summits are views of
one vertex family over those levels, its strong trapezes of one triad
link family. Trapezes at a level and summits are each one `Clusters` store,
ordered by smallest edge id. The structure holds its graph, so its readers
take the structure alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import (
    Graph,
    VertexRanking,
    _edge_components,
    _incidence,
    _ranges,
    _sorted_unique,
    _stable_sort,
    vertex_ranking,
)
from .truss import Clusters, ClusterFamily, _at_level, _leaves, _vertex_family

# Most triads one structure may hold. A triad costs 13 bytes in the
# structure, up to about 50 more while it is built, and 8 more per live
# triad and 4 per periphery for trim's index.
DEFAULT_TRIAD_CAP = 1 << 25


class ETPGraph:
    """Tripartite edge-triad-periphery arrays for one graph.

    `triads` is an int32 (T, 3) array of (arm edge, arm edge, periphery)
    rows grouped by periphery; periphery p's rows are periph_start[p]:
    periph_start[p + 1]. `periph_key` holds each periphery's outer vertex
    ranks as rank_lo * n + rank_hi, and `periph_degree` its live triad
    count, 0 once it closes no rectangle. `triad_alive` is a bytearray
    (`triad_live` views it as numpy bools) and `edge_alive` a bool array.
    `support` holds each live edge's rectangle count over the live triads
    (float64, exact), and the live triads of edge e are edge_triads[
    edge_start[e]:edge_start[e + 1]]; no triad revives, so that index
    covers every triad `trim` can kill. Mutable: trimming consumes the
    structure in place.
    """

    def __init__(self, graph: Graph, ranking: VertexRanking):
        n, m = graph.n, graph.m
        self.graph = graph
        self.current_k = 0      # highest trim level completed
        rank = np.asarray(ranking.rank, dtype=np.int64)
        ru, rv = rank[graph.ends[:, 0]], rank[graph.ends[:, 1]]
        low, high = np.minimum(ru, rv), np.maximum(ru, rv)
        del ru, rv
        up = np.bincount(low, minlength=n)      # per rank: neighbours ranked above
        down = np.bincount(high, minlength=n)   # and below
        total = int((up * (up - 1) // 2 + up * down).sum())
        if total > DEFAULT_TRIAD_CAP:
            raise ValueError(
                f"trapeze structure would hold {total} triads, over the cap of "
                f"{DEFAULT_TRIAD_CAP}; the graph has too many open wedges"
            )

        # upward buckets: edge ids grouped by their lower-ranked endpoint
        by_low = _stable_sort(low, n)[1].astype(np.int32)
        outer = high[by_low]
        up_end = np.cumsum(up)
        # low-apex: each bucket slot pairs with every later slot of its bucket
        slot, bucket_end = np.arange(1, m + 1), up_end[low[by_low]]
        first = np.repeat(slot - 1, bucket_end - slot)
        second = _ranges(slot, bucket_end)
        lo_key = np.minimum(outer[first], outer[second]) * n + np.maximum(outer[first], outer[second])
        lo_arms = (by_low[first], by_low[second])
        # median-apex: each edge, as a downward arm of its upper endpoint,
        # pairs with every slot of that endpoint's upward bucket
        down_arm = np.repeat(np.arange(m, dtype=np.int32), up[high])
        second = _ranges((up_end - up)[high], up_end[high])
        key = np.concatenate((lo_key, low[down_arm] * n + outer[second]))
        arm1 = np.concatenate((lo_arms[0], by_low[second]))
        arm2 = np.concatenate((lo_arms[1], down_arm))
        del rank, low, high, up, down, by_low, outer, up_end
        del slot, bucket_end, first, second, down_arm, lo_key, lo_arms

        key, order = _stable_sort(key, n * n)
        opens = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=opens[1:])
        self.periph_key = key[opens]
        self.triads = np.empty((len(key), 3), dtype=np.int32)
        self.triads[:, 0] = arm1[order]
        self.triads[:, 1] = arm2[order]
        del key, arm1, arm2, order
        self.periph_start = np.append(np.flatnonzero(opens), len(opens)).astype(np.int32)
        np.cumsum(opens, dtype=np.int32, out=self.triads[:, 2])
        self.triads[:, 2] -= 1
        del opens

        # a triad closes degree - 1 rectangles on each arm. Degree-1
        # peripheries close none: prune them and their triads up front;
        # edges with no triad left are not alive
        degree = np.diff(self.periph_start)
        closes = degree[self.triads[:, 2]] - 1
        self.support = np.bincount(self.triads[:, 0], closes, m)
        self.support += np.bincount(self.triads[:, 1], closes, m)
        degree[degree < 2] = 0
        self.periph_degree = degree
        self.triad_alive = bytearray(len(self.triads))
        self.triad_live = np.frombuffer(self.triad_alive, dtype=bool)
        np.greater(closes, 0, out=self.triad_live)
        del closes
        ids = np.flatnonzero(self.triad_live).astype(np.int32)
        self.edge_start, rows = _incidence(self.triads[ids, :2].ravel(), m, 2)
        self.edge_triads = ids[rows]
        self.edge_alive = np.diff(self.edge_start) > 0


def build_etp_graph(graph: Graph, ranking: VertexRanking | None = None) -> ETPGraph:
    """Construct and prune the edge-triad-periphery structure.

    The triad count is known from the bucket sizes before anything is
    allocated; above DEFAULT_TRIAD_CAP a ValueError naming it is raised.
    """
    if ranking is None:
        ranking = vertex_ranking(graph)
    return ETPGraph(graph, ranking)


def trim(etp: ETPGraph, k: int, rng: random.Random | None = None) -> np.ndarray:
    """Remove edge vertices until all survivors have >= k rectangles.

    Each round removes every live edge with fewer than k rectangles at once
    and marks their live triads dead; then it subtracts what they closed,
    rather than recounting the live triads. A dead triad's two arms lose
    the degree - 1 rectangles it closed on its periphery, and every
    surviving triad of that periphery loses one per lost triad on both
    arms. The counts and indexes this reads and updates are the structure's
    own (`ETPGraph`), built with it. After the last round a periphery left
    with one triad closes nothing: that triad goes too, and the periphery's
    degree reads 0. k must not decrease across calls on one structure. The
    optional rng applies each round's frontier in random batches, one batch
    per round, which must not change the outcome (tested). Returns the
    surviving edge ids, ascending, as an int array.
    """
    if k < 1:
        raise ValueError("support level must be at least 1")
    if k < etp.current_k:
        raise ValueError(
            f"trim level {k} is below the completed level {etp.current_k}; "
            "levels must not decrease"
        )
    support, alive, live, degree = etp.support, etp.edge_alive, etp.triad_live, etp.periph_degree
    edge_start, edge_triads, periph_start = etp.edge_start, etp.edge_triads, etp.periph_start
    periph = etp.triads[:, 2]
    touched = []
    while True:
        fall = np.flatnonzero(alive & (support < k))
        if not len(fall):
            break
        if rng is not None:
            fall = np.array(rng.sample(fall.tolist(), rng.randint(1, len(fall))))
        alive[fall] = False
        dead = edge_triads[_ranges(edge_start[fall], edge_start[fall + 1])]
        dead = _sorted_unique(dead[live[dead]])     # both arms may fall
        live[dead] = False
        # rows are grouped by periphery, so ascending dead rows come grouped too
        opens = np.ones(len(dead), dtype=bool)
        np.not_equal(periph[dead[1:]], periph[dead[:-1]], out=opens[1:])
        hit = periph[dead[opens]]
        lost = np.diff(np.append(np.flatnonzero(opens), len(dead)))
        closed = degree[hit] - 1
        degree[hit] -= lost
        rows = _ranges(periph_start[hit], periph_start[hit + 1])
        kept = live[rows]
        rows = np.concatenate((dead, rows[kept]))
        loss = np.concatenate((
            np.repeat(closed, lost),
            np.repeat(lost, periph_start[hit + 1] - periph_start[hit])[kept],
        ))
        arms = etp.triads[rows, :2]
        support -= np.bincount(arms[:, 0], loss, len(support))
        support -= np.bincount(arms[:, 1], loss, len(support))
        touched.append(hit)
    if touched:
        lone = _sorted_unique(np.concatenate(touched))
        lone = lone[degree[lone] == 1]
        rows = _ranges(periph_start[lone], periph_start[lone + 1])
        live[rows] = False
        degree[lone] = 0
    etp.current_k = k
    return np.flatnonzero(alive)


def trapezes_at(etp: ETPGraph, k: int) -> Clusters:
    """Maximal k-trapezes of the structure's graph: components of the
    survivors of trim(k), as a store at level k."""
    return _at_level(k, *_edge_components(etp.graph, trim(etp, k)))


def strong_trapezes_at(etp: ETPGraph, k: int) -> Clusters:
    """Rectangle-connected clusters among the survivors of trim(k), as a
    store at level k: one cut of the triad family with every survivor at
    level k."""
    trim(etp, k)
    level = np.where(etp.edge_alive, k, 0).astype(np.int32)
    return _cut_sets(_triad_family(level, etp.triads), [k])[k]


def check_schedule(schedule: list[int]) -> None:
    """Raise ValueError unless the levels are strictly ascending, at least
    1 and fit the int32 level store."""
    ascending = all(a < b for a, b in zip(schedule, schedule[1:]))
    if not (schedule and ascending and schedule[0] >= 1 and schedule[-1] < 1 << 31):
        raise ValueError("levels must be strictly ascending, from 1 to 2^31-1")


def _triad_family(level: np.ndarray, triads: np.ndarray) -> ClusterFamily:
    """Strong trapezes at every level as one link family, from each edge's
    level and the ETP's triad rows. Nodes are leaf positions.

    A triad lives while both its arms do: its level is the lower of theirs.
    With a periphery's triads sorted by level, L0 >= L1 >= ..., triad i >= 1
    links its two arms, and its first arm to triad i-1's, at Li; triad 0
    links its arms at L1. So at each k a periphery's live triads are one
    component if two or more live, and a lone triad links nothing.
    """
    order, leaf_levels = _leaves(level)
    leaf_of = np.empty(len(level), dtype=np.int32)
    leaf_of[order] = np.arange(len(order), dtype=np.int32)
    triad_level = np.minimum(level[triads[:, 0]], level[triads[:, 1]])
    rows = np.flatnonzero(triad_level)
    # by periphery, then level descending, packed into one key; at one level
    # the rows come in that order
    high = int(triad_level.max(initial=0))
    key = triads[rows, 2].astype(np.int64) * (high + 1) + (high - triad_level[rows])
    if np.any(key[1:] < key[:-1]):
        rows = rows[_stable_sort(key, (int(triads[:, 2].max(initial=0)) + 1) * (high + 1), keys=False)]
    arm1, arm2, triad_level = leaf_of[triads[rows, 0]], leaf_of[triads[rows, 1]], triad_level[rows]
    opens = np.ones(len(rows), dtype=bool)      # the row leads its periphery
    np.not_equal(triads[rows[1:], 2], triads[rows[:-1], 2], out=opens[1:])
    later = np.flatnonzero(~opens)              # triads i >= 1
    top = later[opens[later - 1]] - 1           # triad 0 where a triad 1 follows
    links = np.concatenate((
        np.column_stack((triad_level[later], arm1[later], arm2[later], arm1[later - 1])),
        np.column_stack((triad_level[top + 1], arm1[top], arm2[top], np.full_like(top, -1))),
    )).astype(np.int32)
    if np.any(links[1:, 0] > links[:-1, 0]):   # level descending
        links = links[_stable_sort(high - links[:, 0], high + 1, keys=False)]
    return ClusterFamily(order, leaf_levels, links, len(order))


def _cut_sets(family: ClusterFamily, schedule) -> dict[int, Clusters]:
    """The clusters alive at each scheduled level, from one descent of the
    family, keyed in schedule order. Every edge a level keeps closes a
    rectangle, so none is a lone edge."""
    sets = {k: family.cut(k, root) for k, root in family.cuts(schedule)}
    return {k: sets[k] for k in schedule}


@dataclass(frozen=True, eq=False)
class LevelRun:
    """Trapezes over an ascending schedule, read from one level store.

    `level` holds, per edge, the highest scheduled level it survives (0 if
    none), as int32; `triads` is the ETP's (arm, arm, periphery) row array,
    which trimming never rewrites. `weak` and `strong` (each level mapped to
    a `Clusters` store) and `summits` (one store) are built on first read.
    """

    graph: Graph = field(repr=False)
    schedule: tuple[int, ...]
    level: np.ndarray
    triads: np.ndarray = field(repr=False)

    @cached_property
    def _vertices(self) -> ClusterFamily:
        return _vertex_family(self.graph, *_leaves(self.level))

    @cached_property
    def weak(self) -> dict[int, Clusters]:
        return _cut_sets(self._vertices, self.schedule)

    @cached_property
    def strong(self) -> dict[int, Clusters]:
        return _cut_sets(_triad_family(self.level, self.triads), self.schedule)

    @cached_property
    def summits(self) -> Clusters:
        """Each weak trapeze no edge of which survives the next scheduled
        level, as a store of the trapezes, each at its level."""
        return self._vertices.summit_clusters(min_size=1)


def trapeze_level_run(graph: Graph, schedule: list[int]) -> LevelRun:
    """Trim one structure through every level of the schedule, recording
    the highest scheduled level each edge survives."""
    check_schedule(schedule)
    etp = build_etp_graph(graph)
    level = np.zeros(graph.m, dtype=np.int32)
    for k in schedule:
        trim(etp, k)
        level[etp.edge_alive] = k
    return LevelRun(graph, tuple(schedule), level, etp.triads)


"""Trussness decomposition and the truss cluster family.

An edge's trussness is 2 plus the highest support level at which it still
belongs to a truss. One level-synchronous peel over the triangle list
(frontier sub-rounds, as in Kabir & Madduri's PKT) yields the full
decomposition, plain or weighted, with near-linear work in the triangles after
the O(m^1.5) listing; maximal k-trusses are then components of the edges at
class k and above, and agglomerating classes from the top down produces the
whole dendrogram in linear extra work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .graph import DisjointSet, Graph, component_edge_sets, edge_nodes
from .triangles import SupportMap, triangle_list


@dataclass(frozen=True)
class KClassDecomposition:
    """Per-edge trussness phi and the classes it induces.

    `triangles` is the triangle list phi was peeled from, an int32 (T, 3)
    array of edge ids; the strong-truss family replays it rather than
    scanning the graph for triangles again.
    """

    phi: tuple[int, ...]
    k_max: int
    classes: dict[int, list[int]]  # k -> edge ids with phi == k, ascending
    triangles: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def from_phi(cls, phi: np.ndarray, triangles: np.ndarray) -> KClassDecomposition:
        """The decomposition of a per-edge phi array peeled from the given
        triangle list. Classes are keyed in order of each level's first
        edge, with ids ascending within."""
        order = np.argsort(phi, kind="stable")
        levels, first = np.unique(phi[order], return_index=True)
        groups = sorted(zip(levels.tolist(), np.split(order, first[1:])), key=lambda lg: lg[1][0])
        classes = {level: eids.tolist() for level, eids in groups}
        k_max = max(classes) if classes else 0
        return cls(phi=tuple(phi.tolist()), k_max=k_max, classes=classes, triangles=triangles)

    def edges_at_least(self, k: int) -> list[int]:
        return sorted(chain.from_iterable(e for level, e in self.classes.items() if level >= k))


@dataclass(frozen=True)
class TrussSet:
    """Maximal trusses at one support level: disjoint edge sets."""

    k: int
    members: tuple[frozenset[int], ...]

    def member_nodes(self, graph: Graph, index: int) -> set[int]:
        return edge_nodes(graph, self.members[index])


class _LevelQueue:
    """Alive edges keyed by residual support, popped one key at a time.

    An entry (key, e) is current while e is alive and cur[e] == key; an
    edge whose support drops is pushed again and its older entry goes
    stale. Entries live in sorted runs: a pushed run absorbs every older run
    at most twice its length, dropping stale entries, so there are O(log)
    runs and two sorted runs merge in linear time under the stable
    (run-detecting) sort.
    """

    def __init__(self, cur: np.ndarray, alive: np.ndarray) -> None:
        self.cur, self.alive = cur, alive
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []

    def push(self, keys: np.ndarray, ids: np.ndarray) -> None:
        while self.runs and len(self.runs[-1][0]) <= 2 * len(keys):
            old_keys, old_ids = self.runs.pop()
            keep = self.alive[old_ids] & (self.cur[old_ids] == old_keys)
            keys = np.concatenate((old_keys[keep], keys))
            ids = np.concatenate((old_ids[keep], ids))
        order = np.argsort(keys, kind="stable")
        self.runs.append((keys[order], ids[order]))

    def pop(self) -> tuple[int, np.ndarray]:
        """The smallest key with a current entry, and its current ids."""
        while True:
            key = min(int(keys[0]) for keys, _ in self.runs)
            out = []
            for i, (keys, ids) in enumerate(self.runs):
                if keys[0] == key:
                    cut = int(np.searchsorted(keys, key, side="right"))
                    out.append(ids[:cut])
                    self.runs[i] = (keys[cut:], ids[cut:])
            self.runs = [run for run in self.runs if len(run[0])]
            ids = np.concatenate(out)
            ids = ids[self.alive[ids] & (self.cur[ids] == key)]
            if len(ids):
                return key, ids


def peel_triangles(
    m: int,
    triangles: np.ndarray,
    initial: Sequence[int] | np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-edge trussness phi by the level-synchronous peel shared by plain
    and weighted trussness.

    Levels are visited in increasing order of the smallest residual support
    f left, giving trussness k = f+2. Each sub-round removes every alive
    edge whose residual support is at most f, kills the alive triangles
    those edges touch, and subtracts each killed triangle's weight (1 when
    weights is None) from its surviving edges, clamped at f; the edges that
    reach f form the next sub-round. Supports and decrements are exact
    int64 arithmetic. The level queue keeps the cost of finding each level
    proportional to the edges it touches, not to m.
    """
    tri = np.asarray(triangles).reshape(-1, 3)
    flat = tri.ravel()
    # edge -> triangle CSR: the triangles of edge e are tri_of[ptr[e]:ptr[e+1]]
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=m), out=ptr[1:])
    order = np.argsort(flat)
    order //= 3
    tri_of = order.astype(np.int32)
    del order
    if weights is not None:
        weights = np.repeat(weights, 3).reshape(-1, 3)   # aligned with tri
    stamp = np.empty(max(m, len(tri)), dtype=np.int32)

    def distinct(ids: np.ndarray) -> np.ndarray:
        # one copy of each id: whichever write won its stamp slot
        pos = np.arange(len(ids))
        stamp[ids] = pos
        return ids[stamp[ids] == pos]

    # an edge's residual support freezes at f when it is peeled: phi = f+2
    cur = np.array(initial, dtype=np.int64)
    alive = np.ones(m, dtype=bool)
    tri_alive = np.ones(len(tri), dtype=bool)
    queue = _LevelQueue(cur, alive)
    queue.push(cur, np.arange(m, dtype=np.int32))
    remaining = m
    while remaining:
        f, peel = queue.pop()
        peel = distinct(peel)
        while len(peel):
            alive[peel] = False
            remaining -= len(peel)
            lens = ptr[peel + 1] - ptr[peel]
            idx = np.arange(int(lens.sum())) + np.repeat(ptr[peel] - (np.cumsum(lens) - lens), lens)
            killed = tri_of[idx]
            killed = distinct(killed[tri_alive[killed]])
            tri_alive[killed] = False
            touched = tri[killed]
            survives = alive[touched]
            hit = touched[survives]
            np.subtract.at(cur, hit, 1 if weights is None else weights[killed][survives])
            hit = distinct(hit)
            low = np.maximum(cur[hit], f)
            cur[hit] = low
            later = low > f
            if later.any():
                queue.push(low[later], hit[later])
            peel = hit[~later]
    return cur + 2


def k_classes(graph: Graph, supports: SupportMap) -> KClassDecomposition:
    """Trussness of every edge from its triangle supports.

    Reuses the triangle list the supports were counted from; supports from
    elsewhere (the oracle) get a fresh listing.
    """
    if len(supports.sup) != graph.m:
        raise ValueError("support map does not match graph")
    triangles = supports.triangles
    if triangles is None:
        triangles = triangle_list(graph)
    phi = peel_triangles(graph.m, triangles, supports.sup)
    return KClassDecomposition.from_phi(phi, triangles)


def trusses_at(decomposition: KClassDecomposition, graph: Graph, k: int) -> TrussSet:
    """Maximal k-trusses: components of the edges with phi >= k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    eids = decomposition.edges_at_least(k)
    members = tuple(frozenset(c) for c in component_edge_sets(graph, eids))
    return TrussSet(k=k, members=members)


def iterative_deletion_oracle(graph: Graph, k: int) -> TrussSet:
    """Definition-checking oracle: delete under-supported edges to fixpoint.

    Repeatedly removes any edge with fewer than k-2 triangles among the
    survivors, then returns the components of what remains. Small graphs
    only; the peeling path is the production route.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    nbr = [set(a) for a in graph.adj]
    alive = [True] * graph.m
    need = k - 2
    changed = True
    while changed:
        changed = False
        for eid, (lo, hi) in enumerate(graph.edges):
            if not alive[eid]:
                continue
            if len(nbr[lo] & nbr[hi]) < need:
                alive[eid] = False
                nbr[lo].discard(hi)
                nbr[hi].discard(lo)
                changed = True
    survivors = [e for e in range(graph.m) if alive[e]]
    members = tuple(frozenset(c) for c in component_edge_sets(graph, survivors))
    return TrussSet(k=k, members=members)


@dataclass(frozen=True, slots=True)
class Merge:
    """One agglomeration event: absorbed cluster ids fold into the survivor.

    Slotted, because a family holds one per merge (424k in the dendrogram
    of the 425k-edge scale benchmark).
    """

    level: int
    absorbed: tuple[int, ...]
    survivor: int


@dataclass(frozen=True)
class ClusterFamily:
    """Agglomerative family of edge clusters with merge levels.

    Leaves are single edges in the order they were added (descending class,
    ascending edge id within a class); cluster ids are leaf indices, and a
    merge always survives under the lowest participating id. Cutting the
    family at level k replays the merges with level >= k over the leaves of
    level >= k.
    """

    leaf_edges: tuple[int, ...]
    leaf_levels: tuple[int, ...]
    merges: tuple[Merge, ...]

    def clusters_at(self, k: int, min_size: int = 1) -> list[frozenset[int]]:
        """Edge sets of clusters alive at level k, ordered by cluster id."""
        nleaf = len(self.leaf_edges)
        ds = DisjointSet(nleaf)
        cid = list(range(nleaf))
        for merge in self.merges:
            if merge.level < k:
                break
            for a in merge.absorbed:
                root = ds.union(ds.find(merge.survivor), ds.find(a))
                cid[root] = merge.survivor
        groups: dict[int, list[int]] = {}
        for leaf in range(nleaf):
            if self.leaf_levels[leaf] >= k:
                groups.setdefault(cid[ds.find(leaf)], []).append(leaf)
        out = []
        for key in sorted(groups):
            leaves = groups[key]
            if len(leaves) >= min_size:
                out.append(frozenset(self.leaf_edges[i] for i in leaves))
        return out

    def summit_clusters(self, min_size: int = 2) -> list[tuple[int, frozenset[int]]]:
        """Clusters built purely from single edges at one level.

        A cluster qualifies while every merge in its history happened at its
        own formation level; absorbing a multi-edge cluster formed higher up
        disqualifies the result but the absorbed cluster itself is reported.
        Returns (formation level, edge set) pairs ordered by cluster id.
        """
        # multi-leaf clusters only, id -> (formation level, pure, leaves); an
        # id absent here is still its single leaf
        state: dict[int, tuple[int, bool, list[int]]] = {}
        summits: dict[int, tuple[int, frozenset[int]]] = {}

        for merge in self.merges:
            level = merge.level
            ok = True
            merged: list[int] | None = None
            for p in (merge.survivor, *merge.absorbed):
                formed, pure, leaves = state.pop(p, (level, True, [p]))
                if not pure or formed != level:
                    ok = False
                    if pure and formed > level:
                        summits[p] = (formed, frozenset(self.leaf_edges[i] for i in leaves))
                if merged is None:
                    merged = leaves
                else:
                    merged.extend(leaves)
            state[merge.survivor] = (level, ok, merged)

        for key, (formed, pure, leaves) in state.items():
            if pure and len(leaves) >= min_size:
                summits[key] = (formed, frozenset(self.leaf_edges[i] for i in leaves))
        return [summits[key] for key in sorted(summits) if len(summits[key][1]) >= min_size]


def arrival_order(decomposition: KClassDecomposition) -> list[int]:
    """Edge ids in the order cluster families add them as leaves:
    descending class, ascending id within a class. The list shares its ints
    with `decomposition.classes`."""
    classes = decomposition.classes
    return list(chain.from_iterable(classes[k] for k in sorted(classes, reverse=True)))


def truss_dendrogram(decomposition: KClassDecomposition, graph: Graph) -> ClusterFamily:
    """Full dendrogram of maximal trusses by single-link agglomeration: an
    arriving edge joins the clusters of its endpoints' components.

    Cutting at level k reproduces trusses_at(k); merge levels never increase
    along the sequence.
    """
    leaf_edges = arrival_order(decomposition)
    leaf_levels = [decomposition.phi[e] for e in leaf_edges]
    ds = DisjointSet(graph.n)
    cluster_of_root: dict[int, int] = {}
    merges: list[Merge] = []

    for leaf, eid in enumerate(leaf_edges):
        lo, hi = graph.edges[eid]
        ids = {leaf}
        for v in (lo, hi):
            c = cluster_of_root.get(ds.find(v))
            if c is not None:
                ids.add(c)
        root = ds.union(lo, hi)
        survivor = min(ids)
        ids.discard(survivor)
        if ids:
            merges.append(
                Merge(level=leaf_levels[leaf], absorbed=tuple(sorted(ids)), survivor=survivor)
            )
        cluster_of_root[ds.find(root)] = survivor

    return ClusterFamily(
        leaf_edges=tuple(leaf_edges), leaf_levels=tuple(leaf_levels), merges=tuple(merges)
    )


def summit_trusses(
    decomposition: KClassDecomposition, graph: Graph
) -> list[tuple[int, frozenset[int]]]:
    """Maximal trusses whose edges all sit exactly at the truss's own level.

    An edge belonging to a higher class would put the truss inside one of
    higher support, so such members are dropped. Results are (k, edge set)
    pairs; the union is edge-disjoint.
    """
    phi = decomposition.phi
    out: list[tuple[int, frozenset[int]]] = []
    for k in sorted(decomposition.classes):
        for member in trusses_at(decomposition, graph, k).members:
            if all(phi[e] == k for e in member):
                out.append((k, member))
    return out

"""Trussness decomposition and the truss cluster family.

An edge's trussness is 2 plus the highest support level at which it still
belongs to a truss. One level-synchronous peel over the triangle list
(frontier sub-rounds, as in Kabir & Madduri's PKT) yields the full
decomposition, plain or weighted, with near-linear work in the triangles after
the O(m^1.5) listing; maximal k-trusses are then components of the edges at
class k and above. Cluster families are link tables built by adding classes
from the top down: their cuts and summits are components of the links, and
the merge log (the dendrogram) is a replay of them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import neg
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graph import Graph, _component_labels, _label_groups, component_edge_sets, edge_nodes
from .triangles import SupportMap, triangle_list


@dataclass(frozen=True)
class KClassDecomposition:
    """Per-edge trussness phi and the classes it induces.

    `triangles` is the triangle list phi was peeled from, an int32 (T, 3)
    array of edge ids; the strong-truss family reads it as links rather than
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

    Reuses the triangle list the supports were counted from, and the row
    weights of weighted supports; supports from elsewhere (the oracle) get
    a fresh listing.
    """
    if len(supports.sup) != graph.m:
        raise ValueError("support map does not match graph")
    triangles = supports.triangles
    if triangles is None:
        triangles = triangle_list(graph)
    phi = peel_triangles(graph.m, triangles, supports.sup, supports.weights)
    return KClassDecomposition.from_phi(phi, triangles)


def _check_decomposition(decomposition: KClassDecomposition, graph: Graph) -> None:
    """Raise ValueError unless the decomposition has one phi per graph edge."""
    if len(decomposition.phi) != graph.m:
        raise ValueError("decomposition does not match graph")


def trusses_at(decomposition: KClassDecomposition, graph: Graph, k: int) -> TrussSet:
    """Maximal k-trusses: components of the edges with phi >= k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    _check_decomposition(decomposition, graph)
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


class Merge(NamedTuple):
    """A merge-log row as an event: absorbed cluster ids fold into the survivor."""

    level: int
    absorbed: tuple[int, ...]
    survivor: int


class MergeLog:
    """A family's merges as an int32 (M, 4) table, one row per merge: level,
    survivor, absorbed0, and absorbed1 or -1 (at most three clusters join in
    a merge), levels never increasing. Iterating yields `Merge` views."""

    __slots__ = ("table",)

    def __init__(self, table) -> None:
        self.table = np.asarray(table, dtype=np.int32).reshape(-1, 4)

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator[Merge]:
        for level, survivor, a0, a1 in self.table.tolist():
            yield Merge(level, (a0,) if a1 < 0 else (a0, a1), survivor)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MergeLog) and np.array_equal(self.table, other.table)


_REPLAY_CHUNK = 1 << 10   # link rows converted to Python per step of a replay


def _replay(links: np.ndarray, nodes: int, leaves: int) -> MergeLog:
    """The merge log of a link table: its rows in order over a union-find
    with path halving whose roots are the smallest nodes of their
    components. A row that joins components holding a leaf merges those
    clusters at the row's level, under the smallest root."""
    parent = list(range(nodes))
    log = array("i")
    for lo in range(0, len(links), _REPLAY_CHUNK):
        for level, x, y, z in links[lo : lo + _REPLAY_CHUNK].tolist():
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if z < 0:
                z = x
            while parent[z] != z:
                parent[z] = z = parent[parent[z]]
            # order the roots x <= y <= z; inline swaps beat sorted() here
            if x > y:
                x, y = y, x
            if y > z:
                y, z = z, y
                if x > y:
                    x, y = y, x
            if x == z:
                continue
            parent[z] = x
            if x < y < z:
                parent[y] = x
                if y < leaves:
                    log.extend((level, x, y, z if z < leaves else -1))
            elif z < leaves:
                log.extend((level, x, z, -1))
    return MergeLog(log)


def _link_ends(links: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level and both nodes of every link a table makes: x-y for each row,
    and x-z for each row whose z is not -1."""
    third = links[:, 3] >= 0
    return tuple(np.concatenate((links[:, c], links[third, d])) for c, d in ((0, 0), (1, 1), (2, 3)))


@dataclass(frozen=True, eq=False)
class ClusterFamily:
    """Agglomerative family of edge clusters with merge levels.

    Leaves are single edges in the order they were added (descending class,
    ascending edge id within a class). `links` is an int32 (L, 4) table of
    rows (level, x, y, z), levels never increasing, each joining node x to
    y and, unless z is -1, to z. Nodes below len(leaf_edges) are leaves (the
    truss links add vertex nodes). The leaves of a component of the links
    at levels >= k are a cluster alive at k, whose id, its smallest leaf, is
    the component's smallest node. `cuts` finds those components for many
    levels in one descent from the top, contracting only the links each
    level adds; `clusters_at` is one step of it. A merge log is such a
    table; `merges` replays the links into one on first read, the lowest id
    surviving.
    """

    leaf_edges: tuple[int, ...]
    leaf_levels: tuple[int, ...]
    links: np.ndarray = field(repr=False)
    nodes: int

    @classmethod
    def from_merges(cls, leaf_edges: Sequence[int], leaf_levels: Sequence[int], merges: MergeLog):
        """The family whose links are the given merge log."""
        family = cls(tuple(leaf_edges), tuple(leaf_levels), merges.table, len(leaf_edges))
        family.__dict__["merges"] = merges
        return family

    @cached_property
    def merges(self) -> MergeLog:
        return _replay(self.links, self.nodes, len(self.leaf_edges))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterFamily):
            return NotImplemented
        mine = (self.leaf_edges, self.leaf_levels, self.merges)
        return mine == (other.leaf_edges, other.leaf_levels, other.merges)

    def cuts(self, ks: Iterable[int]) -> Iterator[tuple[int, np.ndarray]]:
        """One descent through the given levels: for each distinct k, in
        descending order, (k, root), where root is an int32 array giving
        every node the smallest node of its component among the links at
        levels >= k. Each step contracts only the links that entered since
        the previous one, over the previous step's roots."""
        down = -self.links[:, 0]   # ascending: link rows come in non-increasing level
        root = np.arange(self.nodes, dtype=np.int32)
        start = 0
        for k in sorted(set(ks), reverse=True):
            stop = int(np.searchsorted(down, -k, side="right"))
            if stop > start:
                _, a, b = _link_ends(self.links[start:stop])
                if start:   # join the old roots, then read every node through its root
                    root = _component_labels(self.nodes, root[a], root[b])[root]
                else:       # the first links join nodes that are their own roots
                    root = _component_labels(self.nodes, a, b)
                start = stop
            yield k, root

    def leaves_at(self, k: int) -> int:
        """How many leaves sit at levels >= k: they come first."""
        return bisect_right(self.leaf_levels, -k, key=neg)

    def clusters_at(self, k: int, min_size: int = 1) -> list[frozenset[int]]:
        """Edge sets of the clusters alive at level k with at least min_size
        edges, ordered by cluster id."""
        ((_, root),) = self.cuts([k])
        alive = self.leaves_at(k)
        groups = _label_groups(np.arange(alive), root[:alive])
        return [frozenset(self.leaf_edges[i] for i in g) for g in groups if len(g) >= min_size]

    def summit_clusters(self, min_size: int = 2) -> list[tuple[int, frozenset[int]]]:
        """Clusters formed at one level from leaves no link above it reached.

        Such a cluster is a component of the links at exactly its level none
        of whose nodes has a link at a higher level; a cluster that absorbs
        one formed higher up is none. A leaf no link reaches never forms one.
        Returns (formation level, edge set) pairs ordered by cluster id.
        """
        level, a, b = _link_ends(self.links)
        top = np.full(self.nodes, -1, dtype=level.dtype)   # highest level linking each node
        np.maximum.at(top, a, level)
        np.maximum.at(top, b, level)
        a_top, b_top = top[a] == level, top[b] == level
        both = a_top & b_top
        # a link to a node linked higher up spoils the other end's component
        seeds = np.concatenate((a[a_top & ~both], b[b_top & ~both]))
        a, b = a[both], b[both]
        del level, a_top, b_top, both    # bounds the peak on large families
        label = _component_labels(self.nodes, a, b)
        stale = np.zeros(self.nodes, dtype=bool)
        stale[label[seeds]] = True
        leaves = np.flatnonzero(((top >= 0) & ~stale[label])[: len(self.leaf_edges)])
        return [
            (int(top[g[0]]), frozenset(self.leaf_edges[i] for i in g))
            for g in _label_groups(leaves, label[leaves])
            if len(g) >= min_size
        ]


def truss_leaves(decomposition: KClassDecomposition, graph: Graph) -> tuple[list[int], list[int]]:
    """Edge ids in the order cluster families add them as leaves
    (descending class, ascending id within a class), and their classes. The
    ids share their ints with `decomposition.classes`."""
    _check_decomposition(decomposition, graph)
    classes = decomposition.classes
    leaf_edges = list(chain.from_iterable(classes[k] for k in sorted(classes, reverse=True)))
    return leaf_edges, [decomposition.phi[e] for e in leaf_edges]


def _vertex_family(graph: Graph, leaf_edges: Sequence[int], leaf_levels: Sequence[int]):
    """The hierarchy of edge-connected clusters as links: leaf i joins the
    two vertex nodes of its edge at its level, vertex v being node L+v for
    L leaves, given in descending level."""
    count = len(leaf_edges)
    links = np.empty((count, 4), dtype=np.int32)
    links[:, 0], links[:, 1] = leaf_levels, np.arange(count)
    links[:, 2:] = graph.ends[np.array(leaf_edges, dtype=np.int64)] + count
    return ClusterFamily(tuple(leaf_edges), tuple(leaf_levels), links, count + graph.n)


def vertex_summits(
    graph: Graph, leaf_edges: Sequence[int], leaf_levels: Sequence[int]
) -> list[tuple[int, frozenset[int]]]:
    """Every component of the given edges at levels >= k whose edges all
    sit at k, as (k, edge set) pairs ordered by k, then by smallest edge id.
    Leaves come in descending level."""
    summits = _vertex_family(graph, leaf_edges, leaf_levels).summit_clusters(min_size=1)
    return sorted(summits, key=lambda pair: (pair[0], min(pair[1])))


def truss_dendrogram(decomposition: KClassDecomposition, graph: Graph) -> ClusterFamily:
    """Full dendrogram of maximal trusses by single-link agglomeration: an
    arriving edge joins the clusters of its endpoints' components.

    Returned with its merge log built and as its links. Cutting at level k
    reproduces trusses_at(k); merge levels never increase along the log.
    """
    family = _vertex_family(graph, *truss_leaves(decomposition, graph))
    return ClusterFamily.from_merges(family.leaf_edges, family.leaf_levels, family.merges)


def summit_trusses(
    decomposition: KClassDecomposition, graph: Graph
) -> list[tuple[int, frozenset[int]]]:
    """Maximal trusses whose edges all sit exactly at the truss's own level.

    An edge belonging to a higher class would put the truss inside one of
    higher support, so such members are dropped. Results are (k, edge set)
    pairs ordered by k, then by smallest edge id; the union is
    edge-disjoint.
    """
    return vertex_summits(graph, *truss_leaves(decomposition, graph))

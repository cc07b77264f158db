"""Trussness decomposition and the truss cluster family.

An edge's trussness is 2 plus the highest support level at which it still
belongs to a truss. One level-synchronous peel over the triangle list
(frontier sub-rounds, as in Kabir & Madduri's PKT) yields the full
decomposition, plain or weighted, with near-linear work in the triangles after
the O(m^1.5) listing; maximal k-trusses are then components of the edges at
class k and above. A cluster family is three int32 arrays: its leaves' edges
and levels, and a link table built by adding classes from the top down. Its
cuts and summits are components of the links, and its merge log (the
dendrogram) is an int32 table built on first read: from the vertex
spanning forest for the truss dendrogram (`forest.forest_merges`), by a
replay of the links for other families. Every cluster result is one
`Clusters` store, built from component labels by one sort, its clusters
ordered by smallest edge id and each carrying its level. A decomposition
carries its graph, so its readers take the decomposition alone.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .forest import forest_merges
from .graph import (
    Graph,
    _component_labels,
    _edge_components,
    _first_seen,
    _grouped,
    _incidence,
    _ranges,
    _stable_sort,
)
from .triangles import SupportMap, triangle_list


@dataclass(frozen=True, eq=False)
class KClassDecomposition:
    """Per-edge trussness and the classes it induces.

    `trussness` is the one store, an int64 array with one value per edge;
    `phi` (a tuple) and `classes` (a dict) are views of it built on first
    read. `triangles` is the triangle list it was peeled from, an int32
    (T, 3) array of edge ids; the strong-truss family reads it as links
    rather than scanning `graph`, the graph it was peeled from, again.
    Decompositions are equal when their graphs (the same object, or equal
    graphs) and their trussness values are.
    """

    trussness: np.ndarray
    triangles: np.ndarray = field(repr=False)
    graph: Graph = field(repr=False)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KClassDecomposition)
            and (self.graph is other.graph or self.graph == other.graph)
            and np.array_equal(self.trussness, other.trussness)
        )

    @property
    def k_max(self) -> int:
        return int(self.trussness.max(initial=0))

    @cached_property
    def phi(self) -> tuple[int, ...]:
        """The trussness as Python ints, in edge id order."""
        return tuple(self.trussness.tolist())

    @cached_property
    def classes(self) -> dict[int, list[int]]:
        """k -> edge ids with trussness k, ascending; keyed in order of each
        level's first edge."""
        number, count, first = _first_seen(self.trussness, self.k_max + 1)
        groups = np.split(_stable_sort(number, len(count), keys=False), np.cumsum(count)[:-1])
        return {level: eids.tolist() for level, eids in zip(self.trussness[first].tolist(), groups)}


@dataclass(frozen=True, eq=False)
class Clusters(Sequence):
    """Edge clusters as one CSR store, the one form of every cluster result:
    cluster i holds the ascending int32 edge ids edges[start[i]:start[i + 1]]
    (start is int64) and sits at level[i] (int32); clusters are ordered by
    smallest edge id. As a sequence it reads as its `view`, each cluster's
    frozenset in that order, built on first read. It equals stores, lists
    and tuples whose items its view equals."""

    edges: np.ndarray
    start: np.ndarray
    level: np.ndarray

    @cached_property
    def view(self) -> tuple[frozenset[int], ...]:
        flat, bounds = self.edges.tolist(), self.start.tolist()
        return tuple(frozenset(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def __len__(self) -> int:
        return len(self.level)

    def __getitem__(self, index):
        return self.view[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Clusters, list, tuple)):
            return NotImplemented
        return self.view == tuple(other)


def _at_level(k: int, edges: np.ndarray, start: np.ndarray) -> Clusters:
    return Clusters(edges, start, np.full(len(start) - 1, k, dtype=np.int32))


class _LevelQueue:
    """Live edges keyed by residual support, popped one key at a time.

    An entry (key, e) is current while cur[e] == key; an edge whose support
    drops is pushed again and its older entry goes stale. A peeled edge's
    support freezes at the level that peeled it, below every key still
    queued, so its entries go stale too. Entries live in sorted runs: a
    pushed run absorbs every older run at most twice its length, dropping
    stale entries, so there are O(log) runs.
    """

    def __init__(self, cur: np.ndarray) -> None:
        self.cur = cur
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []

    def push(self, keys: np.ndarray, ids: np.ndarray) -> None:
        while self.runs and len(self.runs[-1][0]) <= 2 * len(keys):
            old_keys, old_ids = self.runs.pop()
            keep = self.cur[old_ids] == old_keys
            keys = np.concatenate((old_keys[keep], keys))
            ids = np.concatenate((old_ids[keep], ids))
        keys, order = _stable_sort(keys, int(keys.max(initial=0)) + 1)
        self.runs.append((keys, ids[order]))

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
            ids = ids[self.cur[ids] == key]
            if len(ids):
                return key, ids


# the death stamp of an edge not yet peeled
_ALIVE = np.iinfo(np.int32).max


def peel_triangles(
    m: int,
    triangles: np.ndarray,
    initial: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-edge trussness phi by the level-synchronous peel shared by plain
    and weighted trussness.

    Levels are visited in increasing order of the smallest residual support
    f left, giving trussness k = f+2. Each sub-round removes every live
    edge whose residual support is at most f, kills the live triangles
    those edges touch, and subtracts each killed triangle's weight (1 when
    weights is None) from its surviving edges, clamped at f; the edges that
    reach f form the next sub-round. Supports and decrements are exact
    int64 arithmetic. The level queue keeps the cost of finding each level
    proportional to the edges it touches, not to m.

    Each triangle is killed once, with no per-triangle state: a peeled edge
    takes a death stamp, its place in the peel order, and of the slots a
    sub-round visits in one live triangle, the one whose edge has the
    row's lowest stamp kills it. A triangle killed earlier holds a lower
    stamp than any this sub-round gives, so none of its slots kills it again.
    """
    tri = np.asarray(triangles).reshape(-1, 3)
    # the triangles of edge e are tri_of[ptr[e]:ptr[e+1]]
    ptr, tri_of = _incidence(tri.ravel(), m, 3)
    # an edge's residual support freezes at f when it is peeled: phi = f+2
    cur = np.array(initial, dtype=np.int64)
    # a live edge's stamp is free: distinct() uses it as scratch, then
    # restores it
    stamp = np.full(m, _ALIVE, dtype=np.int32)

    def distinct(ids: np.ndarray) -> np.ndarray:
        # one copy of each live id: whichever write won its stamp
        pos = np.arange(len(ids), dtype=np.int32)
        stamp[ids] = pos
        ids = ids[stamp[ids] == pos]
        stamp[ids] = _ALIVE
        return ids

    queue = _LevelQueue(cur)
    queue.push(cur, np.arange(m, dtype=np.int32))
    peeled = 0
    while peeled < m:
        f, peel = queue.pop()
        peel = distinct(peel)
        # nothing pops the queue within a level: the edges a level moves to
        # later keys are pushed once, when it ends, at the supports they end
        # it with; an entry an edge's later drop outdates goes stale
        moved: list[np.ndarray] = []
        while len(peel):
            mine = np.arange(peeled, peeled + len(peel), dtype=np.int32)
            stamp[peel] = mine
            peeled += len(peel)
            lo, hi = ptr[peel], ptr[peel + 1]
            killed = tri_of[_ranges(lo, hi)]
            rows = tri.take(killed, axis=0)
            # per row, which edges survive and the lowest stamp, read a
            # column at a time, as each casts its edge ids to intp
            survives = np.empty(rows.shape, dtype=bool)
            lowest = np.full(len(rows), _ALIVE, dtype=np.int32)
            for j in range(3):
                stamps = stamp[rows[:, j]]
                np.equal(stamps, _ALIVE, out=survives[:, j])
                np.minimum(lowest, stamps, out=lowest)
            del stamps
            # the slot whose edge holds the row's lowest stamp kills it
            survives &= (lowest == np.repeat(mine, hi - lo))[:, None]
            survives = np.flatnonzero(survives)
            hit = rows.ravel()[survives]
            del rows
            if weights is None:
                np.subtract.at(cur, hit, 1)
            else:
                survives //= 3
                np.subtract.at(cur, hit, weights[killed[survives]])
            del killed, survives
            hit = distinct(hit)
            low = np.maximum(cur[hit], f)
            cur[hit] = low
            later = low > f
            moved.append(hit[later])
            peel = hit[~later]
        moved = np.concatenate(moved)
        # an edge moved, then peeled, in this level is frozen at f
        moved = distinct(moved[cur[moved] > f])
        if len(moved):
            queue.push(cur[moved], moved)
    return cur + 2


def k_classes(graph: Graph, supports: SupportMap) -> KClassDecomposition:
    """Trussness of every edge from its triangle supports.

    Reuses the triangle list the supports were counted from, and the row
    weights of weighted supports; supports from elsewhere (a test oracle) get
    a fresh listing.
    """
    if len(supports.support) != graph.m:
        raise ValueError("support map does not match graph")
    triangles = supports.triangles
    if triangles is None:
        triangles = triangle_list(graph)
    trussness = peel_triangles(graph.m, triangles, supports.support, supports.weights)
    return KClassDecomposition(trussness, triangles, graph)


def trusses_at(decomposition: KClassDecomposition, k: int) -> Clusters:
    """Maximal k-trusses of the decomposition's graph: components of the
    edges with trussness >= k, as a store at level k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    eids = np.flatnonzero(decomposition.trussness >= k)
    return _at_level(k, *_edge_components(decomposition.graph, eids))


_REPLAY_CHUNK = 1 << 10   # link rows converted to Python per step of a replay


def _replay(links: np.ndarray, nodes: int, leaves: int) -> np.ndarray:
    """The merge log of a link table, an int32 (M, 4) array of rows (level,
    survivor, absorbed0, absorbed1 or -1), levels never increasing: the
    links in order over a union-find with path halving whose roots are the
    smallest nodes of their components. A link that joins components
    holding a leaf merges those clusters (at most three) at its level,
    under the smallest root. The one generic path, one Python step per
    link: the strong family's log comes from it, and it is the reference
    the vertex family's `forest_merges` is tested against."""
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
    return np.frombuffer(log, dtype=np.int32).reshape(-1, 4)


def _link_nodes(links: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, y and z node columns of link rows, as views of the table, y
    standing in for the z of a row without one: three columns for the
    row-wise component kernel. Only a table with such rows pays a copy."""
    x, y, z = links[:, 1], links[:, 2], links[:, 3]
    return x, y, np.where(z >= 0, z, y) if z.min(initial=0) < 0 else z


@dataclass(frozen=True, eq=False)
class ClusterFamily:
    """Agglomerative family of edge clusters with merge levels, held as
    three int32 arrays and a node count.

    Leaves are single edges in the order they were added (descending class,
    ascending edge id within a class): `leaf_order` holds the edge id of
    each leaf and `leaf_levels` its level. `links` is an int32 (L, 4) table
    of rows (level, x, y, z), levels never increasing, each joining node x
    to y and, unless z is -1, to z. The order of rows within a level means
    nothing to cuts and summits; it orders the replayed merge log, unless a
    family's `merges` sorts its own copy of the links first, as the strong
    family's does. Nodes below len(leaf_order) are leaves
    (the truss links add vertex nodes). The leaves of a component of the
    links at levels >= k are a cluster alive at k, whose id, its smallest
    leaf, is the component's smallest node. `cuts` finds those components
    for many levels in one descent from the top, contracting only the links
    each level adds; `clusters_at` is one step of it. `merges` is the merge
    log, built on first read, an int32 (M, 4) array of rows (level,
    survivor, absorbed0, absorbed1 or -1), the lowest id surviving: a
    replay of the links here, and from the spanning forest in a vertex
    family, whose every leaf is pendant. Families are equal when their
    leaves and merge logs are.
    """

    leaf_order: np.ndarray    # int32 edge id per leaf
    leaf_levels: np.ndarray   # int32 level per leaf, never increasing
    links: np.ndarray = field(repr=False)
    nodes: int

    @cached_property
    def merges(self) -> np.ndarray:
        return _replay(self.links, self.nodes, len(self.leaf_order))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterFamily):
            return NotImplemented
        return (
            np.array_equal(self.leaf_order, other.leaf_order)
            and np.array_equal(self.leaf_levels, other.leaf_levels)
            and np.array_equal(self.merges, other.merges)
        )

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
                x, y, z = _link_nodes(self.links[start:stop])
                # join the old roots, then read every node through its root
                root = _component_labels(self.nodes, root[x], root[y], root[z])[root]
                start = stop
            yield k, root

    def leaves_at(self, k: int) -> int:
        """How many leaves sit at levels >= k: they come first."""
        return int(np.searchsorted(-self.leaf_levels, -k, side="right"))

    def cut(self, k: int, root: np.ndarray, min_size: int = 1) -> Clusters:
        """The clusters alive at level k with at least min_size edges, from
        the root array `cuts` yields for k, as a store at level k."""
        alive = self.leaves_at(k)
        edges, start, _ = _grouped(self.leaf_order[:alive], root[:alive], min_size)
        return _at_level(k, edges, start)

    def clusters_at(self, k: int, min_size: int = 1) -> Clusters:
        """The clusters alive at level k with at least min_size edges: one
        step of `cuts`, as a store at level k."""
        ((_, root),) = self.cuts([k])
        return self.cut(k, root, min_size)

    def summit_clusters(self, min_size: int = 2) -> Clusters:
        """Clusters formed at one level from leaves no link above it reached.

        Such a cluster is a component of the links at exactly its level none
        of whose nodes has a link at a higher level; a cluster that absorbs
        one formed higher up is none. A leaf no link reaches never forms one.
        Read per link row: each node peaks at the top level among the rows
        it is in; a row joins its nodes only if all of them peak at its
        level, and otherwise spoils the components of those that do. The
        joining rows go to the component kernel as their x, y and z
        columns, with no pairwise copy of the link ends. Returns a store of
        the clusters, each at its formation level.
        """
        level = self.links[:, 0]
        ends = _link_nodes(self.links)
        top = np.full(self.nodes, -1, dtype=level.dtype)   # highest level linking each node
        for end in ends:
            np.maximum.at(top, end, level)
        peaks = [top[end] == level for end in ends]
        joins = peaks[0] & peaks[1] & peaks[2]
        seeds = np.concatenate([end[peak & ~joins] for end, peak in zip(ends, peaks)])
        del peaks    # bounds the peak on large families
        label = _component_labels(self.nodes, *(end[joins] for end in ends))
        del ends, joins
        stale = np.zeros(self.nodes, dtype=bool)
        stale[label[seeds]] = True
        leaves = np.flatnonzero(((top >= 0) & ~stale[label])[: len(self.leaf_order)])
        # a cluster's label is its smallest node, a leaf: its id
        edges, start, ids = _grouped(self.leaf_order[leaves], label[leaves], min_size)
        return Clusters(edges, start, top[ids])


class _VertexFamily(ClusterFamily):
    """A cluster family whose every leaf is pendant, its one link joining
    it to the two vertex nodes of its edge. Its merge log comes from the
    vertex spanning forest (`forest_merges`), not from a replay."""

    @cached_property
    def merges(self) -> np.ndarray:
        return forest_merges(self.links, self.nodes, len(self.leaf_order))


def _leaves(level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges at levels >= 1 in descending level, ascending id within a
    level, and their levels, as int32 arrays: a family's leaves."""
    top = int(level.max(initial=0))
    order = _stable_sort(top - level, top + 1, keys=False)[: np.count_nonzero(level)]
    order = order.astype(np.int32)
    return order, level[order].astype(np.int32, copy=False)


def truss_leaves(decomposition: KClassDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Every edge in the order cluster families add them as leaves
    (descending class, ascending id within a class), and their classes."""
    return _leaves(decomposition.trussness)


def _vertex_family(graph: Graph, leaf_order: np.ndarray, leaf_levels: np.ndarray):
    """The hierarchy of edge-connected clusters as links: leaf i joins the
    two vertex nodes of its edge at its level, vertex v being node L+v for
    L leaves, given in descending level."""
    count = len(leaf_order)
    links = np.empty((count, 4), dtype=np.int32)
    links[:, 0], links[:, 1] = leaf_levels, np.arange(count)
    links[:, 2:] = graph.ends[leaf_order] + count
    return _VertexFamily(leaf_order, leaf_levels, links, count + graph.n)


def truss_dendrogram(decomposition: KClassDecomposition) -> ClusterFamily:
    """Full dendrogram of maximal trusses by single-link agglomeration: an
    arriving edge joins the clusters of its endpoints' components.

    Returned as the vertex family with its merge log already built from
    the spanning forest, so building it is part of this call. Cutting at
    level k reproduces trusses_at(k); merge levels never increase along the
    log.
    """
    family = _vertex_family(decomposition.graph, *truss_leaves(decomposition))
    family.merges
    return family


def summit_trusses(decomposition: KClassDecomposition) -> Clusters:
    """Maximal trusses whose edges all sit exactly at the truss's own level.

    An edge belonging to a higher class would put the truss inside one of
    higher support, so such members are dropped. Returns a store of the
    trusses, each at its level. The union is edge-disjoint.
    """
    family = _vertex_family(decomposition.graph, *truss_leaves(decomposition))
    return family.summit_clusters(min_size=1)

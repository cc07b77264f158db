"""Strong trusses: triangle-connected refinements of maximal trusses.

Edges are added from the highest class downward. The family is the
triangle list the decomposition was peeled from, read as links: each
triangle joins its last-arriving edge to the other two at that edge's class
level, and the links are ordered by level alone. Strong trusses at level k
are components of the links at >= k; the family's `cuts` yields them for
many levels from one descent, which is how the benchmark scores every level
of a trial. Summits are components of the links at one level that no higher
link touches. Neither reads the order of the links within a level; only
the merge log does, and it sorts and replays its own copy of the links
when first read. Both return one `Clusters` store, its clusters ordered by
smallest edge id, as every cluster result is. The family reads its graph
from the decomposition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import truss
from .graph import Graph, _sort_rows, _stable_sort
from .truss import Clusters, ClusterFamily, KClassDecomposition, truss_leaves


def strong_truss_family(decomposition: KClassDecomposition) -> ClusterFamily:
    """Agglomerative family of strong trusses from the decomposition's k-classes.

    Within a class, edges enter in ascending edge id. Each row of the
    decomposition's triangle list is one link row (level, last leaf, first
    leaf, middle leaf), at the level of its last edge to enter; the rows
    are ordered by level alone, by one stable sort, since cuts and summits
    read only which rows sit at each level. The merge log, the int32 rows
    `merges` replays from the links on first read, orders its own copy of
    them: by last edge to enter, then by ascending id of the third vertex,
    the one that edge does not touch. Cluster ids follow addition order and
    the lowest id survives a merge, which pins the log for snapshot tests.
    """
    graph = decomposition.graph
    order, leaf_levels = truss_leaves(decomposition)
    leaf_of_edge = np.empty(graph.m, dtype=np.int32)
    leaf_of_edge[order] = np.arange(graph.m, dtype=np.int32)
    rows = _sort_rows(leaf_of_edge[decomposition.triangles])
    del leaf_of_edge
    top = int(leaf_levels.max(initial=0))
    by_level = _stable_sort(top - leaf_levels[rows[:, 2]], top + 1, keys=False)
    links = np.empty((len(rows), 4), dtype=np.int32)
    for column, leaf in ((1, 2), (2, 0), (3, 1)):   # last, first, middle
        links[:, column] = rows[by_level, leaf]
    del rows, by_level
    links[:, 0] = leaf_levels[links[:, 1]]
    return _StrongFamily(order, leaf_levels, links, graph.m, graph.ends)


@dataclass(frozen=True, eq=False)
class _StrongFamily(ClusterFamily):
    """A strong-truss family: its link rows are (level, last leaf, first
    leaf, middle leaf), and `ends`, the graph's edge store, gives the third
    vertex of each row's triangle, which orders its merge log."""

    ends: np.ndarray = field(repr=False)

    @cached_property
    def merges(self) -> np.ndarray:
        links, edge = self.links, self.leaf_order
        # the third vertex is the endpoint of the first edge off the last edge
        first, last = self.ends[edge[links[:, 2]]], self.ends[edge[links[:, 1]]]
        off = (first[:, 0] != last[:, 0]) & (first[:, 0] != last[:, 1])
        third = np.where(off, first[:, 0], first[:, 1])
        del first, last, off
        # by last leaf, then third vertex: one packed key for the one sort kernel
        n = int(third.max(initial=-1)) + 1
        key = links[:, 1].astype(np.int64) * n + third
        links = links[_stable_sort(key, len(edge) * n, keys=False)]
        # looked up on the module at call time, where tests count the replays
        return truss._replay(links, self.nodes, len(edge))


def strong_trusses_at(family: ClusterFamily, k: int) -> Clusters:
    """Strong k-trusses: clusters alive at level k with at least 2 edges,
    from one step of the family's descent, as a store at level k. To cut
    many levels, descend once with `family.cuts`."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return family.clusters_at(k, min_size=2)


def summit_strong_trusses(family: ClusterFamily) -> Clusters:
    """Strong trusses formed at one level from edges no triangle above it
    reached.

    Absorbing a multi-edge cluster formed at a higher level means some edge
    already sits in a stronger truss, so such clusters are excluded.
    Returns a store of the trusses, each at its formation level.
    """
    return family.summit_clusters(min_size=2)


def triangle_connected_components(graph: Graph, edge_ids: list[int]) -> list[frozenset[int]]:
    """Oracle: breadth-first search over shared triangles, restricted to the
    given edges. Quadratic-ish; test use only."""
    eids = sorted(set(edge_ids))
    eidset = set(eids)
    seen: set[int] = set()
    components: list[frozenset[int]] = []
    for start in eids:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            e = queue.popleft()
            u, v = graph.edges[e]
            for w, e_uw in graph.adj[u].items():
                if e_uw not in eidset:
                    continue
                e_vw = graph.adj[v].get(w)
                if e_vw is None or e_vw not in eidset:
                    continue
                for nxt in (e_uw, e_vw):
                    if nxt not in seen:
                        seen.add(nxt)
                        comp.add(nxt)
                        queue.append(nxt)
        components.append(frozenset(comp))
    return components


def is_strong_truss(graph: Graph, edge_ids: frozenset[int], k: int) -> bool:
    """Direct definition check: internal support >= k-2 on every edge and
    the edge set triangle-connected within itself."""
    nbr: dict[int, set[int]] = {}
    for eid in edge_ids:
        lo, hi = graph.edges[eid]
        nbr.setdefault(lo, set()).add(hi)
        nbr.setdefault(hi, set()).add(lo)
    for eid in edge_ids:
        lo, hi = graph.edges[eid]
        if len(nbr[lo] & nbr[hi]) < k - 2:
            return False
    return len(triangle_connected_components(graph, sorted(edge_ids))) == 1

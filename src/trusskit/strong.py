"""Strong trusses: triangle-connected refinements of maximal trusses.

Edges are added from the highest class downward. The family is the
triangle list the decomposition was peeled from, read as links: each
triangle joins its last-arriving edge to the other two at that edge's class
level. Strong trusses at level k are components of the links at >= k;
the family's `cuts` yields them for many levels from one descent, which is
how the benchmark scores every level of a trial. Summits are components of
the links at one level that no higher link touches, and the merge log is
replayed from the links only when read.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .graph import Graph
from .truss import ClusterFamily, KClassDecomposition, truss_leaves


def strong_truss_family(graph: Graph, decomposition: KClassDecomposition) -> ClusterFamily:
    """Agglomerative family of strong trusses from the k-classes.

    Within a class, edges enter in ascending edge id. Each row of the
    decomposition's triangle list is one link row, ordered by its last
    edge to enter; triangles closed by the same edge go in ascending id of
    their third vertex, the one that edge does not touch. Cluster ids follow
    addition order and the lowest id survives a merge, which pins the merge
    log for snapshot tests.
    """
    m = graph.m
    leaf_edges, leaf_levels = truss_leaves(decomposition, graph)
    order = np.array(leaf_edges, dtype=np.int32)
    leaf_of_edge = np.empty(m, dtype=np.int32)
    leaf_of_edge[order] = np.arange(m, dtype=np.int32)
    rows = np.sort(leaf_of_edge[decomposition.triangles], axis=1)
    # the third vertex is the endpoint of the first edge off the last edge
    first, last = graph.ends[order[rows[:, 0]]], graph.ends[order[rows[:, 2]]]
    off = (first[:, 0] != last[:, 0]) & (first[:, 0] != last[:, 1])
    third = np.where(off, first[:, 0], first[:, 1])
    rows = rows[np.lexsort((third, rows[:, 2]))]
    del order, first, last, off, third
    links = np.empty((len(rows), 4), dtype=np.int32)
    links[:, 0] = np.array(leaf_levels, dtype=np.int32)[rows[:, 2]]
    links[:, 1:] = rows[:, [2, 0, 1]]
    return ClusterFamily(tuple(leaf_edges), tuple(leaf_levels), links, m)


def strong_trusses_at(family: ClusterFamily, k: int) -> list[frozenset[int]]:
    """Strong k-trusses: clusters alive at level k with at least 2 edges,
    from one step of the family's descent. To cut many levels, descend once
    with `family.cuts`."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return family.clusters_at(k, min_size=2)


def summit_strong_trusses(family: ClusterFamily) -> list[tuple[int, frozenset[int]]]:
    """Strong trusses formed at one level from edges no triangle above it
    reached.

    Absorbing a multi-edge cluster formed at a higher level means some edge
    already sits in a stronger truss, so such clusters are excluded.
    Returns (formation level, edge set) pairs ordered by cluster id.
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

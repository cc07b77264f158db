"""Definition-checking oracles and the test-only views of trusskit's stores.

The library keeps only what its pipelines run. What the tests alone read
lives here: brute-force oracles that recompute a result from its
definition, per-vertex views of a graph, edge-subset helpers and views of
an ETP structure's live triads and peripheries. Every oracle is pure
Python over `graph.ends`, so it shares no kernel with the fast path it
checks. The one function here that calls a private kernel is
`component_edge_sets`: it wraps the library's component kernel as the
subject that `bfs_components` checks. Tests import this module as they
import `conftest`.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterable

import numpy as np

from trusskit import Clusters, ETPGraph, Graph, SupportMap, build_graph, vertex_ranking
from trusskit.graph import _edge_components

LOW_APEX = 0
MEDIAN_APEX = 1

_ADJACENCY: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


# -- per-vertex views of a graph ----------------------------------------


def adjacency(graph: Graph) -> tuple[dict[int, int], ...]:
    """Per vertex, neighbor -> edge id in ascending neighbor order; built
    once per graph."""
    table = _ADJACENCY.get(graph)
    if table is None:
        nbr: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
        for eid, (lo, hi) in enumerate(graph.ends.tolist()):
            nbr[lo].append((hi, eid))
            nbr[hi].append((lo, eid))
        table = _ADJACENCY[graph] = tuple(dict(sorted(pairs)) for pairs in nbr)
    return table


def _vertex(graph: Graph, v: int) -> int:
    if not 0 <= v < graph.n:
        raise IndexError(f"vertex {v} out of range for n={graph.n}")
    return v


def degree(graph: Graph, v: int) -> int:
    return int(graph.degrees[_vertex(graph, v)])


def neighbors(graph: Graph, v: int) -> list[int]:
    """Neighbors of v in ascending vertex order."""
    return list(adjacency(graph)[_vertex(graph, v)])


def edge_id(graph: Graph, u: int, v: int) -> int | None:
    """Edge id for the pair (u, v) in either order, or None; None also for
    ids outside 0..n-1."""
    return adjacency(graph)[u].get(v) if 0 <= u < graph.n else None


def has_edge(graph: Graph, u: int, v: int) -> bool:
    return edge_id(graph, u, v) is not None


def edge_label_pair(graph: Graph, eid: int) -> tuple[str, str]:
    if not 0 <= eid < graph.m:
        raise IndexError(f"edge {eid} out of range for m={graph.m}")
    lo, hi = graph.ends[eid].tolist()
    return graph.labels[lo], graph.labels[hi]


# -- edge subsets ----------------------------------------------------------


def _known(graph: Graph, edge_ids: Iterable[int]) -> list[int]:
    """The distinct ids, ascending; ValueError names the first outside 0..m-1."""
    ids = [int(e) for e in edge_ids]
    for e in ids:
        if not 0 <= e < graph.m:
            raise ValueError(f"unknown edge id {e}")
    return sorted(set(ids))


def bfs_components(graph: Graph, edge_ids: Iterable[int]) -> list[list[int]]:
    """Edge-id components by breadth-first search over the given edges,
    ordered by smallest edge id, ascending within each."""
    ends = graph.ends.tolist()
    eids = sorted(set(edge_ids))
    incident: dict[int, list[int]] = {}
    for e in eids:
        for v in ends[e]:
            incident.setdefault(v, []).append(e)
    seen: set[int] = set()
    comps = []
    for start in eids:
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [], deque([start])
        while queue:
            e = queue.popleft()
            comp.append(e)
            for v in ends[e]:
                for f in incident[v]:
                    if f not in seen:
                        seen.add(f)
                        queue.append(f)
        comps.append(sorted(comp))
    return comps


def component_edge_sets(graph: Graph, edge_ids: Iterable[int]) -> list[list[int]]:
    """Connected components of the subgraph induced by the given edges, by
    the library's component kernel: lists of edge ids, one per component,
    ordered by their smallest edge id, ascending within each; repeated ids
    count once."""
    edges, start = _edge_components(graph, np.array(_known(graph, edge_ids), dtype=np.int64))
    flat, bounds = edges.tolist(), start.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def connected_components(graph: Graph) -> list[list[int]]:
    """Partition edge ids by connected component, in the order of
    component_edge_sets. Isolated vertices carry no edges and do not appear."""
    return component_edge_sets(graph, range(graph.m))


@dataclass(frozen=True)
class Subgraph:
    """Graph induced by an edge subset, with maps back to the parent."""

    graph: Graph
    vertex_of: tuple[int, ...]  # new vertex id -> original vertex id
    edge_of: tuple[int, ...]    # new edge id -> original edge id


def induced_edge_subgraph(graph: Graph, edge_ids: Iterable[int]) -> Subgraph:
    """Subgraph containing exactly the given edges and their endpoints, its
    vertices numbered by first appearance along the ascending edge ids. It
    keeps the parent's weight objects: the used ones, in their order."""
    eids = _known(graph, edge_ids)
    ends = graph.ends.tolist()
    local: dict[int, int] = {}
    pairs = [tuple(local.setdefault(v, len(local)) for v in ends[e]) for e in eids]
    sub = build_graph(len(local), pairs, labels=[graph.labels[v] for v in local])
    if graph.weight_code is not None:
        code = graph.weight_code[eids].tolist()
        used = sorted(set(code))
        values = tuple(graph.weight_values[c] for c in used)
        if not all(type(w) is int and w == 1 for w in values):
            place = {c: i for i, c in enumerate(used)}
            sub = replace(
                sub,
                weight_code=np.array([place[c] for c in code], dtype=np.int32),
                weight_values=values,
            )
    return Subgraph(graph=sub, vertex_of=tuple(local), edge_of=tuple(eids))


def edge_nodes(graph: Graph, edge_ids: Iterable[int]) -> set[int]:
    """Vertex set touched by the given edges."""
    ends = graph.ends.tolist()
    return {v for e in _known(graph, edge_ids) for v in ends[e]}


# -- oracles ---------------------------------------------------------------


def brute_force_supports(graph: Graph) -> SupportMap:
    """Triangle support per edge by common-neighbor intersection. Small
    graphs only (m up to a few thousand)."""
    nbr = [set(a) for a in adjacency(graph)]
    support = [len(nbr[lo] & nbr[hi]) for lo, hi in graph.ends.tolist()]
    return SupportMap(np.array(support, dtype=np.int64))


def iterative_deletion_oracle(graph: Graph, k: int) -> Clusters:
    """Maximal k-trusses by definition: repeatedly remove any edge with
    fewer than k-2 triangles among the survivors, then return the
    components of what remains (breadth-first), as a store at level k.
    Small graphs only."""
    if k < 2:
        raise ValueError("k must be at least 2")
    nbr = [set(a) for a in adjacency(graph)]
    ends = graph.ends.tolist()
    alive = [True] * graph.m
    need = k - 2
    changed = True
    while changed:
        changed = False
        for eid, (lo, hi) in enumerate(ends):
            if not alive[eid]:
                continue
            if len(nbr[lo] & nbr[hi]) < need:
                alive[eid] = False
                nbr[lo].discard(hi)
                nbr[hi].discard(lo)
                changed = True
    comps = bfs_components(graph, [e for e in range(graph.m) if alive[e]])
    return Clusters(
        np.array([e for comp in comps for e in comp], dtype=np.int32),
        np.array(list(accumulate(map(len, comps), initial=0)), dtype=np.int64),
        np.full(len(comps), k, dtype=np.int32),
    )


def triangle_connected_components(graph: Graph, edge_ids: Iterable[int]) -> list[frozenset[int]]:
    """Breadth-first search over shared triangles, restricted to the given
    edges, ordered by smallest edge id."""
    adj, ends = adjacency(graph), graph.ends.tolist()
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
            u, v = ends[e]
            for w, e_uw in adj[u].items():
                if e_uw not in eidset:
                    continue
                e_vw = adj[v].get(w)
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
    ends = graph.ends.tolist()
    nbr: dict[int, set[int]] = {}
    for eid in edge_ids:
        lo, hi = ends[eid]
        nbr.setdefault(lo, set()).add(hi)
        nbr.setdefault(hi, set()).add(lo)
    for eid in edge_ids:
        lo, hi = ends[eid]
        if len(nbr[lo] & nbr[hi]) < k - 2:
            return False
    return len(triangle_connected_components(graph, edge_ids)) == 1


def brute_force_rectangles(graph: Graph) -> list[int]:
    """Simple 4-cycles per edge from common-neighbor pairs. A cycle
    u-w1-v-w2 is tallied from the diagonal (u, v) holding the cycle's
    minimum vertex, so each rectangle counts once. Small graphs only."""
    adj = adjacency(graph)
    nbr = [set(a) for a in adj]
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
                        counts[adj[a][b]] += 1
    return counts


# -- views of an ETP structure ----------------------------------------------


def rectangle_supports(etp: ETPGraph) -> list[int]:
    """Exact 4-cycle count per graph edge, read from an untrimmed structure."""
    if etp.current_k > 0:
        raise ValueError("rectangle supports require an untrimmed structure")
    return etp.support.astype(np.int64).tolist()


def alive_triads(etp: ETPGraph) -> list[tuple[int, int, int, int]]:
    """Live triads as (arm edge, arm edge, periphery, kind) tuples."""
    rank, ends = vertex_ranking(etp.graph).rank.tolist(), etp.graph.ends.tolist()
    out = []
    for e1, e2, p in etp.triads[etp.triad_live].tolist():
        (a, b), (c, d) = ends[e1], ends[e2]
        apex = a if a in (c, d) else b
        outer = {a, b, c, d} - {apex}
        kind = LOW_APEX if all(rank[apex] < rank[v] for v in outer) else MEDIAN_APEX
        out.append((e1, e2, p, kind))
    return out


def alive_periphery_degrees(etp: ETPGraph) -> dict[tuple[int, int], int]:
    """Live degree per live periphery, keyed by its outer vertex pair."""
    n, order = etp.graph.n, vertex_ranking(etp.graph).order
    live = np.flatnonzero(etp.periph_degree)
    key = etp.periph_key[live]
    pairs = zip(order[key // n].tolist(), order[key % n].tolist())
    return dict(zip(pairs, etp.periph_degree[live].tolist()))

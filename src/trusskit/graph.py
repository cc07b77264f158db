"""Immutable simple undirected graphs with canonical edges.

Vertices are dense integers 0..n-1; external string labels live in a side
table. Edges are stored once in canonical (lo, hi) form with lo < hi and an
optional positive weight, as a tuple of pairs and as one int32 (m, 2) array
for the array kernels. Per-vertex adjacency (neighbor -> edge id) is built
on demand; only the oracles and the per-vertex queries read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, Sequence

import numpy as np

Weight = Fraction | int


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph, immutable after construction.

    `edges` and `ends` hold the same canonical pairs. `adj` is built on
    first use, for the oracles and the per-vertex queries.
    """

    n: int
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]          # canonical (lo, hi), lo < hi
    weights: tuple[Weight, ...]
    ends: np.ndarray = field(compare=False, repr=False)  # int32 (m, 2), as edges

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex, an int64 array of length n."""
        return np.bincount(self.ends.ravel(), minlength=self.n)

    @cached_property
    def adj(self) -> tuple[dict[int, int], ...]:
        """Per vertex, neighbor -> edge id in ascending neighbor order."""
        nbr: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (lo, hi) in enumerate(self.edges):
            nbr[lo].append((hi, eid))
            nbr[hi].append((lo, eid))
        return tuple(dict(sorted(pairs)) for pairs in nbr)

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v in ascending vertex order."""
        return list(self.adj[v])

    def edge_id(self, u: int, v: int) -> int | None:
        """Edge id for the pair (u, v) in either order, or None; None also
        for ids outside 0..n-1."""
        return self.adj[u].get(v) if 0 <= u < self.n else None

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None

    def edge_label_pair(self, eid: int) -> tuple[str, str]:
        lo, hi = self.edges[eid]
        return self.labels[lo], self.labels[hi]


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    weights: Sequence[Weight] | None = None,
    labels: Sequence[str] | None = None,
) -> Graph:
    """Assemble a Graph from already-deduplicated vertex pairs.

    Pairs are canonicalized to (lo, hi). Self loops, vertex ids outside
    0..n-1 and duplicates are rejected here (the edge-list loader applies
    its own lenient policy before calling this).
    """
    canon = [(u, v) if u < v else (v, u) for u, v in edges]
    # the id type is inferred, so no id is truncated or wrapped unchecked
    ends = np.array(canon).reshape(-1, 2) if canon else np.empty((0, 2), np.int64)
    outside = ends[(ends < 0) | (ends >= n)]
    if len(outside):
        raise ValueError(f"vertex {outside[0]} out of range for n={n}")
    if ends.dtype.kind not in "iub":
        raise ValueError("vertex ids must be integers")
    loops = np.flatnonzero(ends[:, 0] == ends[:, 1])
    if len(loops):
        raise ValueError(f"self loop at vertex {ends[loops[0], 0]}")
    keys = np.sort(ends[:, 0] * n + ends[:, 1])
    dup = keys[1:][keys[1:] == keys[:-1]]
    if len(dup):
        raise ValueError(f"duplicate edge {divmod(int(dup[0]), n)}")
    if weights is None:
        ws: tuple[Weight, ...] = (1,) * len(canon)
    else:
        if len(weights) != len(canon):
            raise ValueError("weights length does not match edges")
        for w in weights:
            if w <= 0:
                raise ValueError(f"non-positive edge weight {w}")
        ws = tuple(weights)
    if labels is None:
        label_tuple = tuple(str(i) for i in range(n))
    else:
        if len(labels) != n:
            raise ValueError("labels length does not match vertex count")
        label_tuple = tuple(labels)
    return Graph(
        n=n, labels=label_tuple, edges=tuple(canon), weights=ws, ends=ends.astype(np.int32)
    )


def load_edge_list(stream: IO[str] | Iterable[str], weighted: bool = False) -> Graph:
    """Parse whitespace-separated "u v [w]" lines into a canonical Graph.

    Lines starting with '#' and blank lines are ignored. Self loops are
    dropped. Duplicate edges collapse to one edge keeping the maximum
    weight seen. Vertex ids are assigned by first appearance.
    """
    ids: dict[str, int] = {}
    labels: list[str] = []
    found: dict[tuple[int, int], Weight] = {}

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
                w: Weight = Fraction(tokens[2])
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


@dataclass(frozen=True)
class VertexRanking:
    """Total order over vertices by (degree, external label) ascending."""

    rank: tuple[int, ...]   # vertex id -> rank
    order: tuple[int, ...]  # rank -> vertex id

    def __getitem__(self, v: int) -> int:
        return self.rank[v]


def vertex_ranking(graph: Graph) -> VertexRanking:
    """Rank vertices by degree, breaking ties by external label.

    Using labels rather than internal ids keeps the order independent of the
    input file's line order.
    """
    degree = graph.degrees.tolist()
    order = sorted(range(graph.n), key=lambda v: (degree[v], graph.labels[v]))
    rank = [0] * graph.n
    for r, v in enumerate(order):
        rank[v] = r
    return VertexRanking(rank=tuple(rank), order=tuple(order))


def _component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per node of 0..n-1, the smallest node id joined to it by the links
    (a[i], b[i]): roots hook onto the smaller root across each link, then
    pointers jump to their roots, until no link spans two roots (after
    Shiloach & Vishkin, J. Algorithms 1982)."""
    label = np.arange(n, dtype=np.int32)   # node ids fit int32, as in Graph.ends
    la, lb = a, b
    while len(la):
        # each node points at its root: the ends' roots are their old roots' labels
        la, lb = label[la], label[lb]
        apart = la != lb
        if not apart.any():
            break
        la, lb = la[apart], lb[apart]
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return label


def _label_groups(ids: np.ndarray, label: np.ndarray) -> list[list[int]]:
    """Ascending ids grouped by equal label, groups ordered by smallest id."""
    order = np.argsort(label, kind="stable")
    cuts = (np.flatnonzero(np.diff(label[order])) + 1).tolist()
    flat = ids[order].tolist()
    groups = [flat[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(flat)])]
    return sorted(groups, key=lambda g: g[0]) if flat else []


def component_edge_sets(graph: Graph, edge_ids: Iterable[int]) -> list[list[int]]:
    """Connected components of the subgraph induced by the given edges.

    Returns lists of the original edge ids, one per component, ordered by
    their smallest edge id, with ids ascending within each; repeated ids
    count once.
    """
    eids = np.unique(np.fromiter(edge_ids, np.int64))
    ends = graph.ends[eids]
    label = _component_labels(graph.n, ends[:, 0], ends[:, 1])
    return _label_groups(eids, label[ends[:, 0]])


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
    """Subgraph containing exactly the given edges and their endpoints."""
    eids = sorted(set(edge_ids))
    for eid in eids:
        if not 0 <= eid < graph.m:
            raise ValueError(f"unknown edge id {eid}")
    vertex_of = list(dict.fromkeys(chain.from_iterable(graph.edges[e] for e in eids)))
    vmap = {v: i for i, v in enumerate(vertex_of)}
    pairs = [(vmap[graph.edges[e][0]], vmap[graph.edges[e][1]]) for e in eids]
    sub = build_graph(
        len(vertex_of),
        pairs,
        [graph.weights[e] for e in eids],
        [graph.labels[v] for v in vertex_of],
    )
    return Subgraph(graph=sub, vertex_of=tuple(vertex_of), edge_of=tuple(eids))


def edge_nodes(graph: Graph, edge_ids: Iterable[int]) -> set[int]:
    """Vertex set touched by the given edges."""
    return set(chain.from_iterable(graph.edges[e] for e in edge_ids))

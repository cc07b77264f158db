"""The triangle list and per-edge triangle support.

`triangle_list` is the one production triangle scan: it orients every edge
from its lower- to its higher-ranked endpoint and, for each oriented edge
v->a and each a->b, looks up the closing edge v->b among the sorted
oriented edge keys, so each triangle is found exactly once, from its
minimum-ranked vertex. Worst-case work is O(m^1.5); the listing runs as
numpy array operations over bounded chunks of wedges. Plain supports are
the per-edge row counts of that list, weighted supports sum its rows'
weights, the truss peel walks it and the strong-truss family replays it.
A direct common-neighbor oracle backs the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, VertexRanking, vertex_ranking

# Most wedges (and so triangles) one listing may test. A triangle costs 12
# bytes in the list and up to about 40 more while the peel indexes it.
DEFAULT_TRIANGLE_CAP = 1 << 26
# wedges tested per numpy pass; bounds the listing's scratch arrays
WEDGE_CHUNK = 1 << 17


@dataclass(frozen=True)
class SupportMap:
    """Number of triangles containing each edge.

    `triangles` carries the triangle list the counts came from, when there
    is one, so the peel does not scan again.
    """

    sup: tuple[int, ...]
    triangles: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __getitem__(self, eid: int) -> int:
        return self.sup[eid]

    def total_triangles(self) -> int:
        total = sum(self.sup)
        assert total % 3 == 0
        return total // 3


def triangle_list(graph: Graph, ranking: VertexRanking | None = None) -> np.ndarray:
    """Every triangle once, as an int32 (T, 3) array of edge ids.

    The ranking only steers which vertex finds each triangle; the set of
    triangles is intrinsic to the graph (tested). Passing a ranking avoids
    recomputing it. Triangles never outnumber the wedges tested, so the
    wedge count, known before any row is built, is checked against
    DEFAULT_TRIANGLE_CAP and a ValueError naming it is raised above the cap.
    """
    if ranking is None:
        ranking = vertex_ranking(graph)
    if graph.m == 0:
        return np.empty((0, 3), dtype=np.int32)
    # the generator's arrays are freed before the chunks are joined
    return np.concatenate(list(_triangle_chunks(graph, ranking)))


def _triangle_chunks(graph: Graph, ranking: VertexRanking):
    n, m = graph.n, graph.m
    rank = np.fromiter(ranking.rank, dtype=np.int32, count=n)
    ends = rank[graph.ends]
    # oriented edge v->a, v ranked below a, as key v*n + a, sorted
    key = ends.min(axis=1).astype(np.int64) * n + ends.max(axis=1)
    del ends
    eid = np.argsort(key).astype(np.int32)
    key = key[eid]
    dst = (key % n).astype(np.int32)
    outdeg = np.bincount(key // n, minlength=n)
    start = np.cumsum(outdeg) - outdeg
    ends_at = np.cumsum(outdeg[dst])     # v->a opens |out(a)| wedges
    total = int(ends_at[-1])
    if total > DEFAULT_TRIANGLE_CAP:
        raise ValueError(
            f"triangle listing would test {total} wedges, over the cap of "
            f"{DEFAULT_TRIANGLE_CAP}; the graph is too large to list its triangles"
        )

    lo = 0
    while lo < m:
        base = int(ends_at[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends_at, base + WEDGE_CHUNK, "right")), lo + 1)
        reps = np.diff(ends_at[lo:hi], prepend=base)
        first = np.repeat(np.arange(lo, hi), reps)                      # v->a
        offs = np.arange(len(first)) - np.repeat(ends_at[lo:hi] - reps - base, reps)
        second = start[dst[first]] + offs                                # a->b
        closing = key[first] - dst[first] + dst[second]                  # v->b, if present
        third = np.searchsorted(key, closing)
        np.minimum(third, m - 1, out=third)
        hit = key[third] == closing
        yield np.stack((eid[first[hit]], eid[second[hit]], eid[third[hit]]), axis=1)
        lo = hi


def edge_supports(graph: Graph, ranking: VertexRanking | None = None) -> SupportMap:
    """Exact triangle counts per edge: row counts of the triangle list."""
    triangles = triangle_list(graph, ranking)
    # per column, so bincount's index copy stays a third of the list
    sup = sum(np.bincount(triangles[:, j], minlength=graph.m) for j in range(3))
    return SupportMap(sup=tuple(sup.tolist()), triangles=triangles)


def brute_force_supports(graph: Graph) -> SupportMap:
    """Testing oracle: common-neighbor intersection per edge.

    Intended for small graphs (m up to a few thousand).
    """
    nbr = [set(a) for a in graph.adj]
    sup = [len(nbr[lo] & nbr[hi]) for lo, hi in graph.edges]
    return SupportMap(sup=tuple(sup))


def supports_tsv(graph: Graph, supports: SupportMap) -> str:
    """One "u<TAB>v<TAB>sup" line per edge, using external labels."""
    lines = []
    for eid, (lo, hi) in enumerate(graph.edges):
        lines.append(f"{graph.labels[lo]}\t{graph.labels[hi]}\t{supports.sup[eid]}")
    return "\n".join(lines) + "\n"

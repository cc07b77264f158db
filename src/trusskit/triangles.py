"""The triangle list and per-edge triangle support.

`triangle_list` is the one production triangle scan: it orients every edge
from its lower- to its higher-ranked endpoint and, for each oriented edge
v->a and each a->b, finds the closing edge v->b, so each triangle is found
exactly once, from its minimum-ranked vertex. Worst-case work is O(m^1.5);
the listing runs as numpy array operations over chunks of consecutive
oriented edges, each closed by a wedge budget. The closing edge is found by
direct addressing, as the marking array of the forward listings does
(Schank & Wagner 2005; Latapy 2008), batched over a chunk's source vertices:
an int32 table with a row per source and a column per rank receives the
position of every out-edge of the chunk's sources, each wedge reads its
cell once, and the written cells are cleared. The table's TABLE_CELLS
budget also closes chunks; where n leaves it too few rows to pay for the
chunks it adds, a binary search over the sorted oriented edge keys finds
the same edges. Plain and weighted supports are a `SupportMap` holding the
list: its per-edge row counts, or its rows' weights summed (weighted.py).
The truss peel walks the list, weighted or not, and the strong-truss family
reads it as links. A direct common-neighbor oracle backs the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import Graph, VertexRanking, _ranges, _stable_sort, vertex_ranking

# Most wedges (and so triangles) one listing may test. A triangle costs 12
# bytes in the list, and the peel's scratch peaks at up to about 48 more per
# triangle (traced with numpy 2.4: 47.6 on the 591,631 triangles of the
# benchmark's scale graph, 37.4 on a planted batch of 37,068).
DEFAULT_TRIANGLE_CAP = 1 << 26
# wedges tested per numpy pass; bounds the listing's scratch arrays
WEDGE_CHUNK = 1 << 17
# cells of the closing-edge table, one int32 each: 4 MB at most
TABLE_CELLS = 1 << 20


@dataclass(frozen=True, eq=False)
class SupportMap:
    """Per-edge triangle support: the number of triangles containing each
    edge or, with `weights`, the sum of their weights.

    `support` is the one store, an int64 array with one value per edge;
    `sup` is a tuple view of it built on first read. `triangles` is the
    triangle list the supports came from, when there is one, and `weights`
    the int64 weight of each of its rows (None for unit weights), so the
    peel neither scans nor weighs a triangle again. Maps are equal when
    their support values are.
    """

    support: np.ndarray
    triangles: np.ndarray | None = field(default=None, repr=False)
    weights: np.ndarray | None = field(default=None, repr=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SupportMap) and np.array_equal(self.support, other.support)

    def __hash__(self) -> int:
        return hash(self.support.astype(np.int64).tobytes())

    @cached_property
    def sup(self) -> tuple[int, ...]:
        """The supports as Python ints, in edge id order."""
        return tuple(self.support.tolist())

    @property
    def max_support(self) -> int:
        return int(self.support.max(initial=0))

    def total_triangles(self) -> int:
        if self.triangles is not None:
            return len(self.triangles)
        total = int(self.support.sum())
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


def _table_rows(n: int, wedges: int) -> int:
    """Rows of the closing-edge table for a graph, or 0 to binary-search.

    A table row is one source vertex and a chunk holds at most `rows` of
    them, so below rows = n the table closes about n / rows - 1 chunks that
    the wedge budget alone would not, each a fixed run of numpy calls (51-59
    us). The table is used when the wedges pay for them: wedges * rows >=
    2048 * (n - rows). With rows = n the table adds no chunk and is always
    used; with n > TABLE_CELLS it has no row at all.

    The 2048 is where the two lookups tie. Timed in process on seeded
    planted graphs of 10,000-200,000 vertices (one Xeon core, best of three
    or median of five runs), table time over search time at each value of
    wedges * rows / (n - rows) was 36 (200,000 vertices, 1.45M wedges):
    12.5; 235: 2.7; 678: 1.59; 1,418: 1.14; 1,861: 1.10; 1,868: 1.05; then
    2,449: 0.92; 2,657: 0.91; 2,839: 0.78; 15,641 (the 20,000-vertex
    benchmark graph): 0.55. One graph at 1,637 gave 0.93, so the tie lies
    between 1,600 and 2,450.
    """
    rows = min(TABLE_CELLS // n, n)
    return rows if (n - rows) * 2048 <= wedges * rows else 0


def _triangle_chunks(graph: Graph, ranking: VertexRanking):
    n, m = graph.n, graph.m
    rank = np.asarray(ranking.rank, dtype=np.int32)
    ru, rv = rank[graph.ends[:, 0]], rank[graph.ends[:, 1]]
    # oriented edge v->a, v ranked below a, as key v*n + a, sorted; the
    # out-edges of each source v are one run, ascending in a
    key = np.minimum(ru, rv).astype(np.int64) * n + np.maximum(ru, rv)
    del ru, rv
    key, eid = _stable_sort(key, n * n)
    eid = eid.astype(np.int32)
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
    rows = _table_rows(n, total)
    # cell (v - s0) * n + b holds 1 + the position of v->b while the chunk
    # whose first source is s0 runs; pages never written are never touched
    table = np.zeros(rows * n, dtype=np.int32) if rows else None

    lo = 0
    while lo < m:
        base = int(ends_at[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends_at, base + WEDGE_CHUNK, "right")), lo + 1)
        s0 = int(key[lo]) // n                       # the chunk's first source
        if rows and s0 + rows < n:
            hi = min(hi, int(start[s0 + rows]))      # sources s0 .. s0 + rows - 1
        reps = np.diff(ends_at[lo:hi], prepend=base)
        # wedge j of v->a pairs it with a->b, the j-th out-edge of a. Arrays
        # that index stay intp: an int32 index is copied to intp per gather
        out_a = start[dst[lo:hi]]
        second = _ranges(out_a, out_a + reps)
        off = s0 * n if rows else 0
        closing = np.repeat(key[lo:hi] - dst[lo:hi] - off, reps)
        closing += dst[second]                       # key of v->b, less off
        if rows:
            # closing is the cell of v->b, if present. v->b sorts after v->a,
            # so every out-edge of the chunk's sources from lo on, some past
            # hi, is written, each wedge's cell read once, and only the
            # written cells cleared
            s1 = int(key[hi - 1]) // n
            whi = start[s1] + outdeg[s1]
            written = key[lo:whi] - off
            table[written] = np.arange(lo + 1, whi + 1, dtype=np.int32)
            third = table[closing]
            table[written] = 0
            hit = np.flatnonzero(third)
            third = third[hit] - 1
        else:
            third = np.searchsorted(key, closing)
            np.minimum(third, m - 1, out=third)
            hit = np.flatnonzero(key[third] == closing)
            third = third[hit]
        first = lo + np.searchsorted(ends_at[lo:hi] - base, hit, "right")   # v->a
        yield np.stack((eid[first], eid[second[hit]], eid[third]), axis=1)
        lo = hi


def edge_supports(graph: Graph, ranking: VertexRanking | None = None) -> SupportMap:
    """Exact triangle counts per edge: row counts of the triangle list."""
    triangles = triangle_list(graph, ranking)
    # per column, so bincount's index copy stays a third of the list
    support = sum(np.bincount(triangles[:, j], minlength=graph.m) for j in range(3))
    return SupportMap(support, triangles)


def brute_force_supports(graph: Graph) -> SupportMap:
    """Testing oracle: common-neighbor intersection per edge.

    Intended for small graphs (m up to a few thousand).
    """
    nbr = [set(a) for a in graph.adj]
    support = [len(nbr[lo] & nbr[hi]) for lo, hi in graph.edges]
    return SupportMap(np.array(support, dtype=np.int64))


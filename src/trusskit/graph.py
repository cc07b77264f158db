"""Immutable simple undirected graphs with canonical edges.

Vertices are dense integers 0..n-1; external string labels live in a side
table. Edges are stored once, as one int32 (m, 2) array `ends` of canonical
(lo, hi) rows with lo < hi, their weights as int32 codes into the distinct
weights. The tuple views `edges` and `weights` and the per-vertex adjacency
(neighbor -> edge id) are built on demand, for the oracles and the
per-vertex queries. The edge-list loader reads its input in blocks of
whole lines, with no Python step per line: a numpy scan of each block's
code points gives its line structure, one `split()` its tokens, and one
dict lookup map their ids.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import count, filterfalse, islice
from typing import IO, Iterable, Sequence

import numpy as np

Weight = Fraction | int


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph, immutable after construction.

    `ends` is the one edge store. Edge e weighs `weight_values[weight_code[e]]`,
    or the integer 1 with no codes; the values are positive, used, sorted and
    kept as given (1 and Fraction(1) are two). Graphs are equal when their n,
    labels, edge rows and per-edge weights are. `edges`, `weights` and `adj`
    are views built on first use, for the oracles and the per-vertex queries.
    """

    n: int
    labels: tuple[str, ...]
    ends: np.ndarray   # int32 (m, 2), canonical (lo, hi) rows, lo < hi
    weight_code: np.ndarray | None = None   # int32 per edge, or None: all the integer 1
    weight_values: tuple[Weight, ...] = (1,)

    @property
    def m(self) -> int:
        return len(self.ends)

    def _key(self) -> tuple:
        return self.n, self.labels, self.weights, self.ends.tobytes()

    @cached_property
    def weights(self) -> tuple[Weight, ...]:
        """Each edge's weight object, in edge id order."""
        code = np.zeros(self.m, np.int32) if self.weight_code is None else self.weight_code
        return tuple(map(self.weight_values.__getitem__, code.tolist()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical (lo, hi) pairs as Python ints, in edge id order."""
        return tuple(map(tuple, self.ends.tolist()))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex, an int64 array of length n."""
        return np.bincount(self.ends.ravel(), minlength=self.n)

    @cached_property
    def adj(self) -> tuple[dict[int, int], ...]:
        """Per vertex, neighbor -> edge id in ascending neighbor order."""
        nbr: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (lo, hi) in enumerate(self.ends.tolist()):
            nbr[lo].append((hi, eid))
            nbr[hi].append((lo, eid))
        return tuple(dict(sorted(pairs)) for pairs in nbr)

    def _vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        return v

    def degree(self, v: int) -> int:
        return int(self.degrees[self._vertex(v)])

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v in ascending vertex order."""
        return list(self.adj[self._vertex(v)])

    def edge_id(self, u: int, v: int) -> int | None:
        """Edge id for the pair (u, v) in either order, or None; None also
        for ids outside 0..n-1."""
        return self.adj[u].get(v) if 0 <= u < self.n else None

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None

    def edge_label_pair(self, eid: int) -> tuple[str, str]:
        if not 0 <= eid < self.m:
            raise IndexError(f"edge {eid} out of range for m={self.m}")
        lo, hi = self.ends[eid].tolist()
        return self.labels[lo], self.labels[hi]


def build_graph(
    n: int,
    edges: np.ndarray | Iterable[tuple[int, int]],
    weights: Sequence[Weight] | None = None,
    labels: Sequence[str] | None = None,
) -> Graph:
    """Assemble a Graph from already-deduplicated vertex pairs, given as an
    (m, 2) array or an iterable of pairs.

    Pairs are canonicalized to (lo, hi). Self loops, vertex ids outside
    0..n-1 and duplicates are rejected here (the edge-list loader applies
    its own lenient policy before calling this).
    """
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    # the id type is inferred, so no id is truncated or wrapped unchecked
    ends = np.reshape(pairs, (-1, 2)) if len(pairs) else np.empty((0, 2), int)
    ends = np.stack((np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])), axis=1)
    outside = ends[(ends < 0) | (ends >= n)]
    if len(outside):
        raise ValueError(f"vertex {outside[0]} out of range for n={n}")
    if ends.dtype.kind not in "iub":
        raise ValueError("vertex ids must be integers")
    ends = ends.astype(np.int32)
    loops = np.flatnonzero(ends[:, 0] == ends[:, 1])
    if len(loops):
        raise ValueError(f"self loop at vertex {ends[loops[0], 0]}")
    keys = np.sort(ends[:, 0].astype(np.int64) * n + ends[:, 1])
    dup = keys[1:][keys[1:] == keys[:-1]]
    if len(dup):
        raise ValueError(f"duplicate edge {divmod(int(dup[0]), n)}")
    label_tuple = tuple(map(str, range(n))) if labels is None else tuple(labels)
    if len(label_tuple) != n:
        raise ValueError("labels length does not match vertex count")
    graph = Graph(n=n, labels=label_tuple, ends=ends)
    if weights is None:
        return graph
    # one code per distinct weight; equal weights of one type are alike
    kinds: dict[tuple[type, Weight], int] = {}
    code = np.fromiter((kinds.setdefault((type(w), w), len(kinds)) for w in weights), np.int32)
    if len(code) != len(ends):
        raise ValueError("weights length does not match edges")
    return _weighed(graph, code, [w for _, w in kinds])


def _weighed(graph: Graph, code: np.ndarray, values: Sequence[Weight]) -> Graph:
    """graph with edge e weighing values[code[e]]: the values checked, the
    used ones sorted stably by value, and no codes if only int 1 is used."""
    for w in values:
        if not 0 < w < math.inf:
            raise ValueError(f"non-positive edge weight {w}")
    used = sorted(np.flatnonzero(np.bincount(code)).tolist(), key=values.__getitem__)
    if all(type(values[c]) is int and values[c] == 1 for c in used):
        return graph
    place = np.zeros(len(values), dtype=np.int32)
    place[used] = np.arange(len(used))
    return replace(graph, weight_code=place[code], weight_values=tuple(map(values.__getitem__, used)))


LOAD_BLOCK = 1 << 9   # lines the loader scans at once

# str.split()'s whitespace, the code points str.isspace accepts; no code
# point past the table is whitespace
_SPACE_POINTS = (
    *range(0x09, 0x0E), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
    0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
)
_SPACE = np.zeros(0x3002, dtype=bool)
_SPACE[list(_SPACE_POINTS)] = True


def _scan(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The code points of text, as uint32, and for each whether str.split()
    splits there."""
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return points, _SPACE[np.minimum(points, len(_SPACE) - 1)]


def _take(tokens: list[str], at: np.ndarray) -> list[str]:
    """The tokens at the given indexes, in index order."""
    return list(map(tokens.__getitem__, at.ravel().tolist()))


def load_edge_list(stream: IO[str] | Iterable[str], weighted: bool = False) -> Graph:
    """Parse whitespace-separated "u v [w]" lines into a canonical Graph.

    Lines whose first token starts with '#' and blank lines are ignored.
    Self loops are dropped, their weights unread. Duplicate edges collapse
    to one edge, placed where the pair first appears and keeping the
    maximum weight seen (the first of equal maxima). Vertex ids are
    assigned by first appearance, and each weight token is parsed at its
    first line. An error names the first bad line.

    Lines are read in blocks, with no Python step per line: per block, one
    numpy scan of its code points counts each line's tokens and finds its
    comments, one `split()` gives the tokens, and one dict lookup each
    maps them to vertex ids and weights. Lines are those the stream
    yields, with or without their line breaks.
    """
    ids: dict[str, int] = {}          # vertex name -> vertex id
    values: list[Weight] = [1]        # 1 for an omitted weight, then one per token
    code_of: dict[str, int] = {}      # weight token -> index in values
    # each kept line's pair, canonical as lo << 32 | hi, and its weight's
    # index, grown block by block
    pairs, codes = array("q"), array("i")
    most = 3 if weighted else 2       # tokens on an edge line: 2, or 3 with a weight
    done = read = 0                   # lines and vertex names in earlier blocks
    source = iter(stream)
    for lines in iter(lambda: list(islice(source, LOAD_BLOCK)), []):
        # one text with a line break before each line, so no token spans two
        text = "\n" + "\n".join(lines)
        bounds = np.zeros(len(lines) + 1, dtype=np.int64)   # each line's break, then the end
        np.cumsum(np.fromiter(map(len, lines), np.int64, len(lines)) + 1, out=bounds[1:])
        del lines                     # its strings go before the tokens come
        points, space = _scan(text)
        heads = np.flatnonzero(space[:-1] & ~space[1:]) + 1   # where each token starts
        lead = np.searchsorted(heads, bounds)   # each line's first token
        width = lead[1:] - lead[:-1]            # each line's token count
        edge = width > 0
        edge[edge] = points[heads[lead[:-1][edge]]] != ord("#")
        bad = np.flatnonzero(edge & ((width < 2) | (width > most)))
        if len(bad):   # no line past the first bad one is read
            edge[bad[0] :] = False
        tokens = text.split()
        line = np.flatnonzero(edge)
        at = lead[line]
        # every token a vertex name: no comment, weight or line past a bad one
        names = tokens if len(tokens) == 2 * len(line) else _take(tokens, np.stack((at, at + 1), 1))
        # one dict pass: a known name gives its vertex id, a new one its place
        # among all names read, which no vertex id reaches; the new names then
        # take the next ids in order of first appearance
        place = np.fromiter(map(ids.setdefault, names, count(read)), np.int64, len(names))
        fresh = place == np.arange(read, read + len(names))   # where a new name is first read
        number = np.cumsum(fresh) + (len(ids) - np.count_nonzero(fresh) - 1)
        ends = np.where(place < read, place, number.take(place - read, mode="clip")).reshape(-1, 2)
        ids.update(zip(_take(names, np.flatnonzero(fresh)), number[fresh].tolist()))
        read += len(names)
        keep = ends[:, 0] != ends[:, 1]
        line, at = line[keep], at[keep]
        code = np.zeros(len(line), dtype=np.int32)
        weighed = np.flatnonzero(width[line] == 3)
        if len(weighed):
            texts = _take(tokens, at[weighed] + 2)
            for token in filterfalse(code_of.__contains__, dict.fromkeys(texts)):
                try:
                    value = Fraction(token)
                    problem = f"non-positive weight {token}" if value <= 0 else None
                except (ValueError, ZeroDivisionError):
                    problem = f"bad weight {token!r}"
                if problem:
                    raise EdgeListParseError(done + 1 + int(line[weighed[texts.index(token)]]), problem)
                code_of[token] = len(values)
                values.append(value)
            code[weighed] = np.fromiter(map(code_of.__getitem__, texts), np.int32, len(texts))
        if len(bad):
            expected = "2 or 3" if weighted else "2"
            raise EdgeListParseError(
                done + 1 + int(bad[0]), f"expected {expected} tokens, got {width[bad[0]]}"
            )
        lo, hi = ends[keep].T
        pairs.frombytes((np.minimum(lo, hi) << 32 | np.maximum(lo, hi)).tobytes())
        codes.frombytes(code.tobytes())
        done += len(width)
        del tokens, names             # before the next block's lines are read

    n = len(ids)
    key = np.frombuffer(pairs, dtype=np.int64)
    pair = key >> 32
    pair *= n
    pair += key & 0xFFFFFFFF       # lo * n + hi
    del key, pairs
    # lines grouped by pair and in line order within a pair, so each pair's
    # first line leads its group
    key, order = _stable_sort(pair, n * n)
    del pair
    head = np.flatnonzero(np.diff(key, prepend=-1))
    # each pair keeps its heaviest weight, read at the first line bearing it
    level = {w: i for i, w in enumerate(sorted(set(values)))}
    code = np.frombuffer(codes, dtype=np.int32)[order]
    rank = np.array([level[w] for w in values], dtype=np.int32)[code]
    top = np.maximum.reduceat(rank, head) if len(head) else rank
    heaviest = np.flatnonzero(rank == np.repeat(top, np.diff(head, append=len(key))))
    heaviest = heaviest[np.diff(key[heaviest], prepend=-1) != 0]
    del rank
    keep = _stable_sort(order[head], len(order), keys=False)   # pairs in order of first appearance
    ends = np.stack(np.divmod(key[head[keep]], n), axis=1).astype(np.int32)
    return _weighed(build_graph(n, ends, None, list(ids)), code[heaviest[keep]], values)


@dataclass(frozen=True, eq=False)
class VertexRanking:
    """Total order over vertices by (degree, external label) ascending."""

    rank: np.ndarray   # int32, vertex id -> rank: the inverse permutation of order
    order: np.ndarray  # int32, rank -> vertex id

    def __getitem__(self, v: int) -> int:
        return int(self.rank[v])


def vertex_ranking(graph: Graph) -> VertexRanking:
    """Rank vertices by degree, breaking ties by external label.

    Using labels rather than internal ids keeps the order independent of the
    input file's line order.
    """
    by_label = np.array(sorted(range(graph.n), key=graph.labels.__getitem__), dtype=np.int64)
    degree = graph.degrees[by_label]
    # stable by degree over the vertices in label order
    order = by_label[_stable_sort(degree, int(degree.max(initial=0)) + 1, keys=False)]
    order = order.astype(np.int32)
    rank = np.empty(graph.n, dtype=np.int32)
    rank[order] = np.arange(graph.n)
    return VertexRanking(rank=rank, order=order)


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


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of an integer array, by a sort and an adjacent-difference
    mask: numpy's hash path for unique integers is slower here."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


_PACK_BLOCK = 1 << 14   # positions _stable_sort packs at once


def _stable_sort(key: np.ndarray, bound: int, keys: bool = True):
    """The permutation a stable argsort of the integer keys in 0..bound-1
    gives, as int64, with the keys sorted before it: (keys, order); with
    keys=False the order alone. Each key is packed with its position as
    key << b | position, b the bits a position takes, so every key sorts as
    one distinct int64 under numpy's plain, vectorized sort, and the order
    is masked out in place. Where bound << b would overflow int64, a stable
    argsort does the work."""
    rows = len(key)
    shift = max(rows - 1, 0).bit_length()
    if bound << shift > 1 << 63:
        order = np.argsort(key, kind="stable")
        return (key[order], order) if keys else order
    packed = np.left_shift(key, shift, dtype=np.int64)
    # positions a block at a time: no second array as long as the keys
    for lo in range(0, rows, _PACK_BLOCK):
        block = packed[lo : lo + _PACK_BLOCK]
        block |= np.arange(lo, lo + len(block))
    packed.sort()
    ordered = packed >> shift if keys else None
    packed &= (1 << shift) - 1
    return (ordered, packed) if keys else packed


def _ranges(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The integers of every range start[i]..stop[i]-1, concatenated, as intp."""
    counts = stop - start
    out = np.repeat(start - np.cumsum(counts, dtype=np.intp) + counts, counts)
    out += np.arange(len(out))
    return out


def _incidence(slots: np.ndarray, m: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows holding each edge, for a flat array of edge ids, `width` per
    row: edge e is in rows[start[e]:start[e + 1]], ascending, a row once per
    slot it fills. Both are int32: the triangle and triad caps keep every
    caller's slots below 2^31."""
    start = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(slots, minlength=m), out=start[1:])
    rows = _stable_sort(slots, m, keys=False)
    rows //= width
    return start, rows.astype(np.int32)


def _grouped(ids: np.ndarray, label: np.ndarray, min_size: int = 1):
    """Non-negative int32 ids grouped by equal label, ascending within a
    group, the groups of at least min_size ordered by smallest id, by one
    sort of (label, id) pairs packed into int64: the grouped ids (int32),
    each group's row range in them (start, int64) and each group's label."""
    key = np.sort(label.astype(np.int64) << 31 | ids)
    group, ids = key >> 31, (key & (1 << 31) - 1).astype(np.int32)
    first = np.flatnonzero(np.diff(group, prepend=-1))
    size = np.diff(first, append=len(key))
    keep = np.flatnonzero(size >= min_size)
    keep = keep[_stable_sort(ids[first[keep]], 1 << 31, keys=False)]
    start = np.concatenate(([0], np.cumsum(size[keep])))
    return ids[_ranges(first[keep], first[keep] + size[keep])], start, group[first[keep]]


def _edge_components(graph: Graph, eids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The components of the subgraph that the ascending, distinct edge ids
    induce, as grouped edge ids and row ranges (`_grouped`)."""
    ends = graph.ends[eids]
    label = _component_labels(graph.n, ends[:, 0], ends[:, 1])
    edges, start, _ = _grouped(eids, label[ends[:, 0]])
    return edges, start


def _known_edges(graph: Graph, edge_ids: np.ndarray | Iterable[int]) -> np.ndarray:
    """The ids as an array (an array as it is); ValueError names any outside 0..m-1."""
    eids = edge_ids if isinstance(edge_ids, np.ndarray) else np.fromiter(edge_ids, np.int64)
    unknown = eids[(eids < 0) | (eids >= graph.m)]
    if len(unknown):
        raise ValueError(f"unknown edge id {unknown[0]}")
    return eids


def component_edge_sets(graph: Graph, edge_ids: np.ndarray | Iterable[int]) -> list[list[int]]:
    """Connected components of the subgraph induced by the given edges.

    Returns lists of the original edge ids, one per component, ordered by
    their smallest edge id, with ids ascending within each; repeated ids
    count once. An array of ids is read as it is.
    """
    edges, start = _edge_components(graph, _sorted_unique(_known_edges(graph, edge_ids)))
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
    vertices numbered by first appearance along the ascending edge ids."""
    eids = np.unique(_known_edges(graph, edge_ids))
    ids, first, local = np.unique(graph.ends[eids], return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    vertex_of = ids[by_first].tolist()
    sub = build_graph(
        len(vertex_of),
        np.argsort(by_first)[local].reshape(-1, 2),
        labels=[graph.labels[v] for v in vertex_of],
    )
    if graph.weight_code is not None:
        sub = _weighed(sub, graph.weight_code[eids], graph.weight_values)
    return Subgraph(graph=sub, vertex_of=tuple(vertex_of), edge_of=tuple(eids.tolist()))


def edge_nodes(graph: Graph, edge_ids: Iterable[int]) -> set[int]:
    """Vertex set touched by the given edges."""
    return set(graph.ends[_known_edges(graph, edge_ids)].ravel().tolist())

"""Immutable simple undirected graphs with canonical edges.

Vertices are dense integers 0..n-1; external string labels live in a side
table. Edges are stored once, as one int32 (m, 2) array `ends` of canonical
(lo, hi) rows with lo < hi, their weights as int32 codes into the distinct
weights. The tuple views `edges` and `weights` and the per-vertex adjacency
(neighbor -> edge id) are built on demand, for the oracles and the
per-vertex queries. The edge-list loader reads its input in blocks of
whole lines, encoded to UTF-8, with no Python step per line or token: one
whitespace test over a block's bytes gives its tokens and lines, each
token packs into uint64 words, an exact key, and the keys are numbered by
first appearance with the one stable-sort kernel, `_stable_sort`.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import IO, Iterable, Iterator, Sequence

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


# characters read at once; an iterable's lines are joined 1/16 as many at
# once. A block's scratch is about 20 bytes per character, and larger
# blocks load no faster.
READ_BLOCK = 1 << 16
# name tokens numbered at once, beside the distinct names before them
NAME_BATCH = 1 << 16

# str.split()'s whitespace past ASCII: `\s` is str.isspace in a str pattern
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")
# with r bytes of a token left, its word is OR-ed with _FILL[min(r, 8)]: the
# bytes past the token read 0xFF, which UTF-8 never holds
_FILL = np.array([(1 << 64 - 8 * r) - 1 for r in range(9)], dtype=np.uint64)


def _utf8(text: str) -> tuple[np.ndarray, np.ndarray]:
    """text as UTF-8 bytes (uint8), each whitespace code point past ASCII
    made one space and 8 spaces added, so every token has 8 bytes to load;
    and for each byte whether str.split() splits there: 0x09-0x0D and
    0x1C-0x20."""
    if not text.isascii():
        text = _WIDE_SPACE.sub(" ", text)
    data = np.frombuffer(text.encode("utf-8", "surrogatepass") + b" " * 8, dtype=np.uint8)
    return data, (data - np.uint8(0x09) < np.uint8(5)) | (data - np.uint8(0x1C) < np.uint8(5))


def _pack(data: np.ndarray, start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tokens data[start:start + length], each packed big-endian into
    uint64 words, 8 bytes to a word, its last word filled out with 0xFF
    bytes: every token's words in turn, and each token's word count (int32).
    Two tokens are equal exactly when their words are. data holds at least
    7 bytes past the last token."""
    load = np.ndarray((len(data) - 7,), dtype=">u8", buffer=data, strides=(1,))
    if length.max(initial=0) <= 8:
        words = np.ones(len(length), dtype=np.int32)
    else:   # a word per 8 bytes begun: a token's i-th word loads at its byte 8i
        words = ((length + 7) >> 3).astype(np.int32)
        step = _ranges(np.zeros_like(words), words) << 3
        start, length = np.repeat(start, words) + step, np.repeat(length, words) - step
    flat = load[start].astype(np.uint64)
    flat |= np.take(_FILL, length, mode="clip")
    return flat, words


def _number(flat: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tokens packed by `_pack` numbered by first appearance: each token's
    number (int32) and each number's first token. The tokens of one word
    count are sorted stably by LSD passes of `_stable_sort` over their
    words' 32-bit halves, last first (a half alike in all is skipped), so
    equal tokens lie together and each run's head is a first appearance."""
    t = len(words)
    low, high = int(words.min(initial=1)), int(words.max(initial=0))
    sizes = [high] if low == high else _sorted_unique(words).tolist()
    offset = None if len(sizes) == 1 else np.cumsum(words) - words   # each token's first word
    group = np.empty(t, dtype=np.int32)           # each token's run, over all word counts
    heads = [np.empty(0, dtype=np.intp)]          # each run's first token, run by run
    for size in sizes:
        tokens = None if offset is None else np.flatnonzero(words == size)
        rows = flat.reshape(t, size) if offset is None else flat[offset[tokens, None] + np.arange(size)]
        order = None                              # the identity, until a pass sorts
        for half in rows.view(np.uint32).T[::-1]:
            if half.min() != half.max():
                step = _stable_sort(half if order is None else half[order], 1 << 32, keys=False)
                order = step if order is None else order[step]
                del step
        order = np.arange(len(rows)) if order is None else order
        rows = np.take(rows, order, axis=0)
        new = np.ones(len(rows), dtype=bool)
        np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
        head = np.flatnonzero(new)
        order = order if tokens is None else tokens[order]
        runs = sum(map(len, heads)) + np.arange(len(head), dtype=np.int32)
        group[order] = np.repeat(runs, np.diff(head, append=len(new)))
        heads.append(order[head])
        del rows, order, new
    heads = np.concatenate(heads)
    by_first = _stable_sort(heads, t, keys=False)   # the runs in order of their heads
    number = np.empty(len(heads), dtype=np.int32)
    number[by_first] = np.arange(len(heads))
    return number[group], heads[by_first]


def _gather(flat: np.ndarray, words: np.ndarray, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The words and word counts of the given tokens packed by `_pack`, in turn."""
    start = np.cumsum(words) - words
    return flat[_ranges(start[tokens], start[tokens] + words[tokens])], words[tokens]


def _decode(flat: np.ndarray, words: np.ndarray) -> list[str]:
    """The text of every token packed by `_pack`."""
    # each token's words then a line break, which no token holds
    text = np.full((len(flat), 9), 0xFF, dtype=np.uint8)
    text[:, :8] = flat.astype(">u8").view(np.uint8).reshape(-1, 8)
    text[np.cumsum(words) - 1, 8] = ord("\n")
    return text[text != 0xFF].tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]


def _fold(
    known: tuple[np.ndarray, np.ndarray], batch: tuple[array, array], ids: array
) -> tuple[np.ndarray, np.ndarray]:
    """Number the batch of packed name tokens after the known names, the
    distinct names so far in id order, so that each known name keeps its
    id: append the batch's ids to ids, empty the batch, and return the
    known names with the batch's new ones after them."""
    flat = np.concatenate((known[0], np.frombuffer(batch[0], np.uint64)))
    words = np.concatenate((known[1], np.frombuffer(batch[1], np.int32)))
    for store in batch:
        del store[:]
    number, first = _number(flat, words)
    ids.frombytes(number[len(known[1]) :].tobytes())
    return _gather(flat, words, first)


def _blocks(stream: IO[str] | Iterable[str]) -> Iterator[str]:
    """The stream's lines in texts of whole lines, each text with a line
    break before and after every line. A stream with `read` is read
    READ_BLOCK characters at a time and cut at its last line break; the
    lines of any other iterable are its items, with or without their line
    break, joined a block at a time (a line break inside one is whitespace
    there, as `str.split` takes it)."""
    if hasattr(stream, "read"):
        parts: list[str] = []   # the line begun in earlier reads
        while chunk := stream.read(READ_BLOCK):
            cut = chunk.rfind("\n") + 1
            if cut:
                yield "".join(("\n", *parts, chunk[:cut]))
                parts = [chunk[cut:]]
            else:
                parts.append(chunk)
        if any(parts):
            yield "".join(("\n", *parts, "\n"))
        return
    source = iter(stream)
    while lines := list(islice(source, READ_BLOCK >> 4 or 1)):
        yield "\n".join(["", *(line.replace("\n", " ") for line in lines), ""])


def load_edge_list(stream: IO[str] | Iterable[str], weighted: bool = False) -> Graph:
    """Parse whitespace-separated "u v [w]" lines into a canonical Graph.

    Lines whose first token starts with '#' and blank lines are ignored.
    Self loops are dropped, their weights unread. Duplicate edges collapse
    to one edge, placed where the pair first appears and keeping the
    maximum weight seen (the first of equal maxima). Vertex ids are
    assigned by first appearance, and each weight token is parsed at its
    first line. An error names the first bad line.

    A stream with `read` (a text-mode file, io.StringIO) is read in blocks
    of READ_BLOCK characters, and its lines end at "\\n": a text-mode file
    ends them as open() does, and a lone "\\r" that io.StringIO yields is
    whitespace. The lines of any other iterable are its items. Each block
    is encoded to UTF-8 once (`_utf8`), and one whitespace test over its
    bytes gives every token's and line's bounds, with no Python step per
    line or token. Each token packs into uint64 words, an exact key
    (`_pack`). A block's weight tokens are numbered with `_stable_sort`
    (`_number`) and each new one parsed before the next block is read;
    the names are numbered so NAME_BATCH tokens at a time, after the
    distinct names before them (`_fold`).
    """
    most = 3 if weighted else 2       # tokens on an edge line: 2, or 3 with a weight
    # grown block by block: each name's vertex id, two names per edge line,
    # and the packed names not yet numbered (`_fold`); each weighted edge
    # line and its weight's index into values
    ids, names = array("i"), (array("Q"), array("i"))
    known = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int32)   # the distinct names, by id
    weighed = array("q"), array("i")
    values: list[Weight] = [1]        # an omitted weight, then each distinct token's
    parsed: dict[str, int] = {}       # each weight token read so far, its index into values
    done = edges = 0                  # lines and edge lines in earlier blocks
    bad = np.empty(0, dtype=np.intp)
    for text in _blocks(stream):
        data, space = _utf8(text)
        del text
        bound = np.flatnonzero(space[1:] != space[:-1]) + 1   # each token's start and stop, in turn
        start, length = bound[0::2], bound[1::2] - bound[0::2]
        lead = np.searchsorted(start, np.flatnonzero(data == 0x0A))   # each line's first token
        width = np.diff(lead)                                       # each line's token count
        edge = width > 0
        edge[edge] = data[start[lead[:-1][edge]]] != ord("#")
        bad = np.flatnonzero(edge & ((width < 2) | (width > most)))
        if len(bad):   # no line past the first bad one is read
            edge[bad[0] :] = False
        line = np.flatnonzero(edge)
        at = lead[line]
        both = np.stack((at, at + 1), axis=1).ravel()   # each edge line's two names
        flat, words = _pack(data, start[both], length[both])
        for store, part in zip(names, (flat, words)):
            store.frombytes(part.view(np.uint8))   # _pack's dtypes are the stores'
        if len(names[1]) >= NAME_BATCH:
            known = _fold(known, names, ids)
        three = np.flatnonzero(width[line] == 3)   # the weighted lines
        if len(three):
            # but self loops, whose weights are unread: a loop's two names
            # have alike words
            first = (np.cumsum(words) - words)[2 * three]
            size = np.where(words[2 * three] == words[2 * three + 1], words[2 * three], 0)
            slot = _ranges(first, first + size)
            loop = size > 0
            unlike = flat[slot] != flat[slot + np.repeat(size, size)]
            loop[np.repeat(np.arange(len(three)), size)[unlike]] = False
            three = three[~loop]
            flat, words = _pack(data, start[at[three] + 2], length[at[three] + 2])
            number, first = _number(flat, words)
            tokens = _decode(*_gather(flat, words, first))
            for i, token in enumerate(tokens):   # each new weight token parsed at its first line
                if token not in parsed:
                    try:
                        value = Fraction(token)
                        problem = f"non-positive weight {token}" if value <= 0 else None
                    except (ValueError, ZeroDivisionError):
                        problem = f"bad weight {token!r}"
                    if problem:
                        raise EdgeListParseError(done + 1 + int(line[three[first[i]]]), problem)
                    parsed[token] = len(values)
                    values.append(value)
            code = np.array([parsed[token] for token in tokens], dtype=np.int32)[number]
            for store, part in zip(weighed, (edges + three, code)):
                store.frombytes(part.astype(store.typecode, copy=False).view(np.uint8))
        del data, space, bound, start, length, lead, edge, at, both, flat, words   # before the next block
        edges += len(line)
        if len(bad):
            expected = "2 or 3" if weighted else "2"
            raise EdgeListParseError(
                done + 1 + int(bad[0]), f"expected {expected} tokens, got {width[bad[0]]}"
            )
        done += len(width)

    labels = _decode(*_fold(known, names, ids))
    ids = np.frombuffer(ids, dtype=np.int32)
    n = len(labels)
    lo, hi = ids[0::2], ids[1::2]
    loop = lo == hi
    # each edge line's weight: an index into values, 0 for an omitted one
    code = np.zeros(len(lo), dtype=np.int32)
    code[np.frombuffer(weighed[0], np.int64)] = np.frombuffer(weighed[1], np.int32)
    del weighed
    keep = np.flatnonzero(~loop)
    lo, hi = lo[keep], hi[keep]
    pair = np.minimum(lo, hi).astype(np.int64) * n + np.maximum(lo, hi)   # lo * n + hi
    del ids, lo, hi
    # lines grouped by pair and in line order within a pair, so each pair's
    # first line leads its group
    key, order = _stable_sort(pair, n * n)
    del pair
    head = np.flatnonzero(np.diff(key, prepend=-1))
    # each pair keeps its heaviest weight, read at the first line bearing it
    level = {w: i for i, w in enumerate(sorted(set(values)))}
    code = code[keep[order]]
    rank = np.array([level[w] for w in values], dtype=np.int32)[code]
    top = np.maximum.reduceat(rank, head) if len(head) else rank
    heaviest = np.flatnonzero(rank == np.repeat(top, np.diff(head, append=len(key))))
    heaviest = heaviest[np.diff(key[heaviest], prepend=-1) != 0]
    del rank
    keep = _stable_sort(order[head], len(order), keys=False)   # pairs in order of first appearance
    ends = np.stack(np.divmod(key[head[keep]], n), axis=1).astype(np.int32)
    return _weighed(build_graph(n, ends, None, labels), code[heaviest[keep]], values)


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

import io
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import trusskit.graph
from trusskit import (
    EdgeListParseError,
    build_graph,
    clusters_to_node_partition,
    load_edge_list,
    vertex_ranking,
)
from trusskit.graph import (
    READ_BLOCK,
    _component_labels,
    _first_seen,
    _incidence,
    _ranges,
    _stable_sort,
    _utf8,
)
from oracles import (
    adjacency,
    bfs_components,
    component_edge_sets,
    connected_components,
    degree,
    edge_id,
    edge_label_pair,
    edge_nodes,
    has_edge,
    induced_edge_subgraph,
    neighbors,
)
from conftest import (
    DisjointSet,
    complete_graph,
    graph_from,
    random_graphs,
    reference_load_edge_list,
)


def test_triangle_parse():
    g = graph_from("a b\nb c\nc a")
    assert g.n == 3
    assert g.m == 3


def test_degenerate_input_policy():
    # self loop dropped, duplicate collapsed
    g = graph_from("a a\na b\na b")
    assert g.n == 2
    assert g.m == 1


def test_duplicate_weight_keeps_maximum():
    g = graph_from("a b 2\na b 5\na b 3", weighted=True)
    assert g.m == 1
    assert g.weights[0] == 5


def test_weighted_line_may_omit_weight():
    g = graph_from("a b\nb c 3", weighted=True)
    assert sorted(g.weights) == [1, 3]


def test_comments_and_blanks_ignored():
    g = graph_from("# header\n\na b\n   \nb c\n")
    assert g.m == 2


def test_parse_error_carries_line_number():
    with pytest.raises(EdgeListParseError) as err:
        graph_from("a b\na b c\n")
    assert "line 2" in str(err.value)
    assert err.value.lineno == 2


def test_nonpositive_weight_rejected():
    with pytest.raises(EdgeListParseError):
        graph_from("a b -1", weighted=True)
    with pytest.raises(EdgeListParseError):
        graph_from("a b 0", weighted=True)


GOOD_WEIGHTS = ("1", "1.0", "2/2", "2", "2.0", "4/2", "3", "5/2", "0.5", "1e1", "7")
BAD_WEIGHTS = ("x", "1/0", "0", "-1", "-0.5", "0/3", "nan")


def random_edge_list(rng: random.Random, weighted: bool, bad: float) -> str:
    """Lines over a few labels, so pairs repeat, reverse and loop, with
    comments, blank lines, omitted weights and equal weights written
    differently; a share `bad` of the weights or token counts is malformed."""
    names = [f"v{i}" for i in range(rng.randint(1, 12))]
    lines = []
    for _ in range(rng.randint(0, 60)):
        roll = rng.random()
        if roll < 0.08:
            lines.append(rng.choice(["# comment", "#", "  # indented", "", "   ", "\t"]))
            continue
        tokens = [rng.choice(names), rng.choice(names)]
        if weighted and rng.random() < 0.7:
            pool = BAD_WEIGHTS if rng.random() < bad else GOOD_WEIGHTS
            tokens.append(rng.choice(pool))
        if rng.random() < bad / 4:
            tokens += ["extra"] * rng.randint(1, 2)
        lines.append(rng.choice([" ", "\t", "  "]).join(tokens))
    return "\n".join(lines) + rng.choice(["", "\n"])


def assert_weight_store(g):
    """Weights are int32 codes into positive, non-decreasing values, or no
    codes exactly when every weight is the integer 1."""
    code, values = g.weight_code, g.weight_values
    assert all(w > 0 for w in values) and all(a <= b for a, b in zip(values, values[1:]))
    assert (code is None) == all(type(w) is int and w == 1 for w in g.weights)
    if code is not None:
        assert code.dtype == np.int32 and code.shape == (g.m,)
        assert np.all((code >= 0) & (code < len(values)))


def assert_loads_like_reference(make, weighted=False):
    """load_edge_list and the reference loader, each on a fresh source from
    make(), give equal graphs or fail at the same line with one message;
    returns that line, or None."""

    def load(loader):
        source = make()
        try:
            return loader(source, weighted)
        finally:
            getattr(source, "close", lambda: None)()

    try:
        want = load(reference_load_edge_list)
    except EdgeListParseError as err:
        with pytest.raises(EdgeListParseError) as got:
            load(load_edge_list)
        assert (got.value.lineno, str(got.value)) == (err.lineno, str(err))
        return err.lineno
    g = load(load_edge_list)
    assert (g.n, g.labels) == (want.n, want.labels)
    assert g.ends.dtype == np.int32 and g.ends.tolist() == want.ends.tolist()
    assert [(type(w), w) for w in g.weights] == [(type(w), w) for w in want.weights]
    assert_weight_store(g)
    assert_weight_store(want)
    assert g == want
    return None


def text_of(text):
    return lambda: io.StringIO(text)


def test_loader_matches_reference(tmp_path, monkeypatch):
    rng = random.Random(29)
    for case in range(600):
        weighted, bad = case % 2 == 1, rng.choice((0.0, 0.0, 0.02, 0.1))
        assert_loads_like_reference(text_of(random_edge_list(rng, weighted, bad)), weighted)
    # CRLF and a lone CR end lines too when open() reads them
    path = tmp_path / "breaks.tsv"
    path.write_bytes(b"a b\r\nb c\rc\td 2\r\n# x y z w\r\n\r\nd\ta\n\re a 1/2\r")
    for weighted in (False, True):
        assert_loads_like_reference(lambda: open(path, encoding="utf-8"), weighted)
    # every code point str.split() splits at, "\n" aside, inside lines
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace() and chr(c) != "\n"]
    for weighted in (False, True):
        text = "".join(
            f"{s}a{i}{s}b{i}{s}{f'{i + 1}{s}' if weighted else ''}\n{s}#{s}c d e\n"
            for i, s in enumerate(spaces)
        )
        assert assert_loads_like_reference(text_of(text), weighted) is None
    # non-ASCII labels and indented comments
    text = "ü ö\n  # ü ö x\n日本 ü 3\n\u3000#\u3000c\n😀 日本 1/2\n\t#\nö 😀\n"
    for weighted in (False, True):
        assert_loads_like_reference(text_of(text), weighted)
    # lines from any iterable, with or without their line breaks
    for lines in (["a b", "b c\n", "# c", "", "c d 2"], ["a\tb\n", "b c 3", "a c"], ["a b"]):
        for weighted in (False, True):
            assert_loads_like_reference(lambda: iter(lines), weighted)
            assert_loads_like_reference(lambda: list(lines), weighted)
    # an input of two full-size blocks
    many = [f"v{i % 997} v{i * 7 % 1009}" for i in range(READ_BLOCK // 8)]
    assert len("\n".join(many)) > READ_BLOCK
    assert assert_loads_like_reference(text_of("\n".join(many))) is None
    # an input of many blocks and name batches, failing on a line of a
    # later one; a self loop's bad weight before it is never read
    monkeypatch.setattr(trusskit.graph, "READ_BLOCK", 1 << 12)
    monkeypatch.setattr(trusskit.graph, "NAME_BATCH", 1 << 10)
    many = many[: trusskit.graph.READ_BLOCK // 2]
    assert len("\n".join(many)) > 4 * trusskit.graph.READ_BLOCK
    assert assert_loads_like_reference(text_of("\n".join(many))) is None
    for at, line, weighted in (
        (len(many) - 3, "x y z", False),
        (len(many) * 3 // 4, "x", False),
        (len(many) // 2, "v1 v2 x", True),
        (len(many) - 1, "v1 v2 0", True),
        (len(many) * 2 // 3, "v1 v2 3 4", True),
    ):
        lines = [f"{pair} {i % 9 + 1}" if weighted else pair for i, pair in enumerate(many)]
        lines[at // 3] = "v5 v5 x" if weighted else "v5 v5"
        lines[at] = line
        assert assert_loads_like_reference(text_of("\n".join(lines) + "\n"), weighted) == at + 1
    # vertex ids past 16 bits, repeated in either order
    wide = [(f"a{i}", f"b{i}") for i in range(33000)] + [("b32999", "a32999"), ("a0", "b32999")]
    for weighted in (False, True):
        lines = [f"{u} {v} {i % 7 + 1}" if weighted else f"{u} {v}" for i, (u, v) in enumerate(wide)]
        assert assert_loads_like_reference(text_of("\n".join(lines)), weighted) is None


@given(
    st.lists(
        st.tuples(
            st.integers(0, 9), st.integers(0, 9), st.sampled_from(("", "1", "2", "3/2", "1.0"))
        ),
        max_size=40,
    ),
    st.booleans(),
)
def test_loader_graph_is_build_graph_of_its_pairs(rows, weighted):
    """On lines of pairs in either order, with repeats, self loops and
    weights, the loader's graph equals what build_graph makes of the
    distinct pairs in order of first appearance, each with its heaviest
    weight: the reference loader's graph."""
    text = "".join(f"v{u} v{v} {w if weighted else ''}\n" for u, v, w in rows)
    assert assert_loads_like_reference(text_of(text), weighted) is None


def test_scan_whitespace_is_str_split_whitespace():
    """The loader's byte rule marks exactly the bytes of the code points
    str.isspace accepts, over every code point's UTF-8 encoding; each one
    past ASCII turns into one space byte."""
    every = "".join(map(chr, range(0x110000)))
    data, space = _utf8(every)
    sizes = [1 if c.isspace() else len(c.encode("utf-8", "surrogatepass")) for c in every]
    want = np.repeat([c.isspace() for c in every], sizes)
    assert space.dtype == bool and np.array_equal(space[:-8], want) and space[-8:].all()
    wide = "".join(c for c in every if c.isspace() and c > "\x7f")
    assert bytes(data[: len(data) - 8]) == "".join(" " if c in wide else c for c in every).encode(
        "utf-8", "surrogatepass"
    )


def test_loader_blocks_cut_anywhere(tmp_path, monkeypatch):
    """Lines, CRLF breaks, multi-byte labels and multi-byte whitespace
    (U+00A0, U+3000) straddle block cuts as small as one character, in a
    stream, a text-mode file and an iterable of lines; names are numbered
    as few as one token at a time."""
    lines = [
        "ü\u00a0日本{}", "\u3000😀\u3000ö\t{}", "# ü ö", "ab\u00a0cd{}", "", "ü ab{}",
        "日本\u3000😀\u3000{}", "cd\u00a0\u00a0ab{}", "ö ü{}",
    ]
    for weighted in (False, True):
        text = "\r\n".join(
            line.format(f" {i % 4 + 1}/{i % 3 + 1}" if weighted else "") for i, line in enumerate(lines)
        )
        path = tmp_path / "cut.tsv"
        path.write_bytes(text.encode("utf-8"))
        for block in (1, 2, 3, 5, 7, 16, 1 << 20):
            monkeypatch.setattr(trusskit.graph, "READ_BLOCK", block)
            monkeypatch.setattr(trusskit.graph, "NAME_BATCH", block)
            assert assert_loads_like_reference(text_of(text), weighted) is None
            assert assert_loads_like_reference(lambda: open(path, encoding="utf-8"), weighted) is None
            assert assert_loads_like_reference(lambda: iter(text.splitlines(True)), weighted) is None


def test_loader_tokens_of_many_words(monkeypatch):
    """Names and weights of 7 to 40 bytes, ASCII and multi-byte, including
    names alike in their first 8 bytes, load as the reference loads them,
    numbered by the one sort kernel, all at once or a few at a time: no
    np.argsort, np.lexsort or np.unique."""

    def of_bytes(size, char):
        wide = len(char.encode("utf-8"))
        return char * (size // wide) + "a" * (size % wide)

    rng = random.Random(5)
    names = [of_bytes(size, char) for size in (7, 8, 9, 16, 17, 40) for char in "xé日😀"]
    names += ["abcdefgh", "abcdefgh1", "abcdefgh2", "abcdefghé", "abcdefgh" * 2, "abcdefgh" * 2 + "x"]
    weights = ["1", "1.000000000000000000001", "12345678901234567/3", "0.1234567", "00000002", "2"]
    assert {len(name.encode("utf-8")) for name in names} >= {7, 8, 9, 16, 17, 40}

    def refuse(*args, **kwargs):
        raise AssertionError("the loader called np.argsort, np.lexsort or np.unique")

    for name in ("argsort", "lexsort", "unique"):
        monkeypatch.setattr(np, name, refuse)
    for weighted in (False, True):
        lines = []
        for _ in range(400):
            pair = [rng.choice(names), rng.choice(names)]
            if weighted and rng.random() < 0.8:
                pair.append(rng.choice(weights))
            lines.append(" ".join(pair))
        for batch in (1, 7, 1 << 16):
            monkeypatch.setattr(trusskit.graph, "NAME_BATCH", batch)
            assert assert_loads_like_reference(text_of("\n".join(lines)), weighted) is None
        g = graph_from("\n".join(lines), weighted)
        assert set(g.labels) == {name for line in lines for name in line.split()[:2]}


def test_loader_lone_cr_in_a_stream_is_whitespace(tmp_path):
    """io.StringIO yields a lone "\\r" inside its line, where it is
    whitespace; a text-mode file ends the line there."""
    assert assert_loads_like_reference(text_of("a b\rc d\n")) == 1
    with pytest.raises(EdgeListParseError, match="^line 1: expected 2 tokens, got 4$"):
        graph_from("a b\rc d\n")
    path = tmp_path / "cr.tsv"
    path.write_bytes(b"a b\rc d\n")
    assert assert_loads_like_reference(lambda: open(path, encoding="utf-8")) is None
    with open(path, encoding="utf-8") as handle:
        g = load_edge_list(handle)
    assert (g.labels, g.ends.tolist()) == (("a", "b", "c", "d"), [[0, 1], [2, 3]])


def test_loader_weight_tokens():
    # equal weights written differently collapse to one maximum; the first
    # of equal maxima is kept, an omitted weight being the integer 1
    g = graph_from("a b 2\nb a 4/2\nc a\na c 1.0\nb c 1\nc b", weighted=True)
    assert g.ends.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert [(type(w), w) for w in g.weights] == [(Fraction, 2), (int, 1), (Fraction, 1)]
    # a self loop is dropped before its weight is read
    g = graph_from("a a x\nb b -1\na b 3", weighted=True)
    assert (g.n, g.m, g.weights) == (2, 1, (3,))
    # a bad token fails at its first line
    for text, lineno in (("a b 2\nb c 2\nc d 0\nd e 0", 3), ("a b 1/0\nb c 1/0", 1)):
        with pytest.raises(EdgeListParseError) as err:
            graph_from(text, weighted=True)
        assert err.value.lineno == lineno


def test_bad_weight_fails_before_later_blocks_are_read(tmp_path):
    """A bad weight fails in its own block: a byte that is not UTF-8 further
    on is never decoded. A self loop's bad weight is unread, so there the
    decode error is what is reported."""
    filler = b"".join(b"a%d b%d 1\n" % (i, i + 1) for i in range(20_000))
    assert len(filler) > 2 * READ_BLOCK
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"a b 1\nb c 2\nc d x\n" + filler + b"e \xff 1\n")
    with open(path, encoding="utf-8") as handle:
        with pytest.raises(EdgeListParseError, match="^line 3: bad weight 'x'$"):
            load_edge_list(handle, weighted=True)
    path.write_bytes(b"a b 1\nb c 2\nc c x\n" + filler + b"e \xff 1\n")
    with open(path, encoding="utf-8") as handle:
        with pytest.raises(UnicodeDecodeError):
            load_edge_list(handle, weighted=True)


def test_dolphins_counts(dolphins):
    assert dolphins.n == 62
    assert dolphins.m == 159


def test_edges_canonical_and_indexed(dolphins):
    for eid, (lo, hi) in enumerate(dolphins.edges):
        assert lo < hi
        assert edge_id(dolphins, lo, hi) == eid
        assert edge_id(dolphins, hi, lo) == eid
    g = build_graph(3, [(0, 2)])
    for u, v in ((-1, 0), (0, -1), (3, 0), (0, 3), (5, 0), (-3, 2)):
        assert edge_id(g, u, v) is None
        assert not has_edge(g, u, v)
    # ids outside the range raise instead of wrapping around to the end
    assert (degree(g, 2), neighbors(g, 2), edge_label_pair(g, 0)) == (1, [0], ("0", "2"))
    for v in (-1, -3, -4, 3, 5):
        with pytest.raises(IndexError, match=f"vertex {v} out of range"):
            degree(g, v)
        with pytest.raises(IndexError, match=f"vertex {v} out of range"):
            neighbors(g, v)
    for eid in (-1, -2, 1, 7):
        with pytest.raises(IndexError, match=f"edge {eid} out of range"):
            edge_label_pair(g, eid)


def test_degree_sum(dolphins):
    assert sum(degree(dolphins, v) for v in range(dolphins.n)) == 2 * dolphins.m


def test_neighbors_sorted(dolphins):
    for v in range(dolphins.n):
        nbrs = neighbors(dolphins, v)
        assert nbrs == sorted(nbrs)


def test_ranking_path():
    g = graph_from("a b\nb c")
    s = vertex_ranking(g)
    ranks = {g.labels[v]: s[v] for v in range(3)}
    assert ranks == {"a": 0, "c": 1, "b": 2}


def test_ranking_all_ties_by_label():
    g = graph_from("x y\ny z\nz x")
    s = vertex_ranking(g)
    assert [g.labels[v] for v in s.order] == ["x", "y", "z"]


def test_ranking_star():
    g = graph_from("h a\nh b\nh c\nh d\nh e")
    s = vertex_ranking(g)
    assert s[0] == 5  # center loaded first
    leaves = sorted((g.labels[v], s[v]) for v in range(1, 6))
    assert [r for _, r in leaves] == [0, 1, 2, 3, 4]


def test_ranking_matches_a_degree_then_label_sort():
    rng = random.Random(17)
    for _, g in random_graphs(30, 25, seed=1717):
        labels = [rng.choice("abcdefgh") * rng.randint(1, 3) for _ in range(g.n)]
        g = build_graph(g.n, g.ends, labels=labels)
        degree = g.degrees.tolist()
        expected = sorted(range(g.n), key=lambda v: (degree[v], labels[v]))
        s = vertex_ranking(g)
        assert s.order.tolist() == expected
        assert s.rank.tolist() == np.argsort(expected).tolist()


def test_ranking_independent_of_line_order():
    a = graph_from("a b\nb c\nc d")
    b = graph_from("c d\na b\nb c")
    ra = {a.labels[v]: vertex_ranking(a)[v] for v in range(a.n)}
    rb = {b.labels[v]: vertex_ranking(b)[v] for v in range(b.n)}
    assert ra == rb


def test_components_two_triangles():
    g = graph_from("a b\nb c\nc a\nx y\ny z\nz x")
    comps = connected_components(g)
    assert len(comps) == 2
    assert all(len(c) == 3 for c in comps)


def test_components_single(dolphins):
    comps = connected_components(dolphins)
    assert len(comps) == 1
    assert len(comps[0]) == 159


def test_components_partition_property():
    for _, g in random_graphs(30, 25, seed=101):
        comps = connected_components(g)
        seen = [e for c in comps for e in c]
        assert sorted(seen) == list(range(g.m))


def test_component_edge_sets_match_bfs():
    rng = random.Random(7)
    for _, g in random_graphs(60, 30, seed=202, densities=(0.03, 0.08, 0.2, 0.5)):
        assert connected_components(g) == bfs_components(g, range(g.m))
        for _ in range(5):
            subset = [rng.randrange(g.m) for _ in range(rng.randint(0, 2 * g.m))]
            assert component_edge_sets(g, subset) == bfs_components(g, subset)
        assert component_edge_sets(g, []) == []
    # isolated vertices among the components
    g = build_graph(9, [(7, 8), (1, 3), (3, 5), (0, 7)])
    assert connected_components(g) == [[0, 3], [1, 2]]
    # paths whose vertex and edge numbering make hooking and jumping slow:
    # ids alternate low and high along the path, or fall along it
    n = 2001
    zigzag = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    for walk in (zigzag, list(range(n - 1, -1, -1))):
        pairs = list(zip(walk, walk[1:]))
        rng.shuffle(pairs)
        g = build_graph(n, pairs)
        assert connected_components(g) == [list(range(n - 1))]
        subset = [e for e in range(g.m) if rng.random() < 0.9]
        assert component_edge_sets(g, subset + subset[:50]) == bfs_components(g, subset)


@pytest.mark.parametrize("call", [
    component_edge_sets,
    edge_nodes,
    induced_edge_subgraph,
    lambda g, eids: clusters_to_node_partition(g, [eids]),
], ids=["component_edge_sets", "edge_nodes", "induced_edge_subgraph", "clusters_to_node_partition"])
@pytest.mark.parametrize("eid", [-1, 4])
def test_unknown_edge_ids_are_refused(call, eid):
    # -1 would wrap to the last edge and 4 = m is past it
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for eids in ([eid], [0, eid]):
        with pytest.raises(ValueError, match=f"unknown edge id {eid}$"):
            call(c4, eids)



def reference_ranges(start, stop):
    return [i for lo, hi in zip(start, stop) for i in range(lo, hi)]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_ranges_match_a_loop(dtype):
    rng = np.random.default_rng(3)
    cases = [
        ([], []),
        ([4], [4]),                      # one zero-length range
        ([5, 2, 9], [5, 2, 9]),          # nothing but zero-length ranges
        ([0, 7, 3, 3], [2, 7, 6, 4]),    # zero-length between others; overlaps
        ([2**31 - 3, 0], [2**31 - 1, 1]),
    ]
    for _ in range(50):
        start = rng.integers(0, 1000, rng.integers(0, 30))
        cases.append((start, start + rng.integers(0, 5, len(start))))
    for start, stop in cases:
        got = _ranges(np.asarray(start, dtype), np.asarray(stop, dtype))
        assert got.dtype == np.intp
        assert got.tolist() == reference_ranges(list(start), list(stop))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_stable_sort_matches_a_stable_argsort(dtype, monkeypatch):
    rng = np.random.default_rng(17)
    top = int(np.iinfo(dtype).max)
    cases = [   # keys, bound, whether the stable argsort does the work
        (np.empty(0, dtype), 1, False),
        (np.zeros(9, dtype), 1, False),                    # all ties
        (rng.integers(0, 5, 4000, dtype=dtype), 5, False),
        # 3000 positions take 12 bits: int32 keys pack, int64 keys overflow
        (rng.integers(0, top, 3000, dtype=dtype), top, dtype == np.int64),
    ]
    if dtype == np.int64:
        edge = np.array([3, 1 << 60, 3, (1 << 61) - 1], dtype=np.int64)
        cases += [
            (edge, 1 << 61, False),        # four positions, two bits: just below 2^63
            (edge, (1 << 61) + 1, True),   # one more overflows
        ]
    argsort = np.argsort
    fallbacks = []
    monkeypatch.setattr(np, "argsort", lambda *a, **k: fallbacks.append(1) or argsort(*a, **k))
    for key, bound, falls_back in cases:
        want = argsort(key, kind="stable")
        del fallbacks[:]
        keys, order = _stable_sort(key, bound)
        assert order.dtype == np.int64 and np.array_equal(order, want)
        assert np.array_equal(keys, key[want])
        assert np.array_equal(_stable_sort(key, bound, keys=False), want)
        assert len(fallbacks) == 2 * falls_back


def reference_first_seen(keys):
    """Each key's number, each number's count and first position, by one
    dict pass that numbers keys as they first appear."""
    number, count, first = {}, [], []
    for i, key in enumerate(keys):
        if key not in number:
            number[key] = len(count)
            count.append(0)
            first.append(i)
        count[number[key]] += 1
    return [number[key] for key in keys], count, first


@given(
    st.sampled_from((1, 2, 7, 1 << 31, 1 << 62)).flatmap(
        lambda bound: st.tuples(
            st.lists(st.integers(0, bound - 1) | st.just(bound - 1), max_size=40), st.just(bound)
        )
    )
)
@example(([], 1))
@example(([5] * 9, 6))
@example(([6, 0, 6, 6, 0], 7))
@example(([3, (1 << 62) - 1, 3, 0], 1 << 62))   # 4 positions: 2^62 << 2 overflows int64
def test_first_seen_matches_a_dict(case):
    """Keys in 0..bound-1, int64 and, where they fit, int32, are numbered
    as a dict numbers them by first appearance, also where the bound is
    too wide to pack and _stable_sort falls back to np.argsort."""
    keys, bound = case
    want = reference_first_seen(keys)
    for dtype in (np.int32, np.int64):
        if bound - 1 > np.iinfo(dtype).max:
            continue
        each, count, first = _first_seen(np.array(keys, dtype=dtype), bound)
        assert each.dtype == np.int64 and count.dtype == np.int64
        assert (each.tolist(), count.tolist(), first.tolist()) == want


def reference_incidence(slots, m, width):
    return [[i // width for i, e in enumerate(slots) if e == edge] for edge in range(m)]


@pytest.mark.parametrize("width", [2, 3])
def test_incidence_matches_a_loop(width):
    rng = np.random.default_rng(width)
    cases = [
        (np.empty(0, np.int32), 0),
        (np.empty(0, np.int32), 3),      # edges with no rows at all
        (np.array([0, 2] * width, np.int32), 4),   # edges 1 and 3 have none
    ]
    for m in (1, 5, 30, 200):
        for dtype in (np.int32, np.int64):
            cases.append((rng.integers(0, m, width * rng.integers(0, 60)).astype(dtype), m))
    for slots, m in cases:
        start, rows = _incidence(slots, m, width)
        assert start.dtype == np.int32 and rows.dtype == np.int32
        assert len(start) == m + 1 and len(rows) == len(slots)
        want = reference_incidence(slots.tolist(), m, width)
        assert [sorted(rows[start[e] : start[e + 1]].tolist()) for e in range(m)] == want

def test_induced_identity():
    g = complete_graph(4)
    sub = induced_edge_subgraph(g, range(g.m))
    assert sub.graph.m == g.m and sub.graph.n == g.n


def test_induced_empty():
    g = complete_graph(4)
    sub = induced_edge_subgraph(g, [])
    assert sub.graph.m == 0 and sub.graph.n == 0


def test_induced_k4_minus_edge():
    g = complete_graph(4)
    sub = induced_edge_subgraph(g, [e for e in range(g.m) if e != 0])
    assert sub.graph.m == 5
    assert sorted(len(a) for a in adjacency(sub.graph)) == [2, 2, 3, 3]
    assert sub.graph.weight_code is None


def test_induced_keeps_the_parent_weight_objects():
    g = graph_from("a b 2\nb c 1.0\nc a\nc d 5/2\nd a 4/2\nb d 3\nd e", weighted=True)
    for subset in ([0, 1, 2, 3, 4, 5, 6], [1, 3, 5], [2, 6], [0, 4], []):
        sub = induced_edge_subgraph(g, subset)
        assert_weight_store(sub.graph)
        assert len(sub.graph.weights) == len(sub.edge_of)
        assert all(w is g.weights[e] for w, e in zip(sub.graph.weights, sub.edge_of))


def test_induced_unknown_edge():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        induced_edge_subgraph(g, [99])


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1), (1, 0)])  # duplicate under canonicalization
    for weight in (0, -1, float("nan"), float("inf"), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="non-positive edge weight"):
            build_graph(3, [(0, 1), (1, 2), (0, 2)], weights=[2, weight, 2])
        with pytest.raises(ValueError, match="non-positive edge weight"):
            build_graph(3, [(0, 1), (1, 2), (0, 2)], weights=[weight] * 3)
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        build_graph(3, [(-1, 1), (0, 1)])
    with pytest.raises(ValueError, match="vertex 3 out of range"):
        build_graph(3, [(0, 1), (1, 3)])
    with pytest.raises(ValueError, match="vertex 2 out of range"):
        build_graph(2, [(2, 0)])
    with pytest.raises(ValueError, match=f"vertex {2**70} out of range"):
        build_graph(3, [(0, 1), (2**70, 1)])
    with pytest.raises(ValueError, match="must be integers"):
        build_graph(3, [(0, 1), (1.5, 0)])


def test_disjoint_set():
    ds = DisjointSet(5)
    ds.union(0, 1)
    ds.union(3, 4)
    assert ds.together(0, 1) and not ds.together(1, 2)
    ds.union(1, 3)
    assert ds.together(0, 4)
    assert ds.find(2) == 2


@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(*[st.integers(0, n - 1)] * 3, st.booleans()), max_size=80
            ),
        )
    ),
    st.sampled_from((np.int32, np.int64)),
)
def test_component_labels_match_union_find(case, dtype):
    """Two- and three-column link rows, some with z repeating y, label every
    node with the smallest node of its union-find set; the caller's
    columns are read, never written."""
    n, drawn = case
    rows = [(x, y, y if repeat else z) for x, y, z, repeat in drawn]
    for width in (2, 3):
        columns = [np.array([row[j] for row in rows], dtype=dtype) for j in range(width)]
        copies = [column.copy() for column in columns]
        ds = DisjointSet(n)
        for row in rows:
            for node in row[1:width]:
                ds.union(row[0], node)
        smallest = {}
        for v in range(n):
            smallest.setdefault(ds.find(v), v)
        label = _component_labels(n, *columns)
        assert label.dtype == np.int32
        assert label.tolist() == [smallest[ds.find(v)] for v in range(n)]
        assert all(np.array_equal(c, copy) for c, copy in zip(columns, copies))
    empty = np.empty(0, dtype=np.int32)
    for width in (2, 3):
        assert _component_labels(n, *[empty] * width).tolist() == list(range(n))

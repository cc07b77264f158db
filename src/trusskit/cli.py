"""Command-line surface: decompositions, benchmarks, stats, and exports.

Every subcommand reads one edge-list file, writes TSV (or JSON) artifacts
into an output directory, and exits 0 on success, 1 on runtime or
validation failures (one diagnostic line on stderr), 2 on usage errors.
All randomness flows through --seed. Outputs are staged in a temporary
sibling of the output directory and moved into it only once every file is
written, so a failed run leaves the output directory as it was. Every file
is written as UTF-8 bytes with "\\n" line ends. A TSV table is a list of
columns, of strings or of integers, written in blocks of rows: each block is
one byte array gathered from the cells' encodings and one write(), never a
Python string per cell.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import re
import shutil
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import numpy as np

from . import bench as bench_mod
from .graph import Graph, _component_labels, _ranges, load_edge_list
from .strong import strong_truss_family, strong_trusses_at, summit_strong_trusses
from .triangles import edge_supports
from .trapeze import check_schedule, trapeze_level_run
from .truss import (
    Clusters,
    KClassDecomposition,
    k_classes,
    summit_trusses,
    truss_dendrogram,
    trusses_at,
)
from .weighted import TriangleWeightSpec, weighted_k_classes


class CommandError(Exception):
    """Validation or runtime failure: message for stderr, exit code 1."""


# -- output helpers -------------------------------------------------------


def label_pairs(graph: Graph, edges) -> list[list[str]]:
    """The [u, v] external labels of each listed edge id, in one gather."""
    labels, (us, vs) = graph.labels, graph.ends[edges].T.tolist()
    return [[labels[u], labels[v]] for u, v in zip(us, vs)]


def spans(clusters: Clusters):
    """(index, level, lo, hi) of each cluster of a store, in store order:
    its output index and level, and its edges' range in clusters.edges."""
    bounds = clusters.start.tolist()
    return enumerate(zip(clusters.level.tolist(), bounds, bounds[1:]))


# A table is written in blocks of up to ROWS_PER_WRITE rows, each block one
# uint8 array and one write(): one write per row costs wall time, one array
# per table memory. A block's scratch, mostly an int64 index per byte it
# writes, is 1-2 MB.
ROWS_PER_WRITE = 1 << 12
TAB, NEWLINE = ord("\t"), ord("\n")
# the two ASCII digits of each of 0..99 as one uint16
DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
# a code point outside XML 1.0's Char production, which no GraphML label holds
NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


class Strings:
    """A column of strings: row i holds strings[i], or strings[index[i]]
    once `at` has set an index. Each string is UTF-8 encoded once, followed
    by a tab, into one buffer; a cell is a (start, length) segment of it."""

    def __init__(self, strings):
        encoded = list(map(str.encode, strings))
        self.data = np.frombuffer(b"\t".join(encoded) + b"\t", np.uint8)
        self.length = np.fromiter(map(len, encoded), np.int64, len(encoded)) + 1
        self.start = np.cumsum(self.length) - self.length
        self.index, self.rows = None, len(encoded)

    def at(self, index: np.ndarray) -> "Strings":
        """The same strings, row i holding strings[index[i]]."""
        column = copy.copy(self)
        column.index, column.rows = index, len(index)
        return column

    def cells(self, region: np.ndarray, lo: int, hi: int):
        pick = slice(lo, hi) if self.index is None else self.index[lo:hi]
        return self.start[pick], self.length[pick]


class Ints:
    """A column of integers, each written in decimal and followed by `sep`:
    a byte, or one byte per row. A negative value is an empty cell, with no
    separator: the dendrogram's missing third id. `data` is scratch for one
    block, a grid of rows of `pairs` right-aligned two-digit places, the
    separator and a spare byte, so a cell is its grid row past the leading
    zeros. Rows have an even length, so each pair of places is one uint16."""

    def __init__(self, values: np.ndarray, sep=TAB):
        self.values, self.rows = values, len(values)
        width = len(str(int(values.max(initial=0))))
        self.pairs = (width + 1) // 2
        # a value's digit count is how many of 0, 10, 100, ... it reaches
        self.tens = np.array([0, *(10**j for j in range(1, width))], dtype=values.dtype)
        self.sep = np.broadcast_to(np.asarray(sep, np.uint8), (self.rows,))
        block = min(self.rows, ROWS_PER_WRITE)
        stride = 2 * self.pairs + 2
        self.data = np.empty(block * stride, np.uint8)
        self.last = np.arange(block) * stride + 2 * self.pairs   # each row's separator

    def cells(self, region: np.ndarray, lo: int, hi: int):
        values, pairs = self.values[lo:hi], self.pairs
        grid = region[: (hi - lo) * (2 * pairs + 2)]
        places = grid.view(np.uint16).reshape(hi - lo, pairs + 1)
        rest = values
        # two places per floor division by a scalar, read from a table:
        # numpy's divmod and % are slow
        for column in range(pairs - 1, -1, -1):
            high = rest // 100
            places[:, column] = DIGIT_PAIRS.take(rest - high * 100)
            rest = high
        grid[2 * pairs :: 2 * pairs + 2] = self.sep[lo:hi]
        digits = np.searchsorted(self.tens, values, side="right")
        return self.last[: hi - lo] - digits, digits + (digits > 0)


def write_rows(outdir: Path, name: str, columns: list) -> None:
    """Write a table whose row i holds cell i of each column, tab-separated
    and newline-terminated. All columns' data lie in one byte pool; each
    block of rows is one gather of its cells' byte ranges from the pool
    (`graph._ranges`) and one write()."""
    base = np.cumsum([0, *(len(column.data) for column in columns)])
    pool = np.concatenate([column.data for column in columns])
    rows, ncols = columns[0].rows, len(columns)
    with open(outdir / name, "wb") as handle:
        for lo in range(0, rows, ROWS_PER_WRITE):
            hi = min(lo + ROWS_PER_WRITE, rows)
            start = np.empty((hi - lo, ncols), np.int64)
            length = np.empty_like(start)
            for j, column in enumerate(columns):
                cell_start, length[:, j] = column.cells(pool[base[j] : base[j + 1]], lo, hi)
                np.add(cell_start, base[j], out=start[:, j])
            block = pool[_ranges(start.ravel(), (start + length).ravel())]
            block[np.cumsum(length.sum(axis=1)) - 1] = NEWLINE   # each row's last tab
            handle.write(block)


def edge_rows(graph: Graph, labels: Strings, sets: list[Clusters], kind: str | None = None) -> list:
    """Columns of "<k>\t[<kind>\t]<index>\t<u>\t<v>" rows, one per edge of
    each cluster of each store in turn, indexed from 0 within its store;
    `labels` is the column of the graph's labels."""
    prefix = "" if kind is None else f"{kind}\t"
    heads = Strings([f"{k}\t{prefix}{i}" for c in sets for i, (k, *_) in spans(c)])
    sizes = np.concatenate([np.empty(0, np.int64), *(np.diff(c.start) for c in sets)])
    ends = graph.ends[np.concatenate([np.empty(0, np.int32), *(c.edges for c in sets)])]
    return [
        heads.at(np.repeat(np.arange(len(sizes)), sizes)),
        labels.at(ends[:, 0]),
        labels.at(ends[:, 1]),
    ]


def trussness_rows(graph: Graph, labels: Strings, trussness: np.ndarray) -> list:
    """Columns of "<u>\t<v>\t<trussness>" rows, one row per edge in id order;
    `labels` is the column of the graph's labels."""
    return [labels.at(graph.ends[:, 0]), labels.at(graph.ends[:, 1]), Ints(trussness)]


def clusters_json(
    graph: Graph, sets: list[Clusters], kind: str | None = None, name: str = "clusters"
) -> str:
    """{name: [{k, index, edges as [u, v] labels, and kind when given}]},
    one entry per cluster of each store in turn."""
    out = []
    for clusters in sets:
        pairs = label_pairs(graph, clusters.edges)
        out += [
            {"k": k, "index": i, "edges": pairs[lo:hi]} | ({"kind": kind} if kind else {})
            for i, (k, lo, hi) in spans(clusters)
        ]
    return json.dumps({name: out}, indent=2, sort_keys=True) + "\n"


def labels_rows(labels: Strings) -> list:
    """Columns of "<vertex id>\t<label>" rows, from the column of a graph's
    labels: each subcommand encodes them once and passes that column to
    every table it writes."""
    return [Ints(np.arange(labels.rows)), labels]


def dendrogram_rows(family) -> list:
    """Columns of "<level>\t<absorbed>[,<third>]\t<survivor>" rows, one per
    merge; a third id joins merges of three clusters."""
    table = family.merges
    third = table[:, 3]
    return [
        Ints(table[:, 0]),
        Ints(table[:, 2], sep=np.where(third >= 0, np.uint8(ord(",")), np.uint8(TAB))),
        Ints(third),
        Ints(table[:, 1]),
    ]


def dot_export(graph: Graph, clusters: Clusters) -> str:
    """One DOT subgraph per cluster, each edge tagged with its cluster. Node
    ids are quoted labels, with each backslash and then each double quote
    escaped, so every id closes and distinct labels stay distinct."""
    lines = ["graph clusters {"]
    pairs = label_pairs(graph, clusters.edges)
    for idx, (k, lo, hi) in spans(clusters):
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f'    label="k={k}";')
        for u, v in pairs[lo:hi]:
            u, v = (x.replace("\\", "\\\\").replace('"', '\\"') for x in (u, v))
            lines.append(f'    "{u}" -- "{v}" [cluster={idx}];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graphml_export(decomposition: KClassDecomposition, clusters: Clusters) -> str:
    """The decomposition's graph as GraphML; a label XML cannot hold is refused."""
    # imported here: xml.sax.saxutils pulls in urllib.request, http.client,
    # ssl, email and socket, which no other subcommand needs
    from xml.sax.saxutils import quoteattr

    graph = decomposition.graph
    bad = next(filter(NOT_XML.search, graph.labels), None)
    if bad is not None:
        raise CommandError(f"label {bad!r} holds a character XML cannot hold")
    cluster_of = np.full(graph.m, -1)
    cluster_of[clusters.edges] = np.repeat(np.arange(len(clusters)), np.diff(clusters.start))
    cluster_of = cluster_of.tolist()
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="phi" for="edge" attr.name="phi" attr.type="int"/>',
        '  <key id="cluster" for="edge" attr.name="cluster" attr.type="int"/>',
        '  <graph edgedefault="undirected">',
    ]
    for label in graph.labels:
        out.append(f"    <node id={quoteattr(label)}/>")
    phi = decomposition.trussness.tolist()
    for eid, (lo, hi) in enumerate(zip(*graph.ends.T.tolist())):
        out.append(f"    <edge source={quoteattr(graph.labels[lo])} target={quoteattr(graph.labels[hi])}>")
        out.append(f'      <data key="phi">{phi[eid]}</data>')
        out.append(f'      <data key="cluster">{cluster_of[eid]}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"


def write(outdir: Path, name: str, text: str) -> None:
    """Write text as UTF-8 bytes, so each line ends in "\\n" on every platform."""
    (outdir / name).write_bytes(text.encode())


@contextmanager
def staged_output(out: str) -> Iterator[Path]:
    """A temporary sibling directory of `out` to write into. Its files move
    into `out` when the block ends normally; if it raises, `out` is left as
    it was. The temporary directory is removed either way."""
    outdir = Path(out)
    try:
        outdir.parent.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=f".{outdir.name}.", dir=outdir.parent))
    except OSError as exc:
        raise CommandError(f"cannot write {out}: {exc.strerror}") from exc
    try:
        yield stage
        try:
            outdir.mkdir(exist_ok=True)
            for path in sorted(stage.iterdir()):
                os.replace(path, outdir / path.name)
        except OSError as exc:
            raise CommandError(f"cannot write {out}: {exc.strerror}") from exc
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def load_input(path: str, weighted: bool) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return load_edge_list(handle, weighted=weighted)
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc.strerror}") from exc


# -- subcommands ----------------------------------------------------------


def cmd_decompose(args: argparse.Namespace) -> None:
    weighted = args.command == "weighted-truss"
    # arguments are checked before any loading, computing or writing
    if args.command != "summit" and args.k < 2:
        raise CommandError("k must be at least 2")
    if weighted:
        fn = "minimum" if args.weight_fn == "min" else "harmonic"
        spec = TriangleWeightSpec(fn, _parse_alpha(args.alpha))
    graph = load_input(args.input, weighted=weighted or args.weighted)
    decomposition = (
        weighted_k_classes(graph, spec) if weighted else k_classes(graph, edge_supports(graph))
    )

    with staged_output(args.out) as stage:
        clusters = _decompose_outputs(args, decomposition, stage)
    print(f"{len(clusters)} clusters -> {Path(args.out)}")


def _decompose_outputs(
    args: argparse.Namespace, decomposition: KClassDecomposition, stage: Path
) -> Clusters:
    graph = decomposition.graph
    labels = Strings(graph.labels)
    write_rows(stage, "labels.tsv", labels_rows(labels))
    write_rows(stage, "trussness.tsv", trussness_rows(graph, labels, decomposition.trussness))

    if args.command in ("truss", "weighted-truss"):
        clusters = trusses_at(decomposition, args.k)
        kind = None
        family = truss_dendrogram(decomposition)
        write_rows(stage, "dendrogram.tsv", dendrogram_rows(family))
    elif args.command == "strong-truss":
        family = strong_truss_family(decomposition)
        clusters = strong_trusses_at(family, args.k)
        kind = "strong"
        write_rows(stage, "dendrogram.tsv", dendrogram_rows(family))
    elif args.strong:  # summit --strong
        clusters = summit_strong_trusses(strong_truss_family(decomposition))
        kind = "strong"
    else:  # summit
        clusters = summit_trusses(decomposition)
        kind = None

    if args.format == "tsv":
        write_rows(stage, "clusters.tsv", edge_rows(graph, labels, [clusters], kind))
    else:
        write(stage, "clusters.json", clusters_json(graph, [clusters], kind))
    if args.dot:
        write(stage, "clusters.dot", dot_export(graph, clusters))
    if args.graphml:
        write(stage, "clusters.graphml", graphml_export(decomposition, clusters))
    return clusters


def cmd_trapeze(args: argparse.Namespace) -> None:
    # the schedule is checked before any loading, computing or writing
    if args.levels:
        try:
            schedule = [int(tok) for tok in args.levels.split(",") if tok]
        except ValueError as exc:
            raise CommandError(f"bad --levels: {exc}") from exc
    elif args.geometric > 30:
        raise CommandError("--geometric must be at most 30: levels must be at most 2^31-1")
    else:
        schedule = [1 << i for i in range(args.geometric + 1)]
    check_schedule(schedule)
    graph = load_input(args.input, weighted=False)
    if args.check_bipartite:
        print(f"bipartite: {is_bipartite(graph)}")

    run = trapeze_level_run(graph, schedule)
    if args.command == "summit-trapeze":
        kind, sets = "summit", [run.summits]
    else:   # each reads only the family it writes: run.weak or run.strong
        kind = "weak" if args.command == "trapeze" else "strong"
        sets = list(getattr(run, kind).values())

    with staged_output(args.out) as stage:
        labels = Strings(graph.labels)
        write_rows(stage, "labels.tsv", labels_rows(labels))
        if args.format == "tsv":
            write_rows(stage, "trapezes.tsv", edge_rows(graph, labels, sets, kind))
        else:
            write(stage, "trapezes.json", clusters_json(graph, sets, kind, "trapezes"))
        # summits always accompany a level run
        write_rows(stage, "summits.tsv", edge_rows(graph, labels, [run.summits], "summit"))
    print(f"{sum(map(len, sets))} entries -> {Path(args.out)}")


def cmd_bench(args: argparse.Namespace) -> None:
    if args.k_min < 2:
        raise CommandError(f"--k-min must be at least 2, got {args.k_min}")
    if args.k_max and args.k_max < args.k_min:
        raise CommandError(f"--k-max must be 0 or at least --k-min {args.k_min}, got {args.k_max}")
    if args.sizes:
        try:
            lo, hi = (int(tok) for tok in args.sizes.split(".."))
        except ValueError as exc:
            raise CommandError(f"bad --sizes, expected lo..hi: {args.sizes}") from exc
        group_size: int | tuple[int, int] = (lo, hi)
    elif args.size is not None:
        group_size = args.size
    else:
        raise CommandError("one of --size or --sizes is required")
    model = bench_mod.PlantedModel(
        l=args.l, group_size=group_size, p=args.p, mu=args.mu,
        seed=args.seed, inter_prob=args.r,
    )
    k_range = range(args.k_min, args.k_max + 1) if args.k_max else None
    report = bench_mod.run_benchmark(model, args.method, trials=args.trials, k_range=k_range)
    # without --k-max the run covers every level from 2; drop those below --k-min
    report = dataclasses.replace(
        report, rows=tuple(r for r in report.rows if r.k is None or r.k >= args.k_min)
    )
    with staged_output(args.out) as stage:
        if args.format == "json":
            rows = [
                {"method": r.method, "k": r.k, "mean_nmi": round(r.mean_nmi, 4), "trials": r.trials}
                for r in report.rows
            ]
            write(stage, "bench.json", json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n")
        else:
            write(stage, "bench.tsv", report.to_tsv())
    print(f"seed={args.seed}")
    print(report.summary(), end="")


def cmd_stats(args: argparse.Namespace) -> None:
    graph = load_input(args.input, weighted=args.weighted)
    supports = edge_supports(graph)
    decomposition = k_classes(graph, supports)
    sizes = np.bincount(decomposition.trussness)
    levels = np.flatnonzero(sizes)
    stats = {
        "n": graph.n,
        "m": graph.m,
        "triangles": supports.total_triangles(),
        "max_degree": int(graph.degrees.max(initial=0)),
        "k_max": decomposition.k_max,
        "class_sizes": dict(zip(map(str, levels.tolist()), sizes[levels].tolist())),
    }
    print(json.dumps(stats, indent=2, sort_keys=True))


def _parse_alpha(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CommandError(f"bad --alpha: {text}") from exc
    if value <= 0:
        raise CommandError("--alpha must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trusskit", description="Truss and trapeze decompositions"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="edge list file, one edge per line")
        p.add_argument("-o", "--out", default="trusskit-out", help="output directory")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    def decompose(p, needs_k=False):
        common(p)
        p.set_defaults(run=cmd_decompose)
        p.add_argument("--weighted", action="store_true", help="input has edge weights")
        p.add_argument("--dot", action="store_true", help="also write DOT export")
        p.add_argument("--graphml", action="store_true", help="also write GraphML export")
        if needs_k:
            p.add_argument("--k", type=int, required=True, help="support level")

    decompose(sub.add_parser("truss", help="maximal k-trusses"), needs_k=True)
    decompose(sub.add_parser("strong-truss", help="strong k-trusses"), needs_k=True)
    p = sub.add_parser("summit", help="summit trusses")
    decompose(p)
    p.add_argument("--strong", action="store_true", help="summit strong trusses")
    p = sub.add_parser("weighted-truss", help="weighted k-trusses")
    decompose(p, needs_k=True)
    p.add_argument("--weight-fn", choices=("min", "harmonic"), default="min")
    p.add_argument("--alpha", default="1", help="positive rational scaling constant")

    for name in ("trapeze", "strong-trapeze", "summit-trapeze"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')}s over a level schedule")
        common(p)
        p.set_defaults(run=cmd_trapeze)
        p.add_argument("--levels", help="comma-separated ascending support levels")
        p.add_argument(
            "--geometric", type=int, default=6,
            help="use levels 1,2,4,...,2^N when --levels is absent",
        )
        p.add_argument("--check-bipartite", action="store_true",
                       help="report (not enforce) whether the graph is bipartite")

    p = sub.add_parser("bench", help="planted-partition benchmark")
    p.set_defaults(run=cmd_bench)
    p.add_argument("--l", type=int, required=True, help="number of groups")
    p.add_argument("--size", type=int, help="nodes per group")
    p.add_argument("--sizes", help="uniform size range lo..hi")
    p.add_argument("--p", type=float, required=True, help="intra-group probability")
    p.add_argument("--mu", type=float, required=True, help="mixing fraction")
    p.add_argument("--r", type=float, help="inter-group probability (overrides --mu)")
    p.add_argument("--method", choices=bench_mod.METHODS, default="truss")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-min", type=int, default=3)
    p.add_argument("--k-max", type=int, default=0, help="0 = all levels present")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("-o", "--out", default="trusskit-out")

    p = sub.add_parser("stats", help="basic graph statistics")
    p.set_defaults(run=cmd_stats)
    p.add_argument("input")
    p.add_argument("--weighted", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args)
    except (CommandError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    return 0


def is_bipartite(graph: Graph) -> bool:
    """Whether the vertices 2-colour: no vertex v shares a component with
    its copy v' in the doubled graph, whose links join u to v' and u' to v
    for every edge (u, v)."""
    n, (u, v) = graph.n, graph.ends.T
    label = _component_labels(2 * n, np.concatenate((u, u + n)), np.concatenate((v + n, v)))
    return not np.any(label[:n] == label[n:])


if __name__ == "__main__":
    sys.exit(main())

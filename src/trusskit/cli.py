"""Command-line surface: decompositions, benchmarks, stats, and exports.

Every subcommand reads one edge-list file, writes TSV (or JSON) artifacts
into an output directory, and exits 0 on success, 1 on runtime or
validation failures (one diagnostic line on stderr), 2 on usage errors.
All randomness flows through --seed. Outputs are staged in a temporary
sibling of the output directory and moved into it only once every file is
written, so a failed run leaves the output directory as it was; tables are
streamed in chunks of rows rather than built as one string.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator
from xml.sax.saxutils import quoteattr

import numpy as np

from . import bench as bench_mod
from .graph import Graph, _component_labels, load_edge_list
from .strong import strong_truss_family, strong_trusses_at, summit_strong_trusses
from .triangles import edge_supports
from .trapeze import trapeze_level_run
from .truss import (
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


def renumber(clusters: list[tuple[int, frozenset[int] | list[int]]]):
    """Assign output ids 0..C-1 in order of each cluster's first edge; each
    cluster's edge ids become an ascending array."""
    ordered = sorted(clusters, key=lambda kc: min(kc[1]))
    return [(i, k, np.sort(np.fromiter(edges, np.int64))) for i, (k, edges) in enumerate(ordered)]


def label_pairs(graph: Graph, edges) -> list[list[str]]:
    """The [u, v] external labels of each listed edge id, in one gather."""
    labels, (us, vs) = graph.labels, graph.ends[edges].T.tolist()
    return [[labels[u], labels[v]] for u, v in zip(us, vs)]


# Tables stream as text blocks of up to ROWS_PER_WRITE rows, each block one
# write(): one write per row costs wall time, one string per table memory.
ROWS_PER_WRITE = 1 << 12


def tsv_block(*columns) -> str:
    """Newline-terminated rows of tab-separated cells, row i holding item i
    of each column of strings. The cells and separators are laid out in one
    object array and joined at once, with no Python step per row."""
    cells = np.empty((len(columns[0]), 2 * len(columns)), dtype=object)
    cells[:, 1::2] = "\t"
    cells[:, -1] = "\n"
    for j, column in enumerate(columns):
        cells[:, 2 * j] = column
    return "".join(cells.ravel().tolist())


def edge_rows(graph: Graph, rows, kind: str | None = None) -> Iterator[str]:
    """Blocks of "<k>\t[<kind>\t]<index>\t<u>\t<v>" rows, one per edge of
    each renumbered cluster; blocks span clusters."""
    prefix = "" if kind is None else f"{kind}\t"
    heads = np.array([f"{k}\t{prefix}{idx}" for idx, k, _ in rows], dtype=object)
    head = np.repeat(heads, [len(edges) for *_, edges in rows])
    eids = np.concatenate([np.empty(0, np.int64), *(edges for *_, edges in rows)])
    labels = np.array(graph.labels, dtype=object)
    for lo in range(0, len(eids), ROWS_PER_WRITE):
        pair = labels[graph.ends[eids[lo : lo + ROWS_PER_WRITE]]]
        yield tsv_block(head[lo : lo + ROWS_PER_WRITE], pair[:, 0], pair[:, 1])


def trussness_rows(graph: Graph, phi) -> Iterator[str]:
    """Blocks of "<u>\t<v>\t<phi>" rows, one row per edge in id order."""
    labels = np.array(graph.labels, dtype=object)
    levels, level = np.unique(np.asarray(phi, dtype=np.int64), return_inverse=True)
    text = np.array([str(k) for k in levels.tolist()], dtype=object)   # one str per level
    for lo in range(0, graph.m, ROWS_PER_WRITE):
        pair = labels[graph.ends[lo : lo + ROWS_PER_WRITE]]
        yield tsv_block(pair[:, 0], pair[:, 1], text[level[lo : lo + ROWS_PER_WRITE]])


def clusters_json(graph: Graph, rows, kind: str | None = None, name: str = "clusters") -> str:
    """{name: [{k, index, edges as [u, v] labels, and kind when given}]}."""
    out = [
        {"k": k, "index": idx, "edges": label_pairs(graph, edges)} | ({"kind": kind} if kind else {})
        for idx, k, edges in rows
    ]
    return json.dumps({name: out}, indent=2, sort_keys=True) + "\n"


def labels_rows(graph: Graph) -> Iterator[str]:
    """Blocks of "<vertex id>\t<label>\n" rows."""
    labels = graph.labels
    for lo in range(0, graph.n, ROWS_PER_WRITE):
        rows = enumerate(labels[lo : lo + ROWS_PER_WRITE], lo)
        yield "".join([f"{i}\t{label}\n" for i, label in rows])


def dendrogram_rows(family) -> Iterator[str]:
    """Blocks of "<level>\t<absorbed,...>\t<survivor>\n" rows, one per merge."""
    table = family.merges.table
    for lo in range(0, len(table), ROWS_PER_WRITE):
        rows = zip(*table[lo : lo + ROWS_PER_WRITE].T.tolist())
        yield "".join([f"{lv}\t{a0 if a1 < 0 else f'{a0},{a1}'}\t{s}\n" for lv, s, a0, a1 in rows])


def dot_export(graph: Graph, rows) -> str:
    """One DOT subgraph per cluster, each edge tagged with its cluster. Node
    ids are quoted labels, with each backslash and then each double quote
    escaped, so every id closes and distinct labels stay distinct."""
    lines = ["graph clusters {"]
    for idx, k, edges in rows:
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f'    label="k={k}";')
        for u, v in label_pairs(graph, edges):
            u, v = (x.replace("\\", "\\\\").replace('"', '\\"') for x in (u, v))
            lines.append(f'    "{u}" -- "{v}" [cluster={idx}];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graphml_export(graph: Graph, decomposition: KClassDecomposition, rows) -> str:
    cluster_of = np.full(graph.m, -1)
    for idx, _, edges in rows:
        cluster_of[edges] = idx
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
    for eid, (lo, hi) in enumerate(zip(*graph.ends.T.tolist())):
        out.append(f"    <edge source={quoteattr(graph.labels[lo])} target={quoteattr(graph.labels[hi])}>")
        out.append(f'      <data key="phi">{decomposition.phi[eid]}</data>')
        out.append(f'      <data key="cluster">{cluster_of[eid]}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"


def write(outdir: Path, name: str, text: str) -> None:
    (outdir / name).write_text(text, encoding="utf-8")


def write_rows(outdir: Path, name: str, blocks: Iterable[str]) -> None:
    """Write a table streamed as blocks of rows, one write per block."""
    with open(outdir / name, "w", encoding="utf-8") as handle:
        handle.writelines(blocks)


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
    except ValueError as exc:
        raise CommandError(str(exc)) from exc


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
        rows = _decompose_outputs(args, graph, decomposition, stage)
    print(f"{len(rows)} clusters -> {Path(args.out)}")


def _decompose_outputs(
    args: argparse.Namespace, graph: Graph, decomposition: KClassDecomposition, stage: Path
) -> list:
    write_rows(stage, "labels.tsv", labels_rows(graph))
    write_rows(stage, "trussness.tsv", trussness_rows(graph, decomposition.phi))

    if args.command in ("truss", "weighted-truss"):
        rows = renumber([(args.k, m) for m in trusses_at(decomposition, graph, args.k).members])
        kind = None
        family = truss_dendrogram(decomposition, graph)
        write_rows(stage, "dendrogram.tsv", dendrogram_rows(family))
    elif args.command == "strong-truss":
        family = strong_truss_family(graph, decomposition)
        rows = renumber([(args.k, m) for m in strong_trusses_at(family, args.k)])
        kind = "strong"
        write_rows(stage, "dendrogram.tsv", dendrogram_rows(family))
    elif args.strong:  # summit --strong
        rows = renumber(summit_strong_trusses(strong_truss_family(graph, decomposition)))
        kind = "strong"
    else:  # summit
        rows = renumber(summit_trusses(decomposition, graph))
        kind = None

    if args.format == "tsv":
        write_rows(stage, "clusters.tsv", edge_rows(graph, rows, kind))
    else:
        write(stage, "clusters.json", clusters_json(graph, rows, kind))
    if args.dot:
        write(stage, "clusters.dot", dot_export(graph, rows))
    if args.graphml:
        write(stage, "clusters.graphml", graphml_export(graph, decomposition, rows))
    return rows


def cmd_trapeze(args: argparse.Namespace) -> None:
    # the schedule is checked before any loading, computing or writing
    if args.levels:
        try:
            schedule = [int(tok) for tok in args.levels.split(",") if tok]
        except ValueError as exc:
            raise CommandError(f"bad --levels: {exc}") from exc
    else:
        schedule = [1 << i for i in range(args.geometric + 1)]
    if not schedule or schedule[0] < 1 or any(
        b <= a for a, b in zip(schedule, schedule[1:])
    ):
        raise CommandError("levels must be strictly ascending and at least 1")
    graph = load_input(args.input, weighted=False)
    if args.check_bipartite:
        print(f"bipartite: {is_bipartite(graph)}")

    run = trapeze_level_run(graph, schedule)
    summits = renumber(list(run.summits))
    if args.command == "summit-trapeze":
        kind, rows = "summit", summits
    else:
        kind = "weak" if args.command == "trapeze" else "strong"
        source = run.weak if kind == "weak" else run.strong
        rows = [row for k in schedule for row in renumber([(k, m) for m in source[k].members])]

    with staged_output(args.out) as stage:
        write_rows(stage, "labels.tsv", labels_rows(graph))
        if args.format == "tsv":
            write_rows(stage, "trapezes.tsv", edge_rows(graph, rows, kind))
        else:
            write(stage, "trapezes.json", clusters_json(graph, rows, kind, "trapezes"))
        # summits always accompany a level run
        write_rows(stage, "summits.tsv", edge_rows(graph, summits, "summit"))
    print(f"{len(rows)} entries -> {Path(args.out)}")


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
    try:
        model = bench_mod.PlantedModel(
            l=args.l, group_size=group_size, p=args.p, mu=args.mu,
            seed=args.seed, inter_prob=args.r,
        )
        k_range = range(args.k_min, args.k_max + 1) if args.k_max else None
        report = bench_mod.run_benchmark(
            model, args.method, trials=args.trials, k_range=k_range
        )
    except bench_mod.InfeasibleModelError as exc:
        raise CommandError(str(exc)) from exc
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    # without --k-max the run covers every level from 3; drop those below --k-min
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
    stats = {
        "n": graph.n,
        "m": graph.m,
        "triangles": supports.total_triangles(),
        "max_degree": int(graph.degrees.max(initial=0)),
        "k_max": decomposition.k_max,
        "class_sizes": {str(k): len(v) for k, v in sorted(decomposition.classes.items())},
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
        p.add_argument("--levels", help="comma-separated ascending support levels")
        p.add_argument(
            "--geometric", type=int, default=6,
            help="use levels 1,2,4,...,2^N when --levels is absent",
        )
        p.add_argument("--check-bipartite", action="store_true",
                       help="report (not enforce) whether the graph is bipartite")

    p = sub.add_parser("bench", help="planted-partition benchmark")
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
    p.add_argument("input")
    p.add_argument("--weighted", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("truss", "strong-truss", "summit", "weighted-truss"):
            cmd_decompose(args)
        elif args.command in ("trapeze", "strong-trapeze", "summit-trapeze"):
            cmd_trapeze(args)
        elif args.command == "bench":
            cmd_bench(args)
        elif args.command == "stats":
            cmd_stats(args)
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

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
import json
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator
from xml.sax.saxutils import quoteattr

from . import bench as bench_mod
from .graph import Graph, load_edge_list
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
    """Assign output ids 0..C-1 in order of each cluster's first edge."""
    ordered = sorted(clusters, key=lambda kc: min(kc[1]))
    return [(i, k, sorted(edges)) for i, (k, edges) in enumerate(ordered)]


def edge_rows(graph: Graph, groups) -> Iterator[str]:
    """One "<head><u>\t<v>\n" row per edge of each (head, edge ids) group."""
    labels, ends = graph.labels, graph.edges
    for head, edges in groups:
        for eid in edges:
            lo, hi = ends[eid]
            yield f"{head}{labels[lo]}\t{labels[hi]}\n"


def clusters_json(graph: Graph, rows, kind: str | None = None) -> str:
    out = []
    for idx, k, edges in rows:
        entry = {
            "k": k,
            "index": idx,
            "edges": [list(graph.edge_label_pair(e)) for e in edges],
        }
        if kind is not None:
            entry["kind"] = kind
        out.append(entry)
    return json.dumps({"clusters": out}, indent=2, sort_keys=True) + "\n"


def labels_rows(graph: Graph) -> Iterator[str]:
    return (f"{i}\t{label}\n" for i, label in enumerate(graph.labels))


def dendrogram_rows(family) -> Iterator[str]:
    for merge in family.merges:
        absorbed = ",".join(str(a) for a in merge.absorbed)
        yield f"{merge.level}\t{absorbed}\t{merge.survivor}\n"


def dot_export(graph: Graph, rows) -> str:
    """One DOT subgraph per cluster, each edge tagged with its cluster."""
    lines = ["graph clusters {"]
    for idx, k, edges in rows:
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f'    label="k={k}";')
        for eid in edges:
            u, v = graph.edge_label_pair(eid)
            lines.append(f'    "{u}" -- "{v}" [cluster={idx}];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graphml_export(graph: Graph, decomposition: KClassDecomposition, rows) -> str:
    cluster_of: dict[int, int] = {}
    for idx, _, edges in rows:
        for eid in edges:
            cluster_of[eid] = idx
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="phi" for="edge" attr.name="phi" attr.type="int"/>',
        '  <key id="cluster" for="edge" attr.name="cluster" attr.type="int"/>',
        '  <graph edgedefault="undirected">',
    ]
    for label in graph.labels:
        out.append(f"    <node id={quoteattr(label)}/>")
    for eid, (lo, hi) in enumerate(graph.edges):
        out.append(f"    <edge source={quoteattr(graph.labels[lo])} target={quoteattr(graph.labels[hi])}>")
        out.append(f'      <data key="phi">{decomposition.phi[eid]}</data>')
        out.append(f'      <data key="cluster">{cluster_of.get(eid, -1)}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"


# rows joined per write() when a table is streamed: one write per row costs
# wall time, one string per table costs memory
ROWS_PER_WRITE = 1 << 12


def write(outdir: Path, name: str, text: str) -> None:
    (outdir / name).write_text(text, encoding="utf-8")


def write_rows(outdir: Path, name: str, rows: Iterable[str]) -> None:
    """Write newline-terminated rows, ROWS_PER_WRITE of them per write."""
    rows = iter(rows)
    with open(outdir / name, "w", encoding="utf-8") as handle:
        while chunk := "".join(islice(rows, ROWS_PER_WRITE)):
            handle.write(chunk)


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
    labels, phi = graph.labels, decomposition.phi
    write_rows(stage, "labels.tsv", labels_rows(graph))
    write_rows(
        stage,
        "trussness.tsv",
        (f"{labels[u]}\t{labels[v]}\t{phi[e]}\n" for e, (u, v) in enumerate(graph.edges)),
    )

    if args.command in ("truss", "weighted-truss"):
        k = args.k
        rows = renumber([(k, mem) for mem in trusses_at(decomposition, graph, k).members])
        kind = None
        family = truss_dendrogram(decomposition, graph)
        write_rows(stage, "dendrogram.tsv", dendrogram_rows(family))
    elif args.command == "strong-truss":
        k = args.k
        family = strong_truss_family(graph, decomposition)
        rows = renumber([(k, mem) for mem in strong_trusses_at(family, k)])
        kind = "strong"
        write_rows(stage, "dendrogram.tsv", dendrogram_rows(family))
    else:  # summit
        if args.strong:
            family = strong_truss_family(graph, decomposition)
            rows = renumber(summit_strong_trusses(family))
            kind = "strong"
        else:
            rows = renumber(summit_trusses(decomposition, graph))
            kind = None

    if args.format == "tsv":
        prefix = "" if kind is None else f"{kind}\t"
        heads = ((f"{k}\t{prefix}{idx}\t", edges) for idx, k, edges in rows)
        write_rows(stage, "clusters.tsv", edge_rows(graph, heads))
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
    want = args.command  # trapeze | strong-trapeze | summit-trapeze
    summits = [(kk, idx, "summit", edges) for idx, kk, edges in renumber(list(run.summits))]
    rows_all: list[tuple[int, int, str, list[int]]] = []
    if want in ("trapeze", "strong-trapeze"):
        source = run.weak if want == "trapeze" else run.strong
        kindname = "weak" if want == "trapeze" else "strong"
        for k in schedule:
            for idx, kk, edges in renumber([(k, m) for m in source[k].members]):
                rows_all.append((kk, idx, kindname, edges))
    else:
        rows_all = summits

    def tsv_rows(entries):
        return edge_rows(graph, ((f"{k}\t{kind}\t{idx}\t", edges) for k, idx, kind, edges in entries))

    with staged_output(args.out) as stage:
        write_rows(stage, "labels.tsv", labels_rows(graph))
        if args.format == "tsv":
            write_rows(stage, "trapezes.tsv", tsv_rows(rows_all))
        else:
            payload = [
                {
                    "k": k,
                    "kind": kind,
                    "index": idx,
                    "edges": [list(graph.edge_label_pair(e)) for e in edges],
                }
                for k, idx, kind, edges in rows_all
            ]
            write(stage, "trapezes.json", json.dumps({"trapezes": payload}, indent=2, sort_keys=True) + "\n")
        # summits always accompany a level run
        write_rows(stage, "summits.tsv", tsv_rows(summits))
    print(f"{len(rows_all)} entries -> {Path(args.out)}")


def cmd_bench(args: argparse.Namespace) -> None:
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
    color = [-1] * graph.n
    for start in range(graph.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in graph.adj[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


if __name__ == "__main__":
    sys.exit(main())

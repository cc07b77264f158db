"""Per-layer spans for a traced CLI run, installed from outside the program.

Each layer's public functions are wrapped at the module attribute its
callers look up (``trusskit.cli.k_classes``, ``trusskit.bench.k_classes``,
``trusskit.trapeze.trim``, ``ClusterFamily.clusters_at`` ...), so nothing
under ``src/`` changes. A span's self time is its duration minus the time
its child spans cover; counts are taken from the wrapped calls' results
after the span closes and are kept out of every enclosing span's time.
The time spans spend outside their functions, bookkeeping and counting, is
the tracer's own overhead.
``perfbench/child.py`` installs the spans around one CLI run.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter
from math import comb
from time import perf_counter


def _input_bytes(t, result, args, kwargs):
    t.add("graph.input_bytes", os.fstat(args[0].fileno()).st_size)


def _graph_size(t, result, args, kwargs):
    t.add("graph.n", result.n)
    t.add("graph.m", result.m)


def _triangles(t, result, args, kwargs):
    graph = args[0]
    ranking = args[1] if len(args) > 1 and args[1] is not None else t.original_vertex_ranking(graph)
    rank = ranking.rank
    buckets = Counter(lo if rank[lo] < rank[hi] else hi for lo, hi in graph.edges)
    t.add("triangles.triangles", result.total_triangles())
    t.add("triangles.pairs_tested", sum(comb(c, 2) for c in buckets.values()))


def _k_max(t, result, args, kwargs):
    t.peak("truss.k_max", result.k_max)


def _dendrogram(t, result, args, kwargs):
    t.add("truss.dendrogram_merges", len(result.merges))


def _summits(name):
    def count(t, result, args, kwargs):
        t.add(name, len(result))
    return count


def _strong_merges(t, result, args, kwargs):
    t.add("strong.merges", len(result.merges))


def _max_support(t, result, args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    t.peak(f"weighted.max_support.{spec.kind}", result.max_support)


def _etp(t, result, args, kwargs):
    t.add("trapeze.triads", len(result.triads))
    t.add("trapeze.triads_alive", sum(result.triad_alive))
    t.add("trapeze.peripheries", len(result.periph_key))


def _survivors(t, result, args, kwargs):
    t.add("trapeze.survivors", len(result))


def _trial(t, result, args, kwargs):
    t.add("bench.trials", 1)


def _nmi(t, result, args, kwargs):
    t.add("bench.nmi_sum", result)
    t.add("bench.nmi_calls", 1)


# (module, attribute, span name, count callback). One entry per place a
# caller looks the function up; entries sharing a span name are one layer
# function reached through different modules.
PATCHES = (
    ("trusskit.cli", "main", "cli.main", None),
    ("trusskit.graph", "load_edge_list", "graph.load_edge_list", _input_bytes),
    ("trusskit.cli", "load_edge_list", "graph.load_edge_list", _input_bytes),
    ("trusskit.graph", "build_graph", "graph.build_graph", _graph_size),
    ("trusskit.bench", "build_graph", "graph.build_graph", _graph_size),
    ("trusskit.graph", "vertex_ranking", "graph.vertex_ranking", None),
    ("trusskit.triangles", "vertex_ranking", "graph.vertex_ranking", None),
    ("trusskit.trapeze", "vertex_ranking", "graph.vertex_ranking", None),
    ("trusskit.cli", "edge_supports", "triangles.edge_supports", _triangles),
    ("trusskit.bench", "edge_supports", "triangles.edge_supports", _triangles),
    ("trusskit.cli", "k_classes", "truss.k_classes", _k_max),
    ("trusskit.bench", "k_classes", "truss.k_classes", _k_max),
    ("trusskit.cli", "trusses_at", "truss.trusses_at", None),
    ("trusskit.bench", "trusses_at", "truss.trusses_at", None),
    ("trusskit.truss", "trusses_at", "truss.trusses_at", None),
    ("trusskit.cli", "truss_dendrogram", "truss.truss_dendrogram", _dendrogram),
    ("trusskit.cli", "summit_trusses", "truss.summit_trusses", _summits("truss.summits")),
    ("trusskit.bench", "summit_trusses", "truss.summit_trusses", _summits("truss.summits")),
    ("trusskit.cli", "strong_truss_family", "strong.strong_truss_family", _strong_merges),
    ("trusskit.bench", "strong_truss_family", "strong.strong_truss_family", _strong_merges),
    ("trusskit.cli", "strong_trusses_at", "strong.strong_trusses_at", None),
    ("trusskit.bench", "strong_trusses_at", "strong.strong_trusses_at", None),
    # strong_trusses_at is a thin call into the family's merge replay; the
    # replay is named after its caller so the metric covers both
    ("trusskit.truss", "ClusterFamily.clusters_at", "strong.strong_trusses_at", None),
    ("trusskit.cli", "summit_strong_trusses", "strong.summit_strong_trusses",
     _summits("strong.summits")),
    ("trusskit.bench", "summit_strong_trusses", "strong.summit_strong_trusses",
     _summits("strong.summits")),
    ("trusskit.cli", "weighted_k_classes", "weighted.weighted_k_classes", None),
    ("trusskit.weighted", "weighted_supports", "weighted.weighted_supports", _max_support),
    ("trusskit.cli", "trapeze_level_run", "trapeze.trapeze_level_run", None),
    ("trusskit.trapeze", "build_etp_graph", "trapeze.build_etp_graph", _etp),
    ("trusskit.trapeze", "trim", "trapeze.trim", _survivors),
    ("trusskit.trapeze", "trapezes_at", "trapeze.trapezes_at", None),
    ("trusskit.trapeze", "strong_trapezes_at", "trapeze.strong_trapezes_at", None),
    ("trusskit.bench", "run_benchmark", "bench.run_benchmark", None),
    ("trusskit.bench", "generate_planted", "bench.generate_planted", _trial),
    ("trusskit.bench", "clusters_to_node_partition", "bench.clusters_to_node_partition", None),
    ("trusskit.bench", "nmi", "bench.nmi", _nmi),
)


def _owner(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Self time and call count per span name, plus named counts."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: Counter[str] = Counter()
        self.counts: dict[str, float] = {}   # summed over calls
        self.peaks: dict[str, float] = {}    # maximum over calls
        self.overhead_s = 0.0                  # spans' time outside their functions
        self._stack: list[list[float]] = []   # per open span: time its children covered
        self._patched: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def original_vertex_ranking(self, graph):
        """The program's ranking, called past its span."""
        fn = importlib.import_module("trusskit.graph").vertex_ranking
        return getattr(fn, "__wrapped__", fn)(graph)

    def wrap(self, name: str, fn, count=None):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            entered = perf_counter()
            covered = [0.0]
            stack.append(covered)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + took - covered[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += took
            if count is not None:
                start = perf_counter()
                count(self, result, args, kwargs)
                if stack:
                    stack[-1][0] += perf_counter() - start
            self.overhead_s += perf_counter() - entered - took
            return result

        span.__wrapped_by_tracer__ = True
        return span

    def install(self, patches=PATCHES) -> None:
        if self._patched:
            raise RuntimeError("spans are already installed")
        try:
            for module, attribute, name, count in patches:
                owner, attr = _owner(module, attribute)
                original = vars(owner)[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def report(self) -> dict:
        return {
            "self_s": self.self_s,
            "calls": dict(self.calls),
            "counts": self.counts,
            "peaks": self.peaks,
            "overhead_s": self.overhead_s,
        }

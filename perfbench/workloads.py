"""Seeded workload inputs and the command-line ops run on them.

Every workload turns the benchmark seed into one input file; the program
under test only ever sees that file (or, for ``bench``, its own arguments,
which regenerate exactly the graphs recorded in the file). The generators
use numpy and ``trusskit.generate_planted`` and nothing else from the
program, so a change to the program cannot change its own inputs except
through the planted generator, which the pinned digests guard.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 11

# acceptance criterion 6 scale row: 274,000 expected inter-group edges
SCALE_INTER = 274_000 / 199_810_000
# the same per-node inter-group degree (27.4) at l=200: 54,800 of 7,960,000 pairs
WEIGHTED_INTER = 54_800 / 7_960_000
TRAPEZE_LEVELS = (1, 2, 4, 8, 16, 32, 64)
# trapeze-blocks: planted BLOCK x BLOCK bicliques thinned to P_IN, P_OUT background
BLOCK, P_IN, P_OUT = 20, 0.5, 0.005
BENCH_TRIALS = 60


@dataclass(frozen=True)
class Generated:
    """One workload's input: the file text plus what fingerprints it."""

    text: str
    n: int
    edges: np.ndarray            # (m, 2) int64 vertex ids, one row per line
    labels: list[str] | None     # vertex id -> label; needed for label-ranked counts


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``trusskit <args> [input] -o <outdir>``."""

    name: str                 # names the op's output directory
    args: tuple[str, ...]
    check: str                # which output check applies: decompose | trapeze | bench
    files: tuple[str, ...]    # output files the op writes; all pinned at the default seed
    k: int | None = None      # cluster level every clusters.tsv row must carry

    @property
    def reads_input(self) -> bool:
        return self.check != "bench"


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], Generated]
    ops: Callable[[int], tuple[Op, ...]]
    count: str                # which structure count the fingerprint records


def edge_list_text(graph, weights=None) -> str:
    labels = graph.labels
    if weights is None:
        return "".join(f"{labels[lo]}\t{labels[hi]}\n" for lo, hi in graph.edges)
    return "".join(
        f"{labels[lo]}\t{labels[hi]}\t{w}\n" for (lo, hi), w in zip(graph.edges, weights)
    )


def _planted(l: int, inter_prob: float, seed: int):
    from trusskit import PlantedModel, generate_planted

    model = PlantedModel(l=l, group_size=20, p=0.8, mu=0.5, seed=seed, inter_prob=inter_prob)
    graph, _ = generate_planted(model)
    return graph


def generate_truss_scale(seed: int, l: int = 1000) -> Generated:
    graph = _planted(l, SCALE_INTER, seed)
    return Generated(edge_list_text(graph), graph.n, np.array(graph.edges, dtype=np.int64), None)


def generate_weighted_mid(seed: int, l: int = 200) -> Generated:
    graph = _planted(l, WEIGHTED_INTER, seed)
    weights = np.random.default_rng([seed, 1]).integers(1, 10, size=graph.m).tolist()
    return Generated(
        edge_list_text(graph, weights), graph.n, np.array(graph.edges, dtype=np.int64), None
    )


def generate_trapeze_blocks(seed: int, side: int = 2000, blocks: int = 100) -> Generated:
    """Bipartite side x side graph: ``blocks`` planted bicliques on the
    diagonal, thinned to P_IN, plus P_OUT background edges."""
    rng = np.random.default_rng(seed)
    mask = rng.random((side, side)) < P_OUT
    for b in range(blocks):
        s = slice(b * BLOCK, (b + 1) * BLOCK)
        mask[s, s] |= rng.random((BLOCK, BLOCK)) < P_IN
    left, right = np.nonzero(mask)
    text = "".join(f"L{a}\tR{b}\n" for a, b in zip(left.tolist(), right.tolist()))
    labels = [f"L{i}" for i in range(side)] + [f"R{j}" for j in range(side)]
    edges = np.stack([left, right + side], axis=1).astype(np.int64)
    return Generated(text, 2 * side, edges, labels)


def bench_model_args(seed: int) -> tuple[str, ...]:
    return ("--l", "20", "--size", "20", "--p", "0.8", "--mu", "0.3",
            "--trials", str(BENCH_TRIALS), "--seed", str(seed))


def generate_planted_many(seed: int, trials: int = BENCH_TRIALS) -> Generated:
    """The graphs ``trusskit bench`` draws for trials seed..seed+trials-1,
    written as one file of '# trial' sections (a disjoint union)."""
    from trusskit import PlantedModel, generate_planted

    model = PlantedModel(l=20, group_size=20, p=0.8, mu=0.3, seed=seed)
    parts, arrays, n = [], [], 0
    for i in range(trials):
        graph, _ = generate_planted(model.with_seed(seed + i))
        parts.append(f"# trial {i} seed {seed + i}\n")
        parts.append(edge_list_text(graph))
        arrays.append(np.array(graph.edges, dtype=np.int64).reshape(-1, 2) + n)
        n += graph.n
    return Generated("".join(parts), n, np.concatenate(arrays), None)


def _decompose(name: str, *args: str, k: int | None = None, dendrogram: bool = True) -> Op:
    files = ("labels.tsv", "trussness.tsv", "clusters.tsv")
    if dendrogram:
        files += ("dendrogram.tsv",)
    return Op(name, args, "decompose", files, k)


def _truss_scale_ops(seed: int) -> tuple[Op, ...]:
    return (
        _decompose("truss", "truss", "--k", "4", k=4),
        _decompose("summit-strong", "summit", "--strong", dendrogram=False),
    )


def _weighted_ops(seed: int) -> tuple[Op, ...]:
    return (
        _decompose("weighted-harmonic", "weighted-truss", "--k", "4",
                   "--weight-fn", "harmonic", "--alpha", "3", k=4),
        _decompose("weighted-min", "weighted-truss", "--k", "4", "--weight-fn", "min", k=4),
    )


def _trapeze_ops(seed: int) -> tuple[Op, ...]:
    files = ("labels.tsv", "trapezes.tsv", "summits.tsv")
    levels = ",".join(str(k) for k in TRAPEZE_LEVELS)
    return (Op("trapeze", ("trapeze", "--levels", levels), "trapeze", files),)


def _bench_ops(seed: int) -> tuple[Op, ...]:
    return tuple(
        Op(f"bench-{method}", ("bench", *bench_model_args(seed), "--method", method),
           "bench", ("bench.tsv",))
        for method in ("strong", "summit")
    )


# why each workload exists: BENCHMARK.json and perfbench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("truss-scale", generate_truss_scale, _truss_scale_ops, "triangles"),
        Workload("trapeze-blocks", generate_trapeze_blocks, _trapeze_ops, "triads"),
        Workload("weighted-mid", generate_weighted_mid, _weighted_ops, "triangles"),
        Workload("planted-many", generate_planted_many, _bench_ops, "triangles"),
    )
}


# -- fingerprints ---------------------------------------------------------


def count_triangles(n: int, edges: np.ndarray) -> int:
    """Triangles of a simple graph: orient each edge towards the endpoint of
    higher degree rank, then look up the closing edge of every out-wedge."""
    deg = np.bincount(edges.ravel(), minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    a, b = rank[edges[:, 0]], rank[edges[:, 1]]
    src, dst = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    keys = src * n + dst
    outdeg = np.bincount(src, minlength=n)
    start = np.cumsum(outdeg) - outdeg
    later = outdeg[src] - (np.arange(len(src)) - start[src]) - 1
    total = 0
    chunk = 1 << 16   # edges per slice; bounds the wedge arrays
    for lo in range(0, len(src), chunk):
        sl = slice(lo, lo + chunk)
        reps = later[sl]
        first = np.repeat(np.arange(lo, lo + len(reps)), reps)
        offs = np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)
        wedge = dst[first] * n + dst[first + 1 + offs]
        idx = np.minimum(np.searchsorted(keys, wedge), len(keys) - 1)
        total += int(np.count_nonzero(keys[idx] == wedge))
    return total


def count_triads(n: int, edges: np.ndarray, labels: list[str]) -> int:
    """Admissible open triads of the ETP structure: with vertices ranked by
    (degree, label), sum over v of C(up, 2) + up * down, where up and down
    count the neighbours ranked above and below v."""
    deg = np.bincount(edges.ravel(), minlength=n).tolist()
    order = sorted(range(n), key=lambda v: (deg[v], labels[v]))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    a, b = rank[edges[:, 0]], rank[edges[:, 1]]
    low = np.where(a < b, edges[:, 0], edges[:, 1])
    high = np.where(a < b, edges[:, 1], edges[:, 0])
    up = np.bincount(low, minlength=n)
    down = np.bincount(high, minlength=n)
    return int((up * (up - 1) // 2 + up * down).sum())


def fingerprint(workload: Workload, generated: Generated) -> dict:
    edges = generated.edges
    if workload.count == "triads":
        count = count_triads(generated.n, edges, generated.labels)
    else:
        count = count_triangles(generated.n, edges)
    return {
        "n": generated.n,
        "m": int(len(edges)),
        workload.count: count,
        "sha256": hashlib.sha256(generated.text.encode("utf-8")).hexdigest(),
    }

"""Output checks for one op: exit code, pinned digests, structure.

At the default seed every output file an op writes is pinned by sha256
(``bench`` writes only ``bench.tsv``; its stdout carries timings and is not
pinned). At any seed
the structure is checked:

- every input edge appears exactly once in ``trussness.tsv``;
- clusters are edge-disjoint and each edge's phi is at least its cluster's k;
- trapeze levels come from the schedule, trapezes are edge-disjoint per level
  and summits are edge-disjoint;
- benchmark NMI values lie in [0, 1].
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .workloads import TRAPEZE_LEVELS, Op

BENCH_HEADER = "method\tk\tmean_nmi\ttrials"


class InputIndex:
    """Canonical edge keys and vertex count of one input file."""

    def __init__(self, text: str):
        edges: set[tuple[str, str]] = set()
        vertices: set[str] = set()
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            u, v = line.split("\t")[:2]
            edges.add((u, v) if u < v else (v, u))
            vertices.add(u)
            vertices.add(v)
        self.edges = edges
        self.n = len(vertices)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def _check_labels(outdir: Path, index: InputIndex) -> list[str]:
    count = len(_rows(outdir / "labels.tsv"))
    return [] if count == index.n else [f"labels.tsv has {count} rows, input has {index.n} vertices"]


def check_decompose(op: Op, outdir: Path, index: InputIndex) -> list[str]:
    problems = _check_labels(outdir, index)
    phi: dict[tuple[str, str], int] = {}
    for row in _rows(outdir / "trussness.tsv"):
        key = _key(row[0], row[1])
        if key not in index.edges:
            return problems + [f"trussness.tsv: edge {key} is not in the input"]
        if key in phi:
            return problems + [f"trussness.tsv: edge {key} appears twice"]
        phi[key] = int(row[2])
    if len(phi) != len(index.edges):
        return problems + [f"trussness.tsv covers {len(phi)} of {len(index.edges)} edges"]

    seen: set[tuple[str, str]] = set()
    for row in _rows(outdir / "clusters.tsv"):
        k, u, v = int(row[0]), row[-2], row[-1]
        key = _key(u, v)
        if op.k is not None and k != op.k:
            return problems + [f"clusters.tsv: level {k}, expected {op.k}"]
        if key not in phi:
            return problems + [f"clusters.tsv: edge {key} is not in the input"]
        if phi[key] < k:
            return problems + [f"clusters.tsv: edge {key} has phi {phi[key]} < k={k}"]
        if key in seen:
            return problems + [f"clusters.tsv: edge {key} is in two clusters"]
        seen.add(key)
    return problems


def check_trapeze(op: Op, outdir: Path, index: InputIndex) -> list[str]:
    problems = _check_labels(outdir, index)
    for name, kind, disjoint_per_level in (
        ("trapezes.tsv", "weak", True),
        ("summits.tsv", "summit", False),
    ):
        seen: set[tuple[int, tuple[str, str]]] = set()
        for row in _rows(outdir / name):
            k, key = int(row[0]), _key(row[3], row[4])
            if k not in TRAPEZE_LEVELS:
                return problems + [f"{name}: level {k} is not in the schedule"]
            if row[1] != kind:
                return problems + [f"{name}: kind {row[1]!r}, expected {kind!r}"]
            if key not in index.edges:
                return problems + [f"{name}: edge {key} is not in the input"]
            tag = (k if disjoint_per_level else 0, key)
            if tag in seen:
                return problems + [f"{name}: edge {key} is in two members at level {k}"]
            seen.add(tag)
    return problems


def check_bench(op: Op, outdir: Path, trials: int, stdout: str, seed: int) -> list[str]:
    method = op.args[op.args.index("--method") + 1]
    lines = (outdir / "bench.tsv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != BENCH_HEADER:
        return ["bench.tsv: missing header"]
    if len(lines) < 2:
        return ["bench.tsv: no rows"]
    for line in lines[1:]:
        row_method, k, score, count = line.split("\t")
        if row_method != method:
            return [f"bench.tsv: method {row_method!r}, expected {method!r}"]
        if not 0.0 <= float(score) <= 1.0:
            return [f"bench.tsv: NMI {score} outside [0, 1]"]
        if not 1 <= int(count) <= trials or (k == "-" and int(count) != trials):
            return [f"bench.tsv: {count} trials for k={k}, ran {trials}"]
    if f"seed={seed}" not in stdout.splitlines():
        return ["stdout does not echo the seed"]
    return []


def check_structure(
    op: Op, outdir: Path, index: InputIndex, trials: int, stdout: str, seed: int
) -> list[str]:
    try:
        if op.check == "decompose":
            return check_decompose(op, outdir, index)
        if op.check == "trapeze":
            return check_trapeze(op, outdir, index)
        return check_bench(op, outdir, trials, stdout, seed)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]


class OutputChecker:
    """Checks every op result of one benchmark run.

    The first successful result of an op is checked for structure and its
    digests are kept; every later result of that op, the traced one
    included, must be byte-identical to it.
    """

    def __init__(self, index: InputIndex, seed: int, trials: int, pins: dict | None):
        self.index = index
        self.seed = seed
        self.trials = trials
        self.pins = pins                      # op name -> {file: sha256}, default seed only
        self.verified: dict[str, dict[str, str]] = {}   # op name -> digests that passed

    def check(self, op: Op, outdir: Path, returncode: int, stdout: str) -> list[str]:
        if returncode != 0:
            return [f"exit code {returncode}"]
        missing = [f for f in op.files if not (outdir / f).is_file()]
        if missing:
            return [f"missing output {', '.join(missing)}"]
        digests = {f: sha256_file(outdir / f) for f in op.files}
        if self.pins is not None:
            wrong = [f for f in op.files if digests[f] != self.pins[op.name][f]]
            if wrong:
                return [f"{f} differs from its pinned sha256" for f in wrong]
        known = self.verified.get(op.name)
        if known is not None:
            return [f"{f} differs from an earlier run of this op"
                    for f in op.files if digests[f] != known[f]]
        problems = check_structure(op, outdir, self.index, self.trials, stdout, self.seed)
        if not problems:
            self.verified[op.name] = digests
        return problems

"""Benchmark the trusskit command line on one seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it). The benchmark writes
the workload's inputs, then runs its ops round-robin for S seconds, closed
loop with one client: each op is one child process (``perfbench/child.py``),
timed from spawn to exit, with its CPU time from ``os.wait4`` and its own
peak RSS. Every op's outputs are checked
(``perfbench/checks.py``). With ``--trace 1`` every op runs once more under
per-layer spans (``perfbench/tracing.py``) and its outputs must be
byte-identical to the untraced ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it holds the detail:
quartiles and sample counts, the input fingerprint, failures and the
environment. ``--write-pins`` (default seed only) records the input
fingerprint and output digests in ``perfbench/pins.json`` instead.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = Path(__file__).resolve().parent / "pins.json"

sys.path.insert(0, str(ROOT))

from perfbench.calibration import REFERENCE_S, Calibration  # noqa: E402
from perfbench.checks import InputIndex, OutputChecker  # noqa: E402
from perfbench.workloads import BENCH_TRIALS, DEFAULT_SEED, WORKLOADS, Op, fingerprint  # noqa: E402

SETUP_SAMPLES = 7      # setup_s is the median of this many calibrated samples,
SETUP_MIN_SAMPLES = 3  # or of fewer, never under this, when they would take
SETUP_BUDGET_S = 8.0   # more than this; a sample repeats setup until it
SETUP_SAMPLE_S = 0.6   # takes about this long
TIME_LIMIT_S = 165.0   # the whole run, children included, ends well within 180 s

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("edges_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
)

# per-layer metric -> span whose self time it reports
LAYER_TIMES = {
    "graph.load_edge_list_s": "graph.load_edge_list",
    "graph.build_graph_s": "graph.build_graph",
    "graph.vertex_ranking_s": "graph.vertex_ranking",
    "triangles.edge_supports_s": "triangles.edge_supports",
    "truss.k_classes_s": "truss.k_classes",
    "truss.trusses_at_s": "truss.trusses_at",
    "truss.truss_dendrogram_s": "truss.truss_dendrogram",
    "truss.summit_trusses_s": "truss.summit_trusses",
    "strong.strong_truss_family_s": "strong.strong_truss_family",
    "strong.strong_trusses_at_s": "strong.strong_trusses_at",
    "strong.summit_strong_trusses_s": "strong.summit_strong_trusses",
    "weighted.weighted_supports_s": "weighted.weighted_supports",
    "weighted.weighted_k_classes_s": "weighted.weighted_k_classes",
    "trapeze.build_etp_graph_s": "trapeze.build_etp_graph",
    "trapeze.trim_s": "trapeze.trim",
    "trapeze.trapezes_at_s": "trapeze.trapezes_at",
    "trapeze.strong_trapezes_at_s": "trapeze.strong_trapezes_at",
    "trapeze.trapeze_level_run_s": "trapeze.trapeze_level_run",
    "bench.run_benchmark_s": "bench.run_benchmark",
    "bench.generate_planted_s": "bench.generate_planted",
    "bench.clusters_to_node_partition_s": "bench.clusters_to_node_partition",
    "bench.nmi_s": "bench.nmi",
    "cli.self_s": "cli.main",
}

# per-layer count -> (unit, better); summed over the traced pass unless the
# tracer keeps a peak
LAYER_COUNTS = {
    "graph.n": ("count", "lower"),
    "graph.m": ("count", "lower"),
    "graph.input_bytes": ("bytes", "lower"),
    "triangles.triangles": ("count", "lower"),
    "triangles.pairs_tested": ("count", "lower"),
    "triangles.hit_ratio": ("ratio", "higher"),
    "truss.k_max": ("count", "lower"),
    "truss.dendrogram_merges": ("count", "lower"),
    "truss.summits": ("count", "lower"),
    "strong.merges": ("count", "lower"),
    "strong.summits": ("count", "lower"),
    "weighted.max_support.harmonic": ("count", "lower"),
    "weighted.max_support.minimum": ("count", "lower"),
    "trapeze.triads": ("count", "lower"),
    "trapeze.triads_alive": ("count", "lower"),
    "trapeze.peripheries": ("count", "lower"),
    "trapeze.survivors": ("count", "lower"),
    "trapeze.triad_useful_ratio": ("ratio", "higher"),
    "bench.trials": ("count", "lower"),
    "bench.mean_nmi": ("score", "higher"),
    "cli.output_bytes": ("bytes", "lower"),
}

PER_LAYER = (
    *((name, "s", "lower") for name in LAYER_TIMES),
    ("trace.overhead_s", "s", "lower"),
    *((name, unit, better) for name, (unit, better) in LAYER_COUNTS.items()),
)


@dataclass
class Execution:
    """One op run to exit and checked."""

    op: Op
    wall_s: float
    cpu_s: float
    peak_rss_kb: int          # the child's own VmHWM
    problems: list[str]
    took_s: float             # spawn to end of the output check, for scheduling
    report: dict | None = None   # spans and counts of a traced execution
    cal_s: float = 0.0        # calibration loop time around the execution

    @property
    def scale(self) -> float:
        """Factor from raw to calibrated seconds."""
        return REFERENCE_S / self.cal_s


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path, timeout: float):
    """Run one child to exit; time it from spawn to exit; kill it at timeout.

    Returns (wall seconds, rusage, exit code)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return perf_counter() - start, usage, os.waitstatus_to_exitcode(status)


class Runner:
    """Runs a workload's ops against its input and checks every result."""

    def __init__(self, input_path: Path, checker, deadline: float, work: Path = WORK):
        self.input_path = input_path
        self.checker = checker
        self.deadline = deadline      # monotonic time by which every child is gone
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))

    def argv(self, op: Op, outdir: Path, report: Path, traced: bool) -> list[str]:
        entry = ["-m", "perfbench.child", str(report), *(["--trace"] if traced else [])]
        args = [*op.args, *([str(self.input_path)] if op.reads_input else []), "-o", str(outdir)]
        return [sys.executable, *entry, *args]

    def execute(self, op: Op, traced: bool = False) -> Execution:
        outdir = self.work / "out" / op.name
        shutil.rmtree(outdir, ignore_errors=True)
        report_path = self.work / f"{op.name}.report.json"
        report_path.unlink(missing_ok=True)
        stdout, stderr = self.work / f"{op.name}.stdout", self.work / f"{op.name}.stderr"
        start = perf_counter()
        wall, usage, code = spawn(self.argv(op, outdir, report_path, traced), self.env,
                                  stdout, stderr, self.deadline - monotonic())
        problems = self.checker.check(op, outdir, code,
                                      stdout.read_text(encoding="utf-8", errors="replace"))
        report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.is_file() else {}
        if "peak_rss_kb" not in report:
            problems.append("no report from the child")
        if problems:
            err = stderr.read_text(encoding="utf-8", errors="replace").strip()
            problems = [f"{op.name}: {p}" for p in problems]
            problems += [f"{op.name} stderr: {err.splitlines()[-1]}"] if err else []
        elif traced:
            report["output_bytes"] = sum(f.stat().st_size for f in outdir.iterdir())
        return Execution(op, wall, usage.ru_utime + usage.ru_stime,
                         report.get("peak_rss_kb", 0), problems,
                         perf_counter() - start, report if traced and not problems else None)


def measure(runner: Runner, ops, seconds: float, reserve: int,
            calibrate: Calibration, traced: bool = False) -> list[Execution]:
    """Every op once, then round-robin while the next op still ends within
    ``seconds`` and ``reserve`` more executions of it fit before the deadline.
    The calibration loop runs before the first execution and after each."""
    start = perf_counter()
    done: list[Execution] = []
    before = calibrate()
    for op in itertools.chain(ops, itertools.cycle(ops)):
        if len(done) >= len(ops):
            typical = statistics.median(e.took_s for e in done if e.op is op)
            if perf_counter() - start + typical > seconds:
                break
            if monotonic() + typical * (1 + reserve) > runner.deadline:
                break
        execution = runner.execute(op, traced)
        after = calibrate()
        execution.cal_s = (before + after) / 2
        before = after
        done.append(execution)
    return done


# -- metrics --------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def by_op(executions: list[Execution]) -> dict[str, list[Execution]]:
    out: dict[str, list[Execution]] = {}
    for e in executions:
        out.setdefault(e.op.name, []).append(e)
    return out


def end_to_end(executions: list[Execution], m: int, setup_s: float) -> dict[str, float]:
    """A pass made of each op's median calibrated execution."""
    groups = by_op(executions).values()
    wall = sum(statistics.median(e.wall_s * e.scale for e in group) for group in groups)
    decomposed = m * sum(1 for group in groups if any(not e.problems for e in group))
    return {
        "wall_s": wall,
        "cpu_s": sum(statistics.median(e.cpu_s * e.scale for e in group) for group in groups),
        "peak_rss_mb": max(e.peak_rss_kb for e in executions) / 1024,
        "edges_per_s": decomposed / wall,
        "setup_s": setup_s,
    }


def samples(executions: list[Execution]) -> dict:
    out = {}
    for name, group in by_op(executions).items():
        out[name] = {
            "wall_s": summary([e.wall_s * e.scale for e in group]),
            "raw_wall_s": summary([e.wall_s for e in group]),
            "cpu_s": summary([e.cpu_s * e.scale for e in group]),
            "calibration_s": summary([e.cal_s for e in group]),
            "peak_rss_mb": summary([e.peak_rss_kb / 1024 for e in group]),
        }
    return out


def per_layer(traced: list[Execution]) -> dict[str, float]:
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {"cli.output_bytes": 0}
    overhead = 0.0
    for e in traced:
        report = e.report
        if report is None:
            continue
        for name, value in report["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value * e.scale
        for name, value in report["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in report["peaks"].items():
            counts[name] = max(counts.get(name, value), value)
        counts["cli.output_bytes"] += report["output_bytes"]
        overhead += report["overhead_s"] * e.scale

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    counts["triangles.hit_ratio"] = ratio("triangles.triangles", "triangles.pairs_tested")
    counts["trapeze.triad_useful_ratio"] = ratio("trapeze.triads_alive", "trapeze.triads")
    counts["bench.mean_nmi"] = ratio("bench.nmi_sum", "bench.nmi_calls")

    out = {metric: self_s.get(span, 0.0) for metric, span in LAYER_TIMES.items()}
    out["trace.overhead_s"] = overhead
    out.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    return out


# -- setup ----------------------------------------------------------------


def set_up(workload, seed: int, path: Path, calibrate: Calibration, timed: bool):
    """Generate the workload's input and write it to ``path``.

    When ``timed``, setup runs in samples with the calibration loop between
    them, and each sample's time per setup is calibrated by the loop right
    before and after it. The first sample is one setup; it sets how many
    setups make each later sample (about SETUP_SAMPLE_S) and how many
    samples are taken. Returns the generated input and the calibrated
    samples."""

    def once():
        generated = workload.generate(seed)
        path.write_text(generated.text, encoding="utf-8")
        return generated

    if not timed:
        return once(), []
    setups: list[float] = []
    repeat = count = 1
    before = calibrate()
    while len(setups) < count:
        start = perf_counter()
        for _ in range(repeat):
            generated = once()
        took = (perf_counter() - start) / repeat
        after = calibrate()
        setups.append(took * REFERENCE_S / ((before + after) / 2))
        before = after
        if len(setups) == 1:
            repeat = max(1, round(SETUP_SAMPLE_S / took))
            fit = int(SETUP_BUDGET_S / (took * repeat))
            count = max(SETUP_MIN_SAMPLES, min(SETUP_SAMPLES, fit))
    return generated, setups


# -- environment ----------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "trusskit").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy

    return {
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


# -- main -----------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for about this long; every op runs at least once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record default-seed fingerprint and output digests")
    return parser.parse_args(argv)


def require_program() -> None:
    """The program must come from this checkout's src/, never from elsewhere."""
    if not (SRC / "trusskit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trusskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trusskit

    if Path(trusskit.__file__).resolve().parent != (SRC / "trusskit").resolve():
        raise SystemExit(f"perfbench: trusskit imported from {trusskit.__file__}, not {SRC}")


def warm_up(env: dict) -> None:
    """Import the program once so bytecode caches exist before timing."""
    subprocess.run([sys.executable, "-c", "import perfbench.child, perfbench.tracing, trusskit.cli"],
                   env=env, check=True)


def main(argv: list[str]) -> int:
    started = monotonic()
    args = parse_args(argv)
    require_program()
    workload = WORKLOADS[args.workload]
    env = environment()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    input_path = WORK / f"{workload.name}.tsv"

    calibrate = Calibration()
    timed = not (args.trace or args.write_pins)
    generated, setups = set_up(workload, args.seed, input_path, calibrate, timed)
    fp = fingerprint(workload, generated)
    ops = workload.ops(args.seed)
    index = InputIndex(generated.text) if ops[0].reads_input else None
    del generated

    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    pinned = None
    if args.seed == DEFAULT_SEED and not args.write_pins:
        pinned = pins[workload.name]
        if pinned["input"] != fp:
            print(f"perfbench: {workload.name} input at seed {args.seed} is {fp}, "
                  f"pinned {pinned['input']}", file=sys.stderr)
            return 1
    checker = OutputChecker(index, args.seed, BENCH_TRIALS,
                            pinned["outputs"] if pinned else None)
    runner = Runner(input_path, checker, started + TIME_LIMIT_S)
    warm_up(runner.env)

    if args.write_pins:
        problems = [p for op in ops for p in runner.execute(op).problems]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        pins[workload.name] = {"seed": args.seed, "input": fp, "outputs": checker.verified}
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"pinned {workload.name}: {fp}")
        return 0

    untraced = measure(runner, ops, args.seconds, 2 * args.trace, calibrate)
    traced = measure(runner, ops, 0, 0, calibrate, traced=True) if args.trace else []
    if args.trace:
        metrics = per_layer(traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(untraced, fp["m"], statistics.median(setups))
        units = {name: unit for name, unit, _ in END_TO_END}

    executions = untraced + traced
    failed = sum(1 for e in executions if e.problems)
    env["loadavg_after"] = os.getloadavg()
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": failed / len(executions),
        "samples": samples(untraced),
        "setup_s": summary(setups) if setups else None,
        "input": fp,
        "problems": [p for e in executions for p in e.problems][:20],
        "environment": env,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Tests of the benchmark itself: output checks, span wrapping, generators."""

from __future__ import annotations

import importlib
import io
import json
import subprocess
import sys
from pathlib import Path
from time import monotonic, sleep

import pytest

from perfbench import run
from perfbench.calibration import REFERENCE_S
from perfbench.checks import InputIndex, OutputChecker
from perfbench.tracing import PATCHES, Tracer, _owner
from perfbench.child import main as child_main
from perfbench.workloads import (
    WORKLOADS,
    count_triads,
    count_triangles,
    generate_planted_many,
    generate_trapeze_blocks,
    generate_truss_scale,
    generate_weighted_mid,
)

import trusskit
from trusskit import build_etp_graph, edge_supports, load_edge_list

ROOT = Path(__file__).resolve().parents[2]
SMALL = {
    "truss-scale": lambda seed: generate_truss_scale(seed, l=8),
    "weighted-mid": lambda seed: generate_weighted_mid(seed, l=8),
    "trapeze-blocks": lambda seed: generate_trapeze_blocks(seed, side=120, blocks=6),
    "planted-many": lambda seed: generate_planted_many(seed, trials=3),
}


# -- output checks and failure accounting ---------------------------------


class Corrupting:
    """Checker that damages one output file before the real check runs."""

    def __init__(self, inner: OutputChecker, name: str, damage):
        self.inner, self.name, self.damage = inner, name, damage

    def check(self, op, outdir, returncode, stdout):
        path = outdir / self.name
        path.write_text(self.damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        return self.inner.check(op, outdir, returncode, stdout)


def _drop_first_line(text: str) -> str:
    return text.split("\n", 1)[1]


def _raise_first_phi(text: str) -> str:
    first, rest = text.split("\n", 1)
    u, v, phi = first.split("\t")
    return f"{u}\t{v}\t{int(phi) + 1}\n{rest}"


def _duplicate_first_line(text: str) -> str:
    return text.split("\n", 1)[0] + "\n" + text


TRUSS = WORKLOADS["truss-scale"].ops(1)[0]


def _truss_runner(tmp_path: Path, pins: dict | None = None) -> run.Runner:
    """Runner for the truss-scale ``truss`` op on a small input."""
    text = SMALL["truss-scale"](1).text
    path = tmp_path / "input.tsv"
    path.write_text(text, encoding="utf-8")
    checker = OutputChecker(InputIndex(text), 1, 60, pins)
    return run.Runner(path, checker, monotonic() + 120, work=tmp_path)


def _failed(executions) -> int:
    return sum(1 for e in executions if e.problems)


def test_clean_outputs_pass(tmp_path):
    done = [_truss_runner(tmp_path).execute(TRUSS)]
    assert _failed(done) == 0
    done[0].cal_s = 2 * REFERENCE_S    # machine at half the reference speed
    metrics = run.end_to_end(done, 100, 0.5)
    assert metrics["wall_s"] == done[0].wall_s / 2
    assert metrics["edges_per_s"] == 100 / metrics["wall_s"]


@pytest.mark.parametrize("damage", [_drop_first_line, _duplicate_first_line])
def test_corrupted_output_is_a_failed_op(tmp_path, damage):
    runner = _truss_runner(tmp_path)
    runner.checker = Corrupting(runner.checker, "trussness.tsv", damage)
    done = [runner.execute(TRUSS)]
    assert _failed(done) == 1
    assert "trussness.tsv" in done[0].problems[0]
    # a failed op decomposes no edges
    done[0].cal_s = REFERENCE_S
    assert run.end_to_end(done, 100, 0.5)["edges_per_s"] == 0


def test_output_that_changes_between_executions_is_a_failed_op(tmp_path):
    runner = _truss_runner(tmp_path)
    assert not runner.execute(TRUSS).problems
    # phi raised by one still passes the structural check, so only the
    # comparison with the first execution's digests can catch it
    runner.checker = Corrupting(runner.checker, "trussness.tsv", _raise_first_phi)
    problems = runner.execute(TRUSS).problems
    assert problems and "differs from an earlier run" in problems[0]


def test_pinned_digest_mismatch_is_a_failed_op(tmp_path):
    runner = _truss_runner(tmp_path, {TRUSS.name: {f: "0" * 64 for f in TRUSS.files}})
    problems = runner.execute(TRUSS).problems
    assert problems and "pinned sha256" in problems[0]


def test_nonzero_exit_is_a_failed_op(tmp_path):
    runner = _truss_runner(tmp_path)
    runner.input_path = tmp_path / "missing.tsv"
    problems = runner.execute(TRUSS).problems
    assert problems and "exit code 1" in problems[0]


# -- span wrapping --------------------------------------------------------


def _targets():
    return [_owner(module, attribute) for module, attribute, _, _ in PATCHES]


def _wrappers_left():
    found = []
    for name in ("cli", "graph", "triangles", "truss", "strong", "weighted", "trapeze", "bench"):
        module = importlib.import_module(f"trusskit.{name}")
        for owner in [module, *(v for v in vars(module).values() if isinstance(v, type))]:
            found += [a for a, v in vars(owner).items() if hasattr(v, "__wrapped_by_tracer__")]
    return found


def test_span_wrapper_restores_every_attribute():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in _targets()]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in originals)
    finally:
        tracer.remove()
    assert all(vars(owner)[attr] is orig for owner, attr, orig in originals)
    assert _wrappers_left() == []


def test_failed_install_restores_what_it_patched():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in _targets()]
    tracer = Tracer()
    with pytest.raises(KeyError):
        tracer.install(PATCHES + (("trusskit.cli", "no_such_function", "x", None),))
    assert all(vars(owner)[attr] is orig for owner, attr, orig in originals)


def test_tracer_overhead_is_time_outside_the_traced_function():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: sleep(0.05), count=lambda *_: sleep(0.02))
    work()
    assert 0.02 <= tracer.overhead_s < 0.05
    assert tracer.self_s["work"] >= 0.05


def test_traced_run_matches_untraced_and_counts(tmp_path, capsys):
    text = SMALL["truss-scale"](2).text
    path = tmp_path / "g.tsv"
    path.write_text(text, encoding="utf-8")
    args = ["summit", "--strong", str(path), "-o"]
    assert trusskit.cli.main(args + [str(tmp_path / "plain")]) == 0
    out = tmp_path / "report.json"
    assert child_main([str(out), "--trace", *args, str(tmp_path / "traced")]) == 0
    assert _wrappers_left() == []
    for name in ("labels.tsv", "trussness.tsv", "clusters.tsv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    report = json.loads(out.read_text(encoding="utf-8"))
    graph = load_edge_list(io.StringIO(text))
    assert report["counts"]["triangles.triangles"] == edge_supports(graph).total_triangles()
    assert report["counts"]["graph.m"] == graph.m
    assert report["calls"]["cli.main"] == 1
    for span in ("graph.load_edge_list", "truss.k_classes", "strong.strong_truss_family"):
        assert report["self_s"][span] > 0
    assert report["peak_rss_kb"] > 0
    assert report["overhead_s"] > 0


# -- generators and fingerprints ------------------------------------------


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_deterministic(name):
    generate = SMALL[name]
    first, again, other = generate(5), generate(5), generate(6)
    assert first.text == again.text
    assert (first.edges == again.edges).all()
    assert first.text != other.text


@pytest.mark.parametrize("name", ["truss-scale", "weighted-mid"])
def test_triangle_fingerprint_matches_program(name):
    generated = SMALL[name](3)
    graph = load_edge_list(io.StringIO(generated.text), weighted=name == "weighted-mid")
    assert count_triangles(generated.n, generated.edges) == edge_supports(graph).total_triangles()


def test_triad_fingerprint_matches_program():
    generated = SMALL["trapeze-blocks"](3)
    graph = load_edge_list(io.StringIO(generated.text))
    etp = build_etp_graph(graph)
    assert count_triads(generated.n, generated.edges, generated.labels) == len(etp.triads)


# -- benchmark description ------------------------------------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(metrics)


def test_every_op_output_is_pinned():
    pins = json.loads(run.PINS.read_text(encoding="utf-8"))
    for name, workload in WORKLOADS.items():
        for op in workload.ops(pins[name]["seed"]):
            assert sorted(pins[name]["outputs"][op.name]) == sorted(op.files)


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "trapeze-blocks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""

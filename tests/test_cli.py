import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trusskit import Clusters, Graph, KClassDecomposition, SupportMap
from trusskit.cli import main

K4_PENDANT = "a b\na c\na d\nb c\nb d\nc d\nd e\n"
C4_BOWTIE = "a b\nb c\nc d\nd a\nd e\ne f\nf g\ng d\n"  # two 4-cycles sharing d
DOLPHINS = Path(__file__).parent / "data" / "dolphins.tsv"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4p.tsv"
    path.write_text(K4_PENDANT)
    return path


def test_truss_subcommand(k4_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["truss", "--k", "4", str(k4_file), "-o", str(out)]) == 0
    clusters = (out / "clusters.tsv").read_text().strip().split("\n")
    assert len(clusters) == 6
    assert all(line.startswith("4\t0\t") for line in clusters)
    assert (out / "trussness.tsv").exists()
    assert (out / "labels.tsv").exists()
    assert (out / "dendrogram.tsv").exists()


def test_truss_k1_fails(k4_file, tmp_path, capsys):
    assert main(["truss", "--k", "1", str(k4_file), "-o", str(tmp_path / "x")]) == 1
    assert "k must be at least 2" in capsys.readouterr().err


def test_missing_input_fails(tmp_path, capsys):
    assert main(["truss", "--k", "3", str(tmp_path / "nope.tsv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code(k4_file):
    with pytest.raises(SystemExit) as err:
        main(["truss", "--bogus", str(k4_file)])
    assert err.value.code == 2


def test_dolphins_5_trusses(tmp_path):
    out = tmp_path / "out"
    assert main(["truss", "--k", "5", str(DOLPHINS), "-o", str(out)]) == 0
    lines = (out / "clusters.tsv").read_text().strip().split("\n")
    indices = {line.split("\t")[1] for line in lines}
    assert len(indices) == 2


def test_tsv_json_equivalent(k4_file, tmp_path):
    out_t = tmp_path / "t"
    out_j = tmp_path / "j"
    main(["truss", "--k", "4", str(k4_file), "-o", str(out_t), "--format", "tsv"])
    main(["truss", "--k", "4", str(k4_file), "-o", str(out_j), "--format", "json"])
    tsv_edges = {
        tuple(line.split("\t")[2:4])
        for line in (out_t / "clusters.tsv").read_text().strip().split("\n")
    }
    payload = json.loads((out_j / "clusters.json").read_text())
    json_edges = {tuple(e) for c in payload["clusters"] for e in c["edges"]}
    assert tsv_edges == json_edges


def test_outputs_reproducible(k4_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        main(["truss", "--k", "4", str(k4_file), "-o", str(out), "--dot", "--graphml"])
    for name in ("clusters.tsv", "trussness.tsv", "clusters.dot", "clusters.graphml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_exports_well_formed(k4_file, tmp_path):
    import xml.etree.ElementTree as ET

    out = tmp_path / "out"
    main(["truss", "--k", "4", str(k4_file), "-o", str(out), "--dot", "--graphml"])
    dot = (out / "clusters.dot").read_text()
    assert dot.startswith("graph clusters {") and "subgraph cluster_0" in dot
    tree = ET.fromstring((out / "clusters.graphml").read_text())
    assert tree.tag.endswith("graphml")


@pytest.mark.parametrize("point", ["\x00", "\x01", "\x08", "\x0e", "\x1b", "\ufffe", "\uffff"])
def test_graphml_refuses_labels_xml_cannot_hold(point, tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(f"a{point} b\nb c\na{point} c\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["truss", "--k", "3", "--graphml", str(src), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(f"a{point}") in err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.tsv"]
    # without --graphml the same labels are written
    assert main(["truss", "--k", "3", str(src), "-o", str(out)]) == 0


def test_dot_escapes_quotes_in_labels(tmp_path):
    src = tmp_path / "quoted.tsv"
    src.write_text('a"1 b\nb c\na"1 c\n')
    out = tmp_path / "out"
    assert main(["truss", "--k", "3", str(src), "-o", str(out), "--dot"]) == 0
    lines = (out / "clusters.dot").read_text().split("\n")
    assert '    "a\\"1" -- "b" [cluster=0];' in lines


def test_dot_escapes_backslashes_before_quotes(tmp_path):
    src = tmp_path / "slashed.tsv"
    src.write_text('a\\ a"b\na"b c\nc a\\\n')
    out = tmp_path / "out"
    assert main(["truss", "--k", "3", str(src), "-o", str(out), "--dot"]) == 0
    lines = (out / "clusters.dot").read_text().split("\n")
    assert lines[3:6] == [
        '    "a\\\\" -- "a\\"b" [cluster=0];',
        '    "a\\"b" -- "c" [cluster=0];',
        '    "a\\\\" -- "c" [cluster=0];',
    ]


def test_strong_truss_subcommand(tmp_path):
    src = tmp_path / "two.tsv"
    text = "a0 a1\na0 a2\na0 a3\na1 a2\na1 a3\na2 a3\n"
    src.write_text(text + text.replace("a", "b").replace("b0", "a3"))
    out = tmp_path / "out"
    assert main(["strong-truss", "--k", "4", str(src), "-o", str(out)]) == 0
    lines = (out / "clusters.tsv").read_text().strip().split("\n")
    assert all(line.split("\t")[1] == "strong" for line in lines)
    assert len({line.split("\t")[2] for line in lines}) == 2


def test_summit_subcommand(k4_file, tmp_path):
    out = tmp_path / "out"
    assert main(["summit", str(k4_file), "-o", str(out)]) == 0
    lines = (out / "clusters.tsv").read_text().strip().split("\n")
    assert len(lines) == 6  # the K4 only; pendant is in no summit


def test_weighted_truss_subcommand(tmp_path):
    src = tmp_path / "w.tsv"
    src.write_text("a b 2\nb c 3\na c 6\n")
    out = tmp_path / "out"
    assert main(["weighted-truss", "--k", "4", str(src), "-o", str(out)]) == 0
    phis = {line.split("\t")[2] for line in (out / "trussness.tsv").read_text().strip().split("\n")}
    assert phis == {"4"}


def test_trapeze_levels(tmp_path):
    src = tmp_path / "mix.tsv"
    k5 = "\n".join(f"k{i} k{j}" for i in range(5) for j in range(i + 1, 5))
    k23 = "\n".join(f"x{i} y{j}" for i in range(2) for j in range(3))
    src.write_text(k5 + "\n" + k23 + "\n")
    out = tmp_path / "out"
    assert main(["trapeze", "--levels", "1,2,4", str(src), "-o", str(out)]) == 0
    rows = [l.split("\t") for l in (out / "trapezes.tsv").read_text().strip().split("\n")]
    assert {r[0] for r in rows} == {"1", "2", "4"}
    summit_rows = [l.split("\t") for l in (out / "summits.tsv").read_text().strip().split("\n")]
    assert {r[0] for r in summit_rows} == {"2", "4"}


def test_trapeze_bad_levels(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text("a b\nb c\nc d\nd a\n")
    assert main(["trapeze", "--levels", "3,2", str(src), "-o", str(tmp_path / "o")]) == 1


def test_strong_trapeze_splits_at_cut_vertex(tmp_path):
    src = tmp_path / "bow.tsv"
    src.write_text(C4_BOWTIE)
    weak, strong = tmp_path / "weak", tmp_path / "strong"
    assert main(["trapeze", "--levels", "1", str(src), "-o", str(weak)]) == 0
    assert main(["strong-trapeze", "--levels", "1", str(src), "-o", str(strong)]) == 0
    weak_rows = [l.split("\t") for l in (weak / "trapezes.tsv").read_text().splitlines()]
    assert {tuple(r[:3]) for r in weak_rows} == {("1", "weak", "0")} and len(weak_rows) == 8
    groups: dict[str, set[str]] = {}
    for k, kind, idx, u, v in (l.split("\t") for l in (strong / "trapezes.tsv").read_text().splitlines()):
        assert (k, kind) == ("1", "strong")
        groups.setdefault(idx, set()).update((u, v))
    assert groups == {"0": set("abcd"), "1": set("defg")}


def test_summit_trapeze_lists_the_summits(tmp_path):
    src = tmp_path / "mix.tsv"
    k5 = "\n".join(f"k{i} k{j}" for i in range(5) for j in range(i + 1, 5))
    k23 = "\n".join(f"x{i} y{j}" for i in range(2) for j in range(3))
    src.write_text(k5 + "\n" + k23 + "\n")
    out = tmp_path / "out"
    assert main(["summit-trapeze", "--levels", "1,2,4", str(src), "-o", str(out)]) == 0
    text = (out / "trapezes.tsv").read_text()
    assert text == (out / "summits.tsv").read_text()
    rows = [l.split("\t") for l in text.splitlines()]
    assert {(r[0], r[1], r[2]) for r in rows} == {("4", "summit", "0"), ("2", "summit", "1")}


@pytest.mark.parametrize(
    "text, bipartite", [(C4_BOWTIE, True), (K4_PENDANT, False)], ids=["bipartite", "odd-cycle"]
)
def test_check_bipartite_reads_input_once(text, bipartite, tmp_path, capsys, monkeypatch):
    import trusskit.cli

    loads = []
    real = trusskit.cli.load_edge_list
    monkeypatch.setattr(
        trusskit.cli, "load_edge_list", lambda *a, **kw: loads.append(1) or real(*a, **kw)
    )
    src = tmp_path / "g.tsv"
    src.write_text(text)
    argv = ["trapeze", "--levels", "1", "--check-bipartite", str(src), "-o", str(tmp_path / "o")]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"bipartite: {bipartite}"
    assert len(loads) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["--levels", "3,2"], ["--levels", "0"], ["--levels", "x"], ["--geometric", "-1"],
        ["--levels", "1,2147483648"], ["--geometric", "31"],
    ],
)
def test_trapeze_bad_levels_fail_before_any_work(args, tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(C4_BOWTIE)
    out = tmp_path / "out"
    # the schedule is checked before the input is even read
    for path in (src, tmp_path / "missing.tsv"):
        assert main(["trapeze", *args, "--check-bipartite", str(path), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "levels" in captured.err
    assert not out.exists()


def test_bench_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "bench", "--l", "4", "--size", "6", "--p", "0.9", "--mu", "0.05",
        "--method", "truss", "--trials", "3", "--seed", "7",
        "--k-min", "3", "--k-max", "4", "-o", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "seed=7" in captured
    body = (out / "bench.tsv").read_text()
    assert body.startswith("method\tk\tmean_nmi\ttrials")


def test_bench_zero_mixing_perfect_recovery(tmp_path):
    out = tmp_path / "out"
    code = main([
        "bench", "--l", "5", "--size", "5", "--p", "1.0", "--mu", "0",
        "--method", "truss", "--trials", "2", "--seed", "3",
        "--k-min", "5", "--k-max", "5", "-o", str(out),
    ])
    assert code == 0
    row = (out / "bench.tsv").read_text().strip().split("\n")[1]
    assert row.split("\t")[2] == "1.0000"


@pytest.mark.parametrize("method", ["truss", "summit"])
def test_bench_k_min_alone_keeps_the_default_rows_from_k(method, tmp_path):
    model = [
        "bench", "--l", "4", "--size", "8", "--p", "0.9", "--mu", "0.1",
        "--method", method, "--trials", "2", "--seed", "5",
    ]
    assert main([*model, "-o", str(tmp_path / "all")]) == 0
    assert main([*model, "--k-min", "5", "-o", str(tmp_path / "five")]) == 0
    head, *rows = (tmp_path / "all" / "bench.tsv").read_text().splitlines()
    kept = [r for r in rows if r.split("\t")[1] == "-" or int(r.split("\t")[1]) >= 5]
    assert (tmp_path / "five" / "bench.tsv").read_text().splitlines() == [head, *kept]
    # summit rows carry no k and are all kept; the truss run loses k = 3, 4
    assert len(kept) == (len(rows) if method == "summit" else len(rows) - 2)


@pytest.mark.parametrize("method", ["truss", "strong"])
def test_bench_k_min_2_alone_reports_k_2(method, tmp_path):
    model = [
        "bench", "--l", "4", "--size", "6", "--p", "0.9", "--mu", "0.1",
        "--method", method, "--trials", "2", "--seed", "5",
    ]
    runs = {"default": [], "two": ["--k-min", "2"], "ranged": ["--k-min", "2", "--k-max", "3"]}
    rows = {}
    for name, k_args in runs.items():
        assert main([*model, *k_args, "-o", str(tmp_path / name)]) == 0
        rows[name] = (tmp_path / name / "bench.tsv").read_text().splitlines()[1:]
    assert rows["two"][0].split("\t")[1] == "2"
    assert rows["two"][0] == rows["ranged"][0]
    # the default run still starts at k = 3 and otherwise agrees
    assert rows["default"][0].split("\t")[1] == "3"
    assert rows["two"][1:] == rows["default"]


@pytest.mark.parametrize(
    "k_args, method",
    [
        (["--k-min", "5", "--k-max", "3"], "truss"),
        (["--k-max", "-1"], "strong"),
        (["--k-min", "1"], "summit"),
    ],
)
def test_bench_refuses_a_bad_k_range(k_args, method, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "bench", "--l", "4", "--size", "6", "--p", "0.9", "--mu", "0.1",
        "--method", method, "--trials", "1", *k_args, "-o", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --k-") and err.count("\n") == 1
    assert not out.exists()


def test_bench_summit_mixed_sizes(tmp_path):
    out = tmp_path / "out"
    code = main([
        "bench", "--l", "10", "--sizes", "5..10", "--p", "0.9", "--mu", "0.1",
        "--method", "summit", "--trials", "2", "--seed", "1",
        "--format", "json", "-o", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "bench.json").read_text())
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["method"] == "summit"


def test_bench_infeasible_mu(tmp_path, capsys):
    code = main([
        "bench", "--l", "2", "--size", "2", "--p", "1.0", "--mu", "0.95",
        "--trials", "1", "-o", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "probability" in capsys.readouterr().err


def test_stats_subcommand(k4_file, capsys):
    assert main(["stats", str(k4_file)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n"] == 5 and stats["m"] == 7 and stats["k_max"] == 4
    assert stats["max_degree"] == 4


@pytest.mark.parametrize(
    "args, message",
    [
        (["truss", "--k", "1"], "k must be at least 2"),
        (["strong-truss", "--k", "0"], "k must be at least 2"),
        (["weighted-truss", "--k", "1"], "k must be at least 2"),
        (["weighted-truss", "--k", "4", "--alpha", "0"], "--alpha must be positive"),
        (["weighted-truss", "--k", "4", "--alpha", "x"], "bad --alpha"),
    ],
)
def test_bad_arguments_fail_before_any_work(args, message, k4_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(args + [str(k4_file), "-o", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    # checked before the input is even read
    assert main(args + [str(tmp_path / "missing.tsv"), "-o", str(out)]) == 1
    assert message in capsys.readouterr().err


def test_triangle_cap_exits_1_without_output(k4_file, tmp_path, capsys, monkeypatch):
    import trusskit.triangles

    monkeypatch.setattr(trusskit.triangles, "DEFAULT_TRIANGLE_CAP", 1)
    out = tmp_path / "out"
    assert main(["truss", "--k", "3", str(k4_file), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "over the cap of 1" in err
    assert not out.exists()


@pytest.mark.parametrize("fn, top", [("min", 10**400), ("harmonic", 10**400 // 3)])
def test_huge_weights_exit_1_at_the_exact_cap(fn, top, tmp_path, capsys):
    src = tmp_path / "huge.tsv"
    src.write_text("a b 1e400\nb c 1e400\na c 1e400\n")
    out = tmp_path / "out"
    assert main(["weighted-truss", "--k", "3", "--weight-fn", fn, str(src), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: maximum weighted support {top} exceeds cap ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["truss", "--k", "3"],
    ["strong-truss", "--k", "3"],
    ["summit"],
    ["weighted-truss", "--k", "3"],
    ["trapeze", "--levels", "1,2"],
    ["strong-trapeze", "--levels", "1,2"],
    ["summit-trapeze", "--levels", "1,2"],
    ["stats"],
])
def test_input_not_utf8_exits_1_with_one_line(argv, tmp_path, capsys):
    """A byte that is not UTF-8, past the first megabyte of good lines,
    fails every input-reading subcommand with one stderr line, leaving no
    output directory and no staged one."""
    src = tmp_path / "bad.tsv"
    good = b"".join(b"a%d b%d\n" % (i, i + 1) for i in range(100_000))
    assert len(good) > 1 << 20
    src.write_bytes(good + b"c \xff\n")
    out = [] if argv[0] == "stats" else ["-o", str(tmp_path / "out")]
    assert main([*argv, str(src), *out]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "can't decode byte 0xff" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.tsv"]


def test_memory_error_exits_1_with_one_line(k4_file, tmp_path, capsys, monkeypatch):
    import trusskit.cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(trusskit.cli, "k_classes", exhausted)
    out = tmp_path / "out"
    assert main(["truss", "--k", "3", str(k4_file), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not out.exists()


def test_triad_cap_exits_1_without_output(tmp_path, capsys, monkeypatch):
    import trusskit.trapeze

    monkeypatch.setattr(trusskit.trapeze, "DEFAULT_TRIAD_CAP", 1)
    src = tmp_path / "bow.tsv"
    src.write_text(C4_BOWTIE)
    out = tmp_path / "out"
    assert main(["trapeze", "--levels", "1", str(src), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "triads, over the cap of 1" in err
    assert not out.exists()


def _exhausted(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "argv, fails_in",
    [
        (["truss", "--k", "3"], "truss_dendrogram"),
        (["trapeze", "--levels", "1,2"], "trapeze_level_run"),
    ],
)
def test_failed_run_leaves_output_directory_as_it_was(
    argv, fails_in, tmp_path, capsys, monkeypatch
):
    import trusskit.cli

    src = tmp_path / "g.tsv"
    src.write_text(K4_PENDANT + C4_BOWTIE.replace("a", "x"))
    monkeypatch.setattr(trusskit.cli, fails_in, _exhausted)
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    kept.mkdir()
    (kept / "labels.tsv").write_text("old\n")
    (kept / "notes.txt").write_text("mine\n")
    for out in (fresh, kept):
        assert main([*argv, str(src), "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
    assert not fresh.exists()
    assert sorted(p.name for p in kept.iterdir()) == ["labels.tsv", "notes.txt"]
    assert (kept / "labels.tsv").read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.tsv", "kept"]


def test_outputs_move_into_an_existing_directory(k4_file, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "labels.tsv").write_text("old\n")
    (out / "notes.txt").write_text("mine\n")
    assert main(["truss", "--k", "4", str(k4_file), "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"1 clusters -> {out}\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "clusters.tsv", "dendrogram.tsv", "labels.tsv", "notes.txt", "trussness.tsv",
    ]
    assert (out / "labels.tsv").read_text().startswith("0\ta\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k4p.tsv", "out"]


@pytest.mark.parametrize(
    "argv",
    [
        ["truss", "--k", "4", str(DOLPHINS)],
        ["strong-truss", "--k", "3", str(DOLPHINS)],
        ["summit", "--strong", str(DOLPHINS)],
        ["strong-trapeze", "--levels", "1,2,4", str(DOLPHINS)],
        # weighted levels in the dendrogram; weak trapezes and summits.tsv
        ["weighted-truss", "--k", "3", "--weight-fn", "harmonic", "many-level"],
        ["trapeze", "--levels", "1,2,4", str(DOLPHINS)],
    ],
)
def test_streamed_tables_do_not_depend_on_chunk_size(argv, tmp_path, monkeypatch):
    import trusskit.cli

    if argv[-1] in SOURCES:
        path = tmp_path / "input.tsv"
        path.write_text(SOURCES[argv[-1]]())
        argv = [*argv[:-1], str(path)]
    whole = tmp_path / "whole"
    assert main([*argv, "-o", str(whole)]) == 0
    monkeypatch.setattr(trusskit.cli, "ROWS_PER_WRITE", 7)
    chunked = tmp_path / "chunked"
    assert main([*argv, "-o", str(chunked)]) == 0
    names = sorted(p.name for p in whole.iterdir())
    assert names == sorted(p.name for p in chunked.iterdir())
    for name in names:
        text = (whole / name).read_text()
        assert (chunked / name).read_text() == text
        assert text == "" or (text.endswith("\n") and not text.endswith("\n\n"))


# The string writers the byte-table writer replaced, kept verbatim but for
# their names, block-size constant and return annotations, as the reference
# it must match byte for byte.
REFERENCE_ROWS_PER_WRITE = 1 << 12


def reference_tsv_block(*columns) -> str:
    """Newline-terminated rows of tab-separated cells, row i holding item i
    of each column of strings. The cells and separators are laid out in one
    object array and joined at once, with no Python step per row."""
    cells = np.empty((len(columns[0]), 2 * len(columns)), dtype=object)
    cells[:, 1::2] = "\t"
    cells[:, -1] = "\n"
    for j, column in enumerate(columns):
        cells[:, 2 * j] = column
    return "".join(cells.ravel().tolist())


def reference_edge_rows(graph: Graph, rows, kind: str | None = None):
    """Blocks of "<k>\t[<kind>\t]<index>\t<u>\t<v>" rows, one per edge of
    each renumbered cluster; blocks span clusters."""
    prefix = "" if kind is None else f"{kind}\t"
    heads = np.array([f"{k}\t{prefix}{idx}" for idx, k, _ in rows], dtype=object)
    head = np.repeat(heads, [len(edges) for *_, edges in rows])
    eids = np.concatenate([np.empty(0, np.int64), *(edges for *_, edges in rows)])
    labels = np.array(graph.labels, dtype=object)
    for lo in range(0, len(eids), REFERENCE_ROWS_PER_WRITE):
        pair = labels[graph.ends[eids[lo : lo + REFERENCE_ROWS_PER_WRITE]]]
        yield reference_tsv_block(
            head[lo : lo + REFERENCE_ROWS_PER_WRITE], pair[:, 0], pair[:, 1]
        )


def reference_level_strings(levels: np.ndarray) -> np.ndarray:
    """Each level as a str in an object array, one str built per distinct
    level: a block has few."""
    distinct, index = np.unique(levels, return_inverse=True)
    return np.array([str(k) for k in distinct.tolist()], dtype=object)[index]


def reference_trussness_rows(graph: Graph, trussness: np.ndarray):
    """Blocks of "<u>\t<v>\t<trussness>" rows, one row per edge in id order."""
    labels = np.array(graph.labels, dtype=object)
    for lo in range(0, graph.m, REFERENCE_ROWS_PER_WRITE):
        pair = labels[graph.ends[lo : lo + REFERENCE_ROWS_PER_WRITE]]
        level = reference_level_strings(trussness[lo : lo + REFERENCE_ROWS_PER_WRITE])
        yield reference_tsv_block(pair[:, 0], pair[:, 1], level)


def reference_labels_rows(graph: Graph):
    """Blocks of "<vertex id>\t<label>\n" rows."""
    for lo in range(0, graph.n, REFERENCE_ROWS_PER_WRITE):
        hi = min(lo + REFERENCE_ROWS_PER_WRITE, graph.n)
        yield reference_tsv_block(list(map(str, range(lo, hi))), graph.labels[lo:hi])


def reference_dendrogram_rows(family):
    """Blocks of "<level>\t<absorbed,...>\t<survivor>\n" rows, one per merge."""
    table = family.merges
    for lo in range(0, len(table), REFERENCE_ROWS_PER_WRITE):
        chunk = table[lo : lo + REFERENCE_ROWS_PER_WRITE]
        survivor, absorbed = (list(map(str, column)) for column in chunk[:, 1:3].T.tolist())
        three = np.flatnonzero(chunk[:, 3] >= 0)    # merges of three clusters
        for i, third in zip(three.tolist(), chunk[three, 3].tolist()):
            absorbed[i] += f",{third}"
        yield reference_tsv_block(reference_level_strings(chunk[:, 0]), absorbed, survivor)


def writer_pairs(graph: Graph, family=None, trussness=None):
    """(name, reference blocks, columns) of every table the subcommands
    write for this graph: labels, trussness, the dendrogram and the
    clusters, trapezes and summits, each with and without a kind."""
    from trusskit import edge_supports, k_classes, truss_dendrogram, trusses_at
    from trusskit.cli import (
        Strings,
        dendrogram_rows,
        edge_rows,
        labels_rows,
        spans,
        trussness_rows,
    )

    decomposition = k_classes(graph, edge_supports(graph))
    trussness = decomposition.trussness if trussness is None else trussness
    family = truss_dendrogram(decomposition) if family is None else family
    three = trusses_at(decomposition, 3)
    top = trusses_at(decomposition, 2)
    top = dataclasses.replace(top, level=np.full(len(top), 2**31 - 1, np.int32))
    # the reference writers read (index, k, ascending edge ids) rows
    listed = [
        [(i, k, store.edges[lo:hi]) for i, (k, lo, hi) in spans(store)] for store in (three, top)
    ]
    labels = Strings(graph.labels)   # one column serves every table, as in the subcommands
    yield "labels", reference_labels_rows(graph), labels_rows(labels)
    yield "trussness", reference_trussness_rows(graph, trussness), trussness_rows(
        graph, labels, trussness
    )
    yield "dendrogram", reference_dendrogram_rows(family), dendrogram_rows(family)
    for kind in (None, "strong", "weak", "summit"):
        yield f"{kind} clusters", reference_edge_rows(graph, listed[0], kind), edge_rows(
            graph, labels, [three], kind
        )
        yield f"{kind} top", reference_edge_rows(graph, listed[1], kind), edge_rows(
            graph, labels, [top], kind
        )
        yield f"{kind} both", reference_edge_rows(
            graph, listed[0] + listed[1], kind
        ), edge_rows(graph, labels, [three, top], kind)
    yield "no clusters", reference_edge_rows(graph, []), edge_rows(graph, labels, [])


def odd_labels_graph():
    """Multibyte UTF-8 labels and one holding NUL, which str.split() keeps."""
    from trusskit import load_edge_list

    text = "é ü\nü 名前\n名前 é\né a\x00b\na\x00b ü\n😀 é\n😀 ü\nx y\n"
    return load_edge_list(text.splitlines())


def merges_table(rows, seed=3):
    """A stand-in family whose merge log has wide ids, levels up to 2^31-1
    and a third id on about half the rows."""
    from types import SimpleNamespace

    rng = np.random.default_rng(seed)
    table = rng.integers(0, 2**31, (rows, 4)).astype(np.int32)
    table[: rows // 2, 1:] = rng.integers(0, 10, (rows // 2, 3))
    table[:, 0] = np.sort(rng.choice([0, 2, 9, 10, 99, 2**16 + 1, 2**31 - 1], rows))[::-1]
    table[rng.random(rows) < 0.5, 3] = -1
    return SimpleNamespace(merges=table)


@pytest.mark.parametrize(
    "case, block",
    [
        (case, block)
        for case in ("odd labels", "no edges", "no vertices", "dolphins", "blocks")
        for block in (1, 7, None)
        if (case, block) != ("blocks", 1)   # 17k writes per table: dolphins covers it
    ],
)
def test_byte_tables_match_the_string_writers(case, block, tmp_path, monkeypatch):
    import trusskit.cli
    from trusskit import build_graph, load_edge_list

    if block is not None:
        monkeypatch.setattr(trusskit.cli, "ROWS_PER_WRITE", block)
    family = trussness = None
    if case == "odd labels":
        graph = odd_labels_graph()
    elif case == "no edges":
        graph = build_graph(3, [])
    elif case == "no vertices":
        graph = build_graph(0, [])
    elif case == "dolphins":
        graph = load_edge_list(DOLPHINS.read_text().splitlines())
        family = merges_table(401)
        trussness = np.where(np.arange(graph.m) % 3 == 0, 2**31 - 1, 2 + np.arange(graph.m) % 11)
    else:   # three-way merges in its dendrogram
        graph = load_edge_list(blocks_text(False).splitlines())
    for name, reference, columns in writer_pairs(graph, family, trussness):
        trusskit.cli.write_rows(tmp_path, "table.tsv", columns)
        assert (tmp_path / "table.tsv").read_bytes() == "".join(reference).encode(), name


def test_byte_tables_match_past_2_to_the_16(tmp_path):
    """Vertex, edge and merge ids past 2^16: a path of 70,000 edges, whose
    dendrogram merges every edge at level 2, and a wide merge log."""
    from trusskit import build_graph
    from trusskit.cli import write_rows

    n = 70_001
    graph = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    for family in (None, merges_table(3 * 2**16 + 5)):
        for name, reference, columns in writer_pairs(graph, family):
            write_rows(tmp_path, "table.tsv", columns)
            assert (tmp_path / "table.tsv").read_bytes() == "".join(reference).encode(), name


def test_output_path_that_is_a_file_exits_1_with_one_line(k4_file, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("mine\n")
    assert main(["truss", "--k", "4", str(k4_file), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {out}")
    assert out.read_text() == "mine\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k4p.tsv", "taken"]


VIEWS = {
    "adj": Graph,
    "edges": Graph,
    "weights": Graph,
    "sup": SupportMap,
    "phi": KClassDecomposition,
    "classes": KClassDecomposition,
    "view": Clusters,
}


@pytest.mark.parametrize("view", list(VIEWS))
def test_no_subcommand_builds_the_adjacency(tmp_path, monkeypatch, view):
    """Every production path, --check-bipartite and every export included,
    runs on the arrays; only the oracles and the tests read Graph.adj or the
    tuple and dict views of the edges, weights, supports and trussness, or
    the frozensets of a cluster store."""
    owner = VIEWS[view]

    def refuse(obj):
        raise AssertionError(f"{owner.__name__}.{view} was built")

    monkeypatch.setattr(owner, view, property(refuse))
    weighted = tmp_path / "w.tsv"
    weighted.write_text("a b 2\nb c 3\nc a 1\nc d 5\nd a 2\nd b 1\ne a 4\ne b 1\n")
    runs = []
    for path, flag in ((str(DOLPHINS), []), (str(weighted), ["--weighted"])):
        runs += [
            ["truss", "--k", "4", "--dot", "--graphml", *flag, path],
            ["truss", "--k", "4", "--format", "json", *flag, path],
            ["strong-truss", "--k", "4", *flag, path],
            ["summit", *flag, path],
            ["summit", "--strong", *flag, path],
            ["weighted-truss", "--k", "3", "--weight-fn", "min", path],
            ["weighted-truss", "--k", "3", "--weight-fn", "harmonic", "--alpha", "3/2", path],
        ]
    runs += [[cmd, "--levels", "1,2,4", "--check-bipartite", str(DOLPHINS)]
             for cmd in ("trapeze", "strong-trapeze", "summit-trapeze")]
    runs.append(["trapeze", "--levels", "1,2", "--format", "json", str(DOLPHINS)])
    runs += [["bench", "--l", "4", "--size", "10", "--p", "0.8", "--mu", "0.3",
              "--trials", "2", "--method", method]
             for method in ("truss", "strong", "summit", "strong-summit")]
    for i, argv in enumerate(runs):
        assert main([*argv, "-o", str(tmp_path / f"out{i}")]) == 0, argv
    for argv in (["stats", str(DOLPHINS)], ["stats", "--weighted", str(weighted)]):
        assert main(argv) == 0, argv


@pytest.mark.parametrize("argv", [
    ["truss", "--k", "4", str(DOLPHINS)],
    ["strong-truss", "--k", "4", str(DOLPHINS)],
    ["summit", "--strong", str(DOLPHINS)],
    ["weighted-truss", "--k", "3", "--weight-fn", "harmonic", "--alpha", "3/2", "WEIGHTED"],
    ["weighted-truss", "--k", "3", "--weight-fn", "min", "WEIGHTED"],
    ["trapeze", "--levels", "1,2,4", str(DOLPHINS)],
    ["strong-trapeze", "--levels", "1,2,4", str(DOLPHINS)],
    ["bench", "--l", "4", "--size", "10", "--p", "0.8", "--mu", "0.3", "--trials", "3",
     "--method", "strong"],
    ["bench", "--l", "4", "--size", "10", "--p", "0.8", "--mu", "0.3", "--trials", "3",
     "--method", "summit"],
])
def test_hot_paths_sort_with_the_one_kernel(argv, tmp_path, monkeypatch):
    """The pipelines the benchmark runs, the loader, and the strong merge
    log and triad family order their arrays with graph._stable_sort,
    numpy's plain sort over packed keys, and never with np.argsort or
    np.lexsort, which are slower here."""
    weighted = tmp_path / "w.tsv"
    weighted.write_text("a b 2\nb c 3\nc a 1\nc d 5\nd a 2\nd b 1\ne a 4\ne b 1\na b 7\n")
    argv = [str(weighted) if arg == "WEIGHTED" else arg for arg in argv]

    def refuse(*args, **kwargs):
        raise AssertionError("a hot path called np.argsort or np.lexsort")

    monkeypatch.setattr(np, "argsort", refuse)
    monkeypatch.setattr(np, "lexsort", refuse)
    assert main([*argv, "-o", str(tmp_path / "out")]) == 0


BENCH_ARGS = ["bench", "--l", "4", "--size", "8", "--p", "0.9", "--mu", "0.1", "--trials", "2"]


@pytest.mark.parametrize(
    "argv, replays",
    [
        (["truss", "--k", "4", "--dot", "--graphml", str(DOLPHINS)], 1),
        (["strong-truss", "--k", "4", str(DOLPHINS)], 1),
        (["weighted-truss", "--k", "3", str(DOLPHINS)], 1),
        (["summit", str(DOLPHINS)], 0),
        (["summit", "--strong", str(DOLPHINS)], 0),
        (["trapeze", "--levels", "1,2,4", str(DOLPHINS)], 0),
        (["strong-trapeze", "--levels", "1,2,4", str(DOLPHINS)], 0),
        (["summit-trapeze", "--levels", "1,2,4", str(DOLPHINS)], 0),
        *(
            (BENCH_ARGS + ["--method", method], 0)
            for method in ("truss", "strong", "summit", "strong-summit")
        ),
        (["stats", str(DOLPHINS)], 0),
    ],
)
def test_merge_log_is_replayed_once_where_written(argv, replays, tmp_path, monkeypatch):
    """A run that writes dendrogram.tsv builds its family's merge log once,
    and no other run builds any: a family is not handed back with its
    merge log as its links, to be built again. The vertex family of
    `truss` and `weighted-truss` builds it from its spanning forest; the
    strong family replays its links."""
    import trusskit.truss

    calls = []
    for name in ("_replay", "forest_merges"):
        real = getattr(trusskit.truss, name)
        monkeypatch.setattr(
            trusskit.truss, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
        )
    out = [] if argv[0] == "stats" else ["-o", str(tmp_path / "out")]
    assert main([*argv, *out]) == 0
    path = "_replay" if argv[0] == "strong-truss" else "forest_merges"
    assert calls == [path] * replays


@pytest.mark.parametrize(
    "command, refused",
    [("trapeze", ["strong"]), ("strong-trapeze", ["weak"]), ("summit-trapeze", ["weak", "strong"])],
)
def test_each_trapeze_subcommand_builds_only_what_it_writes(
    command, refused, tmp_path, monkeypatch
):
    """A level run stores only each edge's level; its weak and strong
    trapezes are built when read, and no subcommand reads what it does not
    write."""
    from trusskit.trapeze import LevelRun

    for view in refused:
        def refuse(obj, view=view):
            raise AssertionError(f"LevelRun.{view} was built")

        monkeypatch.setattr(LevelRun, view, property(refuse))
    for fmt in ("tsv", "json"):
        out = tmp_path / fmt
        argv = [command, "--levels", "1,2,4", "--format", fmt, str(DOLPHINS), "-o", str(out)]
        assert main(argv) == 0
        assert (out / f"trapezes.{fmt}").stat().st_size > 0


def test_cli_import_leaves_out_the_network_modules():
    """xml.sax.saxutils drags in urllib.request and its network stack; only
    --graphml needs it, so it is imported there."""
    heavy = ["urllib.request", "http.client", "ssl", "email", "socket"]
    code = f"import sys, trusskit.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's /proc")
def test_import_starts_no_blas_workers():
    """trusskit calls no BLAS routine, so importing it first loads numpy
    with one OpenBLAS thread and the process keeps its one thread; a BLAS
    thread count already set in the environment is left as set."""
    code = (
        "import os, trusskit; "
        "threads = [l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')]; "
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), *threads)"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas} | {"PYTHONPATH": path}
    for preset, want in (({}, "1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")):
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env | preset, check=True
        )
        assert result.stdout.split()[: len(want.split())] == want.split()


def test_traced_runs_report_plain_json(tmp_path, monkeypatch):
    """The benchmark's tracer (perfbench/tracing.py) installs around every
    pipeline and reports plain JSON values, so a renamed traced function or
    a numpy scalar in a count fails here, not first in the benchmark."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.tracing import Tracer
    import trusskit.bench
    import trusskit.cli

    weighted = tmp_path / "w.tsv"
    weighted.write_text("a b 2\nb c 3\nc a 1\nc d 5\nd a 2\nd b 1\ne a 4\ne b 1\n")
    runs = [
        ["truss", "--k", "4", str(DOLPHINS)],
        ["summit", "--strong", str(DOLPHINS)],
        ["weighted-truss", "--k", "3", "--weight-fn", "min", str(weighted)],
        ["weighted-truss", "--k", "3", "--weight-fn", "harmonic", "--alpha", "6", str(weighted)],
        ["trapeze", "--levels", "1,2,4", str(DOLPHINS)],
        ["bench", "--l", "4", "--size", "8", "--p", "0.9", "--mu", "0.1", "--trials", "2"],
        # a batch closes at its first trial's triangles: three batches
        ["bench", "--l", "4", "--size", "8", "--p", "0.9", "--mu", "0.1", "--trials", "3",
         "--method", "summit"],
    ]
    monkeypatch.setattr(trusskit.bench, "BATCH_TRIANGLES", 1)
    tracer = Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(runs):
            assert trusskit.cli.main([*argv, "-o", str(tmp_path / f"out{i}")]) == 0, argv
    finally:
        tracer.remove()
    report = json.loads(json.dumps(tracer.report()))
    assert report["calls"]["cli.main"] == len(runs)
    for name in ("truss.k_max", "weighted.max_support.minimum", "weighted.max_support.harmonic"):
        assert report["peaks"][name] > 0
    for name in (
        "triangles.triangles", "truss.dendrogram_merges", "strong.merges", "strong.summits",
        "trapeze.triads", "bench.trials",
    ):
        assert report["counts"][name] > 0
    # every trial is drawn on its own; each batch, one trial here, is peeled
    # once, as are the two decompose runs' graphs
    assert report["calls"]["bench.generate_planted"] == report["counts"]["bench.trials"] == 5
    assert report["calls"]["truss.k_classes"] == 2 + 5
    assert report["calls"]["truss.summit_trusses"] == 3 and report["counts"]["truss.summits"] > 0


def many_level_text(seed=5, n=60, p=0.25):
    """A weighted edge list whose weights 1..1000 spread its weighted
    trussness over many distinct levels."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return "".join(f"v{i} v{j} {rng.randint(1, 1000)}\n" for i, j in pairs)


def blocks_text(weighted, seed=13, groups=200, size=16, p=0.5, inter=5000):
    """A seeded edge list of 190-260 KB, so the loader reads it in many
    blocks: dense groups joined by random cross edges (some of them loops
    or repeats), whose dendrogram merges three clusters at once."""
    rng = random.Random(seed)
    n = groups * size
    pairs = [(g * size + i, g * size + j) for g in range(groups)
             for i in range(size) for j in range(i + 1, size) if rng.random() < p]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(inter)]
    rng.shuffle(pairs)
    if weighted:
        return "".join(f"v{a}\tv{b} {rng.randint(1, 1000)}\n" for a, b in pairs)
    return "".join(f"v{a} v{b}\n" for a, b in pairs)


SOURCES = {
    "many-level": many_level_text,
    "blocks": lambda: blocks_text(False),
    "weighted-blocks": lambda: blocks_text(True),
}


# sha256 of output files, recorded before the cluster hierarchy moved to
# link tables and a columnar merge log
PINNED = [
    (["truss", "--k", "4"], "dolphins", {
        "clusters.tsv": "dfe7673dedd970786a87d4cfcbdd1ebc41e38f9bd547635ff990063569b1142e",
        "dendrogram.tsv": "8e03c7a1b37bbbb06012160e778f3b0d36cac97b28bd4fe6b195fc1a655400bc",
    }),
    (["strong-truss", "--k", "3"], "dolphins", {
        "clusters.tsv": "c5177b74dbe00afa9d05ec86b70687db8545436cf2084df52b4c9578224215ab",
        "dendrogram.tsv": "8a7a6f3b442fbc30fbdac977d9ca10eeabfd32740b1f1695ea1405f52f1c07e0",
    }),
    (["summit"], "dolphins", {
        "clusters.tsv": "e62356ca26ad2d2f347f1517a7da9043dc85484e7c77727e05aa5af446f593f0",
    }),
    (["summit", "--strong"], "dolphins", {
        "clusters.tsv": "09532618baa86ba20b61a5b014c8453337c7e634eb71fba796775698e316352c",
    }),
    (["weighted-truss", "--k", "3", "--weight-fn", "min"], "many-level", {
        "clusters.tsv": "6311ace7f4a38aff4e994f4b05f8f52051621842b6438ca735c34cd9b8ceb909",
        "dendrogram.tsv": "33c6144a9f2bfd763e8510b3d3841b9fd06991de8c305cd7d160c4c75e1e0dc1",
    }),
    (["weighted-truss", "--k", "3", "--weight-fn", "harmonic", "--alpha", "3/2"], "many-level", {
        "dendrogram.tsv": "faaf9c303d7eac4e1f2ca227f9b301148e9b815464cfaa81de5dd5a8200b7028",
    }),
    (["summit", "--strong", "--weighted"], "many-level", {
        "clusters.tsv": "8a5f70cdad7e868f6a832919684c32be2095755ae4e9250f57fe692eac955a2f",
    }),
    # trapeze outputs, recorded before the level run kept one level store
    (["trapeze", "--levels", "1,2,4,8"], "dolphins", {
        "trapezes.tsv": "56b43df17233cf51d7d4049440892f67865171f920ff0df8fa7ad67bc71854cf",
        "summits.tsv": "dab51c6b34dcef0180fbf4f127e32fc5b01a6d1f4b753df0599e48cbd8ed8f6d",
    }),
    (["strong-trapeze", "--levels", "1,2,4,8"], "dolphins", {
        "trapezes.tsv": "003b48a3c7dc741e89cb5f9ae91520a33e0cd29da59cd639d263ed32128420ae",
    }),
    (["summit-trapeze", "--levels", "1,2,4,8"], "dolphins", {
        "trapezes.tsv": "dab51c6b34dcef0180fbf4f127e32fc5b01a6d1f4b753df0599e48cbd8ed8f6d",
    }),
    (["trapeze", "--levels", "1,2", "--format", "json"], "dolphins", {
        "trapezes.json": "3f99513366254e6a3bd07f3bb2bc80b472703ec22b1f830b7e6707053c274c27",
    }),
    # recorded before the block-scan loader and the merge log from the
    # spanning forest
    (["truss", "--k", "4"], "blocks", {
        "clusters.tsv": "162cbf762a039fd776418af0f5519f89a5e35bfdeca0e0cace324d07d2c696ec",
        "dendrogram.tsv": "7d50af84ed59ae640957e913807207056a76250e864a529b7a5ad6392684594b",
    }),
    (["weighted-truss", "--k", "4", "--weight-fn", "min"], "weighted-blocks", {
        "clusters.tsv": "ca0fc5bd16ce743fff1ad026504fec5e4219c00328ef62b25b492ea06652eead",
        "dendrogram.tsv": "688b4127541a5898d5cde6c89994e9c6e5425e867b41877e8641f0d836c4a739",
    }),
    # labels and trussness, recorded before tables were written as bytes
    (["truss", "--k", "3"], "dolphins", {
        "labels.tsv": "7b1d27a646311c318349e7cd2a1a0fc05e01c5ef2214332010222a4baae496b8",
        "trussness.tsv": "f7847b63b78e6b9b81a02d555580c4f92930edb4c301a206f88b9218a7a13830",
    }),
    (["weighted-truss", "--k", "2", "--weight-fn", "harmonic"], "many-level", {
        "labels.tsv": "2ed177aa6420feed5cd7cbbc0dfee80015874bea55fd3bc452b56c474a385624",
        "trussness.tsv": "378de85589d51aef1859b09ac90c262fa62a35637443402d49a0fe28c1eda775",
    }),
    (["truss", "--k", "3"], "blocks", {
        "labels.tsv": "f7dca24bc6fdcfa7d126b3d78ef5430ac14ffe16504220d034bd53576276f260",
        "trussness.tsv": "9005c0c35599cd94ff101f1dadaf17f2852d7cffae2e1daa8288ab19bced1a6f",
    }),
    # exports and JSON, recorded before clusters became one array store
    (["truss", "--k", "4", "--format", "json", "--dot", "--graphml"], "dolphins", {
        "clusters.json": "a274b47efd672188a698c3fe68bbad8b227da1687ed07c8956060c47427368f4",
        "clusters.dot": "2a18e82295c7aaed7e4826f01ebbedb59a1090356f48ad012eece5232fcd5f3d",
        "clusters.graphml": "903ae6a34c2add6c1319ab7cf146392de46c45d67459b302d39335bdd13fab4f",
    }),
    (["truss", "--k", "4", "--weighted", "--format", "json", "--dot", "--graphml"], "many-level", {
        "clusters.json": "31cdf461f8038a097fe1b00e5ba51ec9a18c6504b88babfa4405eb4d21add265",
        "clusters.dot": "c57137de01457c86d8c9c2eb779aeb7cad28489d420f49ab584de5641826af85",
        "clusters.graphml": "3de89d63ec352c77bef55c4d1f37be652c384928500e1ef41a5efb96f6f04133",
    }),
    (["strong-trapeze", "--levels", "1,2,4,8", "--format", "json"], "dolphins", {
        "trapezes.json": "2db0bfd0c27138f7bfdfcbdf0e4741905cb27c66b0d292d47f16dd4857e93834",
        "summits.tsv": "dab51c6b34dcef0180fbf4f127e32fc5b01a6d1f4b753df0599e48cbd8ed8f6d",
    }),
    (["summit-trapeze", "--levels", "1,2,4,8", "--format", "json"], "dolphins", {
        "trapezes.json": "9212fa0708ba4e07b3bcdd02b58e8287ce4b5f4015065366300663f9cb274e99",
    }),
    # bench reads no input: mixed group sizes, and two batches of two trials
    (["bench", "--l", "8", "--sizes", "6..20", "--p", "0.7", "--mu", "0.3", "--trials", "6",
      "--seed", "3", "--method", "summit"], None, {
        "bench.tsv": "6bcf1505197a62c60c88fb04416a382d49a552f6ab1acf0d2f8a640998bfcd59",
    }),
    (["bench", "--l", "30", "--size", "20", "--p", "0.8", "--mu", "0.3", "--trials", "4",
      "--seed", "2", "--method", "summit"], None, {
        "bench.tsv": "5581fb1a3ededa1b630d98521c304895d2ebf994f010012bde1eb144e1e7cea2",
    }),
]


@pytest.mark.parametrize(
    "argv, source, digests", PINNED, ids=[" ".join(a) + f" {src}" for a, src, _ in PINNED]
)
def test_outputs_match_pinned_digests(argv, source, digests, tmp_path):
    path = [str(DOLPHINS)] if source == "dolphins" else []
    if source in SOURCES:
        path = [str(tmp_path / "w.tsv")]
        Path(path[0]).write_text(SOURCES[source]())
    out = tmp_path / "out"
    assert main([*argv, *path, "-o", str(out)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# bench.tsv for each method on one seeded model, recorded before the
# cluster hierarchy moved to link tables; row order and ties reach it
BENCH_MODEL = ["--l", "6", "--size", "12", "--p", "0.6", "--mu", "0.4", "--trials", "4", "--seed", "7"]
BENCH_TSV = {
    "truss": "truss\t3\t0.0000\t4\ntruss\t4\t0.4778\t4\ntruss\t5\t0.7367\t4\n"
             "truss\t6\t0.6426\t3\ntruss\t7\t0.6095\t1\n",
    "strong": "strong\t3\t0.0000\t4\nstrong\t4\t0.8216\t4\nstrong\t5\t0.7367\t4\n"
              "strong\t6\t0.6426\t3\nstrong\t7\t0.6095\t1\n",
    "summit": "summit\t-\t0.7305\t4\n",
    "strong-summit": "strong-summit\t-\t0.7887\t4\n",
}


@pytest.mark.parametrize("method", sorted(BENCH_TSV))
def test_bench_tsv_is_pinned_per_method(method, tmp_path):
    out = tmp_path / "out"
    assert main(["bench", *BENCH_MODEL, "--method", method, "-o", str(out)]) == 0
    assert (out / "bench.tsv").read_text() == "method\tk\tmean_nmi\ttrials\n" + BENCH_TSV[method]


def test_bench_inter_prob_overrides_mu(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["bench", "--l", "4", "--size", "12", "--p", "0.7", "--r", "0.08", "--mu", "0",
            "--trials", "3", "--seed", "2", "--method", "strong-summit", "-o", str(out)]
    assert main(argv) == 0
    # 4 groups of 12 at p=0.7 expect 185 intra-group edges; --r adds the rest
    assert "mean_m=255.0" in capsys.readouterr().out
    expected = "method\tk\tmean_nmi\ttrials\nstrong-summit\t-\t0.8387\t3\n"
    assert (out / "bench.tsv").read_text() == expected
    assert main([*argv[:8], "1.5", *argv[9:]]) == 1
    assert "inter_prob" in capsys.readouterr().err


def bfs_bipartite(graph: Graph) -> bool:
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


def test_is_bipartite_matches_a_search_oracle():
    from trusskit import build_graph
    from trusskit.cli import is_bipartite
    from conftest import complete_bipartite, cycle_graph, random_graphs

    fixed = [
        build_graph(0, []),                                   # empty graph
        build_graph(4, []),                                   # isolated vertices only
        cycle_graph(5), cycle_graph(6), complete_bipartite(3, 4),
        build_graph(9, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7)]),  # odd part + even part
        build_graph(9, [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6), (6, 7), (7, 8), (8, 5)]),
        build_graph(12, [(i, i + 1) for i in range(10)] + [(10, 0)]),       # odd cycle of 11
    ]
    expected = [True, True, False, True, True, False, True, False]
    assert [is_bipartite(g) for g in fixed] == expected
    graphs = [g for _, g in random_graphs(200, 14, seed=1515, densities=(0.05, 0.1, 0.2, 0.4))]
    graphs += [complete_bipartite(a, b) for a in range(1, 4) for b in range(1, 4)]
    for g in fixed + graphs:
        assert is_bipartite(g) == bfs_bipartite(g)

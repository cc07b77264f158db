import json
from pathlib import Path

import pytest

from trusskit.cli import main

K4_PENDANT = "a b\na c\na d\nb c\nb d\nc d\nd e\n"
DOLPHINS = Path(__file__).parent / "data" / "dolphins.tsv"


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

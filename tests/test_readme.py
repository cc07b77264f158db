import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_block() -> str:
    """The Python block of the README's Library section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs(tmp_path, monkeypatch):
    # the block reads graph.tsv from the working directory
    shutil.copy(ROOT / "tests" / "data" / "dolphins.tsv", tmp_path / "graph.tsv")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(library_block(), "README.md", "exec"), names)
    # dolphins holds four maximal 4-trusses
    assert len(names["ts"]) == 4 and names["ts"].level.tolist() == [4] * 4
    assert len(names["summits"]) > 0

"""The README's "Library quick tour" block runs against the current public API."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the tour writes its run directory relative to the working directory
    exec(compile(quick_tour(), "README.md (Library quick tour)", "exec"), {})
    assert (tmp_path / "run" / "curves.csv").exists()

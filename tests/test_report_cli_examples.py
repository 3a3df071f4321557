"""Tests for the report CLI and the quickstart example."""

import runpy
from pathlib import Path

from repro.harness.report import main as report_main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestReportCli:
    def test_write_flag_creates_file(self, tmp_path):
        output = tmp_path / "EXP.md"
        code = report_main(
            [
                "--write",
                "--output",
                str(output),
                "--reads",
                "3",
                "--read-length",
                "400",
                "--max-pairs",
                "3",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        content = output.read_text()
        assert "E1a_cpu_vs_ksw2" in content
        assert "Known reproduction limitations" in content

    def test_print_mode(self, capsys):
        code = report_main(
            ["--reads", "3", "--read-length", "400", "--max-pairs", "3", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPERIMENTS" in out


class TestExamples:
    def test_quickstart_runs(self, capsys):
        script = REPO_ROOT / "examples" / "quickstart.py"
        runpy.run_path(str(script), run_name="__main__")
        out = capsys.readouterr().out
        assert "edit distance" in out
        assert "reduction" in out

    def test_examples_are_present_and_importable_as_scripts(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        names = {p.name for p in examples}
        assert {"quickstart.py", "long_read_pipeline.py", "short_read_alignment.py", "gpu_simulation.py"} <= names
        for path in examples:
            source = path.read_text()
            assert '__main__' in source  # every example is runnable

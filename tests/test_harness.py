"""Tests for the experiment harness (dataset, experiments, report)."""

import pytest

from repro.harness.dataset import AlignmentWorkload, build_paper_dataset
from repro.harness.experiments import (
    PAPER_CLAIMS,
    run_ablation_experiment,
    run_accuracy_experiment,
    run_cpu_speed_experiment,
    run_gpu_speed_experiment,
    run_memory_access_experiment,
    run_memory_footprint_experiment,
)
from repro.harness.report import format_table, generate_experiments_markdown


@pytest.fixture(scope="module")
def workload() -> AlignmentWorkload:
    return build_paper_dataset(read_count=6, read_length=600, seed=3, max_pairs=6)


class TestDataset:
    def test_pipeline_produces_pairs(self, workload):
        assert workload.pair_count >= 4
        assert workload.total_pattern_bases > 1_000
        for pattern, text in workload.pairs:
            assert set(pattern) <= set("ACGT")
            assert len(text) > 0

    def test_candidates_reference_known_reads(self, workload):
        read_names = {read.name for read in workload.reads}
        assert all(c.read_name in read_names for c in workload.candidates)

    def test_scale_to_paper_positive(self, workload):
        assert workload.scale_to_paper > 1
        summary = workload.summary()
        assert summary["pairs"] == workload.pair_count

    def test_max_pairs_cap(self):
        capped = build_paper_dataset(read_count=6, read_length=600, seed=3, max_pairs=2)
        assert capped.pair_count <= 2

    def test_deterministic_for_seed(self):
        a = build_paper_dataset(read_count=3, read_length=500, seed=11, max_pairs=3)
        b = build_paper_dataset(read_count=3, read_length=500, seed=11, max_pairs=3)
        assert a.pairs == b.pairs


class TestExperiments:
    def test_paper_claims_registry(self):
        assert PAPER_CLAIMS["E1a_cpu_vs_ksw2"] == 15.2
        assert PAPER_CLAIMS["E3_footprint_reduction"] == 24.0

    def test_cpu_experiment_rows(self, workload):
        rows = run_cpu_speed_experiment(workload)
        assert {row["id"] for row in rows} == {
            "E1a_cpu_vs_ksw2",
            "E1b_cpu_vs_edlib",
            "E1c_cpu_vs_baseline_genasm",
        }
        for row in rows:
            assert row["measured"] > 0
        ksw2_row = next(r for r in rows if r["id"] == "E1a_cpu_vs_ksw2")
        assert ksw2_row["measured"] > 1.0  # GenASM beats the DP baseline

    def test_gpu_experiment_rows(self, workload):
        cpu_rows = run_cpu_speed_experiment(workload)
        rows = run_gpu_speed_experiment(workload, cpu_rows=cpu_rows)
        by_id = {row["id"]: row for row in rows}
        assert by_id["E2a_gpu_vs_cpu"]["measured"] > 1.0
        assert by_id["E2d_gpu_vs_baseline_gpu"]["measured"] > 1.0
        details = by_id["E2a_gpu_vs_cpu"]["details"]
        assert details["improved_dp_in_shared"] is True
        assert details["baseline_dp_in_shared"] is False

    def test_footprint_experiment(self, workload):
        row = run_memory_footprint_experiment(workload)[0]
        assert row["measured"] > 3.0
        assert row["model_reduction"] > 3.0
        assert row["baseline_bytes_per_window"] > row["improved_bytes_per_window"]

    def test_access_experiment(self, workload):
        row = run_memory_access_experiment(workload)[0]
        assert row["measured"] > 3.0
        assert row["baseline_accesses"] > row["improved_accesses"]

    def test_accuracy_experiment(self, workload):
        row = run_accuracy_experiment(workload)[0]
        assert row["measured"] == pytest.approx(1.0)
        assert row["optimal_fraction"] >= 0.9

    def test_ablation_rows_cover_all_variants(self, workload):
        rows = run_ablation_experiment(workload)
        ids = {row["id"] for row in rows}
        assert "A1_baseline" in ids and "A1_all_improvements" in ids
        all_row = next(r for r in rows if r["id"] == "A1_all_improvements")
        assert all_row["measured"] > 3.0


class TestReport:
    def test_format_table(self):
        table = format_table(
            [{"a": 1.234, "b": "x"}, {"a": float("nan"), "b": "y"}], ["a", "b"]
        )
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert "1.23" in lines[2]
        assert "—" in lines[3]

    def test_generate_experiments_markdown_smoke(self):
        content = generate_experiments_markdown(
            read_count=4, read_length=500, max_pairs=4, seed=5
        )
        assert "# EXPERIMENTS" in content
        assert "E1a_cpu_vs_ksw2" in content
        assert "Ablation" in content

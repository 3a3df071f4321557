"""A1 — ablation of the three algorithmic improvements.

The paper presents the three improvements as separable design choices;
this benchmark measures DP-traffic, footprint and runtime with each one
enabled in isolation and with all three combined.
"""

from __future__ import annotations

import pytest

from repro.harness.experiments import run_ablation_experiment

from conftest import report_rows


@pytest.mark.bench
def test_bench_a1_ablation_table(benchmark, small_workload):
    rows = benchmark.pedantic(
        run_ablation_experiment, args=(small_workload,), rounds=1, iterations=1
    )
    report_rows(
        benchmark,
        rows,
        keys=(
            "id",
            "measured",
            "access_reduction",
            "footprint_reduction",
            "speedup_vs_baseline",
        ),
    )
    by_id = {row["id"]: row for row in rows}
    # Entry compression alone cuts DP traffic by ~4x (it stores one vector
    # instead of four); the combination beats every single improvement.
    assert by_id["A1_entry_compression_only"]["measured"] > 3.0
    assert by_id["A1_all_improvements"]["measured"] >= max(
        by_id["A1_entry_compression_only"]["measured"],
        by_id["A1_early_termination_only"]["measured"],
        by_id["A1_traceback_band_only"]["measured"],
    )

"""E2 — GPU speedups (paper: 4.1× vs CPU, 62× vs KSW2, 7.2× vs Edlib, 5.9× vs baseline GPU).

Runs the GenASM GPU kernels (baseline and improved) through the A6000
execution model at the paper's workload scale and reports the four E2
speedup rows.  Functional results are produced by the same CPU library, so
this benchmark also asserts result equivalence.
"""

from __future__ import annotations

import pytest

from repro.core.config import GenASMConfig
from repro.gpu.device import A6000
from repro.gpu.kernel import GenASMKernelSpec
from repro.gpu.simulator import GpuSimulator
from repro.harness.experiments import run_gpu_speed_experiment

from conftest import report_rows


@pytest.mark.bench
def test_bench_gpu_kernel_profile_improved(benchmark, workload):
    """Cost-profile the improved kernel (functional alignment included)."""
    kernel = GenASMKernelSpec(GenASMConfig(), name="genasm-gpu-improved")
    profiles = benchmark.pedantic(
        kernel.profile_batch, args=(workload.pairs,), rounds=1, iterations=1
    )
    assert all(p.cost.compute_ops > 0 for p in profiles)


@pytest.mark.bench
def test_bench_gpu_kernel_profile_baseline(benchmark, workload):
    kernel = GenASMKernelSpec(GenASMConfig.baseline(), name="genasm-gpu-baseline")
    profiles = benchmark.pedantic(
        kernel.profile_batch, args=(workload.pairs,), rounds=1, iterations=1
    )
    assert all(p.cost.dp_bytes > 0 for p in profiles)


@pytest.mark.bench
def test_bench_gpu_simulation_mechanism(benchmark, workload):
    """The mechanism: improved fits in shared memory, baseline does not."""
    improved = GenASMKernelSpec(GenASMConfig(), name="genasm-gpu-improved")
    baseline = GenASMKernelSpec(GenASMConfig.baseline(), name="genasm-gpu-baseline")
    gpu = GpuSimulator(A6000)
    multiplier = workload.scale_to_paper

    def run():
        fast = gpu.simulate(workload.pairs, improved, workload_multiplier=multiplier)
        slow = gpu.simulate(workload.pairs, baseline, workload_multiplier=multiplier)
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["improved"] = fast.summary()
    benchmark.extra_info["baseline"] = slow.summary()
    assert fast.dp_in_shared and not slow.dp_in_shared
    assert fast.bound == "compute" and slow.bound == "memory"
    assert fast.speedup_over(slow) > 2.0
    assert [a.edit_distance for a in fast.alignments] == [
        a.edit_distance for a in slow.alignments
    ]


@pytest.mark.bench
def test_bench_e2_speedup_table(benchmark, small_workload):
    """The four E2 rows (paper vs measured)."""
    rows = benchmark.pedantic(
        run_gpu_speed_experiment, args=(small_workload,), rounds=1, iterations=1
    )
    report_rows(benchmark, rows)
    by_id = {row["id"]: row for row in rows}
    assert by_id["E2a_gpu_vs_cpu"]["measured"] > 1.0
    assert by_id["E2d_gpu_vs_baseline_gpu"]["measured"] > 2.0
    assert by_id["E2b_gpu_vs_ksw2"]["measured"] > by_id["E2a_gpu_vs_cpu"]["measured"]

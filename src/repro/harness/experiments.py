"""Experiment registry reproducing every result reported in the paper.

Each ``run_*_experiment`` function returns a list of row dictionaries with
at least the keys ``id``, ``metric``, ``paper`` and ``measured`` so the
report generator and the benchmark suite can consume them uniformly.
:data:`PAPER_CLAIMS` maps each row id to the paper's reported number; the
README's "Experiments" section lists how to run them.  Throughput sweeps
over the execution backends are declared grids
(:mod:`repro.harness.grid`), not runners here.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.edlib_like import EdlibLikeAligner
from repro.baselines.ksw2 import Ksw2Aligner
from repro.core.aligner import GenASMAligner
from repro.core.config import GenASMConfig
from repro.core.metrics import AccessCounter, MemoryFootprint
from repro.gpu.device import A6000, XEON_GOLD_5118
from repro.gpu.kernel import GenASMKernelSpec
from repro.gpu.simulator import CpuModel, GpuSimulator
from repro.harness.dataset import AlignmentWorkload, build_paper_dataset

__all__ = [
    "PAPER_CLAIMS",
    "default_workload",
    "run_cpu_speed_experiment",
    "run_gpu_speed_experiment",
    "run_memory_footprint_experiment",
    "run_memory_access_experiment",
    "run_accuracy_experiment",
    "run_ablation_experiment",
]

#: The paper's reported numbers, keyed by experiment row id.
PAPER_CLAIMS: Dict[str, float] = {
    "E1a_cpu_vs_ksw2": 15.2,
    "E1b_cpu_vs_edlib": 1.7,
    "E1c_cpu_vs_baseline_genasm": 1.9,
    "E2a_gpu_vs_cpu": 4.1,
    "E2b_gpu_vs_ksw2": 62.0,
    "E2c_gpu_vs_edlib": 7.2,
    "E2d_gpu_vs_baseline_gpu": 5.9,
    "E3_footprint_reduction": 24.0,
    "E4_access_reduction": 12.0,
    "E5_accuracy": 1.0,
}


def default_workload(
    *, read_count: int = 12, read_length: int = 1_200, seed: int = 0, max_pairs: int = 16
) -> AlignmentWorkload:
    """A small but representative workload for interactive runs and benches."""
    return build_paper_dataset(
        read_count=read_count,
        read_length=read_length,
        seed=seed,
        max_pairs=max_pairs,
    )


#: Timing passes of :func:`run_cpu_speed_experiment`.
CPU_SPEED_PASSES = 7


def _time_batch(align: Callable[[str, str], object], pairs: Sequence[Tuple[str, str]]) -> float:
    """CPU seconds this process spends aligning all pairs with ``align``."""
    start = time.process_time()
    for pattern, text in pairs:
        align(pattern, text)
    return time.process_time() - start


# --------------------------------------------------------------------------- #
# E1 — CPU aligner comparison (measured relative throughput)
# --------------------------------------------------------------------------- #
def run_cpu_speed_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
) -> List[Dict[str, object]]:
    """E1: improved-GenASM CPU vs KSW2-like, Edlib-like and baseline GenASM.

    The measured values are relative per-pair throughput of the Python
    implementations on the same candidate pairs; the paper's values are
    relative throughput of the C/C++/CUDA implementations.  The quantity
    being compared — "how many times faster is improved GenASM" — is the
    same; absolute runtimes are not comparable and not reported as such.
    Each pass times every aligner once, back to back; a speedup is the
    median over :data:`CPU_SPEED_PASSES` passes of its within-pass ratio,
    so both sides of a ratio see the same host load however it drifts.
    """
    workload = workload or default_workload()
    config = config or GenASMConfig()
    pairs = workload.pairs

    improved = GenASMAligner(config, name="genasm-improved")
    baseline = GenASMAligner(GenASMConfig.baseline(), name="genasm-baseline")
    edlib = EdlibLikeAligner("prefix")
    ksw2 = Ksw2Aligner(band_width=max(64, int(0.2 * max(len(p) for p, _ in pairs))))

    aligners = {
        "genasm-improved": improved.align,
        "genasm-baseline": baseline.align,
        "edlib-like": edlib.align,
        "ksw2-like": ksw2.align,
    }
    passes = [
        {name: _time_batch(align, pairs) for name, align in aligners.items()}
        for _ in range(CPU_SPEED_PASSES)
    ]
    timings = {name: statistics.median(p[name] for p in passes) for name in aligners}
    speedup = {
        name: statistics.median(p[name] / p["genasm-improved"] for p in passes)
        for name in aligners
    }

    rows = [
        {
            "id": "E1a_cpu_vs_ksw2",
            "metric": "improved GenASM (CPU) speedup over KSW2",
            "paper": PAPER_CLAIMS["E1a_cpu_vs_ksw2"],
            "measured": speedup["ksw2-like"],
        },
        {
            "id": "E1b_cpu_vs_edlib",
            "metric": "improved GenASM (CPU) speedup over Edlib",
            "paper": PAPER_CLAIMS["E1b_cpu_vs_edlib"],
            "measured": speedup["edlib-like"],
        },
        {
            "id": "E1c_cpu_vs_baseline_genasm",
            "metric": "improved GenASM (CPU) speedup over baseline GenASM (CPU)",
            "paper": PAPER_CLAIMS["E1c_cpu_vs_baseline_genasm"],
            "measured": speedup["genasm-baseline"],
        },
    ]
    for row in rows:
        row["pairs"] = len(pairs)
        row["timings_seconds"] = dict(timings)
    return rows


# --------------------------------------------------------------------------- #
# E2 — GPU speedups (execution model, composed with E1 where the paper
#      compares the GPU against CPU baselines)
# --------------------------------------------------------------------------- #
def run_gpu_speed_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
    cpu_rows: Optional[List[Dict[str, object]]] = None,
) -> List[Dict[str, object]]:
    """E2: GPU speedups over the CPU implementation, KSW2, Edlib, baseline GPU.

    GPU-vs-GPU and GPU-vs-CPU(GenASM) ratios come from the execution model
    (identical functional results, roofline timing on the paper's A6000 and
    Xeon specs).  GPU-vs-KSW2 and GPU-vs-Edlib compose the modelled
    GPU-vs-CPU(GenASM) ratio with the *measured* CPU ratios from E1, since
    mixing modelled seconds with measured Python seconds directly would be
    meaningless.
    """
    workload = workload or default_workload()
    config = config or GenASMConfig()
    pairs = workload.pairs
    multiplier = workload.scale_to_paper

    improved_kernel = GenASMKernelSpec(config, name="genasm-gpu-improved")
    baseline_kernel = GenASMKernelSpec(GenASMConfig.baseline(), name="genasm-gpu-baseline")

    improved_profiles = improved_kernel.profile_batch(pairs)
    baseline_profiles = baseline_kernel.profile_batch(pairs)

    gpu = GpuSimulator(A6000)
    cpu = CpuModel(XEON_GOLD_5118)
    gpu_improved = gpu.simulate(
        pairs, improved_kernel, profiles=improved_profiles, workload_multiplier=multiplier
    )
    gpu_baseline = gpu.simulate(
        pairs, baseline_kernel, profiles=baseline_profiles, workload_multiplier=multiplier
    )
    cpu_improved = cpu.simulate(
        pairs, improved_kernel, profiles=improved_profiles, workload_multiplier=multiplier
    )

    gpu_vs_cpu = gpu_improved.speedup_over(cpu_improved)
    gpu_vs_baseline_gpu = gpu_improved.speedup_over(gpu_baseline)

    cpu_rows = cpu_rows or run_cpu_speed_experiment(workload, config=config)
    cpu_lookup = {row["id"]: float(row["measured"]) for row in cpu_rows}

    rows = [
        {
            "id": "E2a_gpu_vs_cpu",
            "metric": "improved GenASM (GPU) speedup over improved GenASM (CPU)",
            "paper": PAPER_CLAIMS["E2a_gpu_vs_cpu"],
            "measured": gpu_vs_cpu,
        },
        {
            "id": "E2b_gpu_vs_ksw2",
            "metric": "improved GenASM (GPU) speedup over KSW2 (CPU)",
            "paper": PAPER_CLAIMS["E2b_gpu_vs_ksw2"],
            "measured": gpu_vs_cpu * cpu_lookup["E1a_cpu_vs_ksw2"],
        },
        {
            "id": "E2c_gpu_vs_edlib",
            "metric": "improved GenASM (GPU) speedup over Edlib (CPU)",
            "paper": PAPER_CLAIMS["E2c_gpu_vs_edlib"],
            "measured": gpu_vs_cpu * cpu_lookup["E1b_cpu_vs_edlib"],
        },
        {
            "id": "E2d_gpu_vs_baseline_gpu",
            "metric": "improved GenASM (GPU) speedup over baseline GenASM (GPU)",
            "paper": PAPER_CLAIMS["E2d_gpu_vs_baseline_gpu"],
            "measured": gpu_vs_baseline_gpu,
        },
    ]
    details = {
        "gpu_improved": gpu_improved.summary(),
        "gpu_baseline": gpu_baseline.summary(),
        "cpu_improved": cpu_improved.summary(),
        "baseline_dp_in_shared": gpu_baseline.dp_in_shared,
        "improved_dp_in_shared": gpu_improved.dp_in_shared,
    }
    for row in rows:
        row["pairs"] = len(pairs)
        row["details"] = details
    return rows


# --------------------------------------------------------------------------- #
# E3 — memory footprint reduction
# --------------------------------------------------------------------------- #
def run_memory_footprint_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
) -> List[Dict[str, object]]:
    """E3: per-window DP footprint of baseline vs. improved GenASM.

    Reports both the analytic model (with the average number of DP rows the
    improved algorithm actually evaluated on the workload) and the measured
    peak per-window stored bytes of the two implementations.
    """
    workload = workload or default_workload(max_pairs=8)
    config = config or GenASMConfig()
    pairs = workload.pairs

    improved = GenASMAligner(config, name="genasm-improved")
    baseline = GenASMAligner(GenASMConfig.baseline(), name="genasm-baseline")

    improved_peaks: List[float] = []
    baseline_peaks: List[float] = []
    rows_used: List[float] = []
    for pattern, text in pairs:
        a_imp = improved.align(pattern, text)
        a_base = baseline.align(pattern, text)
        improved_peaks.append(a_imp.metadata["peak_window_bytes"])
        baseline_peaks.append(a_base.metadata["peak_window_bytes"])
        rows_used.append(a_imp.metadata["rows_computed"] / max(1, a_imp.metadata["windows"]))

    avg_rows = sum(rows_used) / max(1, len(rows_used))
    model = MemoryFootprint.from_config(config, rows_used=int(round(avg_rows)))
    measured_reduction = (sum(baseline_peaks) / len(baseline_peaks)) / max(
        1.0, sum(improved_peaks) / len(improved_peaks)
    )

    return [
        {
            "id": "E3_footprint_reduction",
            "metric": "DP-table memory-footprint reduction (baseline / improved)",
            "paper": PAPER_CLAIMS["E3_footprint_reduction"],
            "measured": measured_reduction,
            "model_reduction": model.reduction_factor,
            "baseline_bytes_per_window": model.baseline_bytes,
            "improved_bytes_per_window": model.improved_bytes,
            "avg_rows_used": avg_rows,
            "pairs": len(pairs),
        }
    ]


# --------------------------------------------------------------------------- #
# E4 — memory access reduction
# --------------------------------------------------------------------------- #
def run_memory_access_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
) -> List[Dict[str, object]]:
    """E4: DP-table accesses (and bytes) of baseline vs. improved GenASM."""
    workload = workload or default_workload(max_pairs=8)
    config = config or GenASMConfig()
    pairs = workload.pairs

    improved = GenASMAligner(config, name="genasm-improved")
    baseline = GenASMAligner(GenASMConfig.baseline(), name="genasm-baseline")

    improved_counter = AccessCounter()
    baseline_counter = AccessCounter()
    for pattern, text in pairs:
        improved.align(pattern, text, counter=improved_counter)
        baseline.align(pattern, text, counter=baseline_counter)

    access_reduction = baseline_counter.total_accesses / max(1, improved_counter.total_accesses)
    byte_reduction = baseline_counter.total_bytes / max(1, improved_counter.total_bytes)
    return [
        {
            "id": "E4_access_reduction",
            "metric": "DP-table memory-access reduction (baseline / improved)",
            "paper": PAPER_CLAIMS["E4_access_reduction"],
            "measured": byte_reduction,
            "access_count_reduction": access_reduction,
            "baseline_accesses": baseline_counter.total_accesses,
            "improved_accesses": improved_counter.total_accesses,
            "baseline_bytes": baseline_counter.total_bytes,
            "improved_bytes": improved_counter.total_bytes,
            "pairs": len(pairs),
        }
    ]


# --------------------------------------------------------------------------- #
# E5 — accuracy / equivalence
# --------------------------------------------------------------------------- #
def run_accuracy_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
    oracle_limit: int = 2_000,
) -> List[Dict[str, object]]:
    """E5: improved GenASM ≡ baseline GenASM, and both match the DP optimum.

    Pairs whose pattern is short enough (``oracle_limit``) are also checked
    against the full Needleman–Wunsch optimum; the fraction of pairs where
    the windowed heuristic attains the optimum is reported.
    """
    workload = workload or default_workload(max_pairs=8)
    config = config or GenASMConfig()
    pairs = workload.pairs

    improved = GenASMAligner(config, name="genasm-improved")
    baseline = GenASMAligner(GenASMConfig.baseline(), name="genasm-baseline")
    edlib = EdlibLikeAligner("prefix")

    identical = 0
    optimal = 0
    oracle_checked = 0
    for pattern, text in pairs:
        a_imp = improved.align(pattern, text)
        a_base = baseline.align(pattern, text)
        a_imp.validate()
        a_base.validate()
        if a_imp.edit_distance == a_base.edit_distance:
            identical += 1
        if len(pattern) <= oracle_limit:
            oracle_checked += 1
            optimum = edlib.align(pattern, text).edit_distance
            if a_imp.edit_distance == optimum:
                optimal += 1

    return [
        {
            "id": "E5_accuracy",
            "metric": "fraction of pairs where improved ≡ baseline GenASM",
            "paper": PAPER_CLAIMS["E5_accuracy"],
            "measured": identical / max(1, len(pairs)),
            "optimal_fraction": optimal / max(1, oracle_checked),
            "oracle_checked": oracle_checked,
            "pairs": len(pairs),
        }
    ]


# --------------------------------------------------------------------------- #
# A1 — per-improvement ablation
# --------------------------------------------------------------------------- #
def run_ablation_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
) -> List[Dict[str, object]]:
    """A1: contribution of each of the three improvements in isolation."""
    workload = workload or default_workload(max_pairs=6)
    base_config = config or GenASMConfig()
    pairs = workload.pairs

    variants = {
        "baseline": GenASMConfig.baseline(),
        "entry_compression_only": GenASMConfig.baseline().with_improvements(entry_compression=True),
        "early_termination_only": GenASMConfig.baseline().with_improvements(early_termination=True),
        "traceback_band_only": GenASMConfig.baseline().with_improvements(traceback_band=True),
        "all_improvements": base_config,
    }

    baseline_counter = AccessCounter()
    baseline_aligner = GenASMAligner(variants["baseline"])
    baseline_peak = 0.0
    baseline_seconds = _time_batch(
        lambda p, t: baseline_aligner.align(p, t, counter=baseline_counter), pairs
    )
    for pattern, text in pairs[:2]:
        baseline_peak = max(
            baseline_peak, baseline_aligner.align(pattern, text).metadata["peak_window_bytes"]
        )

    rows: List[Dict[str, object]] = []
    for name, variant in variants.items():
        counter = AccessCounter()
        aligner = GenASMAligner(variant, name=name)
        seconds = _time_batch(lambda p, t: aligner.align(p, t, counter=counter), pairs)
        peak = max(
            aligner.align(pattern, text).metadata["peak_window_bytes"]
            for pattern, text in pairs[:2]
        )
        rows.append(
            {
                "id": f"A1_{name}",
                "metric": f"ablation: {name}",
                "paper": float("nan"),
                "measured": baseline_counter.total_bytes / max(1, counter.total_bytes),
                "access_reduction": baseline_counter.total_accesses / max(1, counter.total_accesses),
                "footprint_reduction": baseline_peak / max(1.0, peak),
                "speedup_vs_baseline": baseline_seconds / max(1e-9, seconds),
                "pairs": len(pairs),
            }
        )
    return rows

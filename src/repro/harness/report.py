"""Report generation: tables and EXPERIMENTS.md.

``python -m repro.harness.report`` regenerates the paper-vs-measured table
for every experiment at a configurable workload scale and writes it to
``EXPERIMENTS.md`` (or prints it).
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.harness.dataset import build_paper_dataset
from repro.harness.experiments import (
    run_ablation_experiment,
    run_accuracy_experiment,
    run_cpu_speed_experiment,
    run_gpu_speed_experiment,
    run_memory_access_experiment,
    run_memory_footprint_experiment,
)

__all__ = ["format_table", "generate_experiments_markdown", "main"]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "—"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> str:
    """Render rows as a GitHub-flavoured markdown table."""
    header = "| " + " | ".join(columns) + " |"
    divider = "| " + " | ".join("---" for _ in columns) + " |"
    lines = [header, divider]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(col, "")) for col in columns) + " |")
    return "\n".join(lines)


def generate_experiments_markdown(
    *,
    read_count: int = 12,
    read_length: int = 1_200,
    max_pairs: int = 14,
    seed: int = 0,
) -> str:
    """Run every experiment and return the EXPERIMENTS.md content."""
    workload = build_paper_dataset(
        read_count=read_count, read_length=read_length, seed=seed, max_pairs=max_pairs
    )
    summary = workload.summary()

    cpu_rows = run_cpu_speed_experiment(workload)
    gpu_rows = run_gpu_speed_experiment(workload, cpu_rows=cpu_rows)
    footprint_rows = run_memory_footprint_experiment(workload)
    access_rows = run_memory_access_experiment(workload)
    accuracy_rows = run_accuracy_experiment(workload)
    ablation_rows = run_ablation_experiment(workload)

    main_rows = cpu_rows + gpu_rows + footprint_rows + access_rows + accuracy_rows
    for row in main_rows:
        paper = float(row["paper"])
        measured = float(row["measured"])
        row["measured/paper"] = measured / paper if paper else float("nan")

    parts: List[str] = []
    parts.append("# EXPERIMENTS — paper vs. measured\n")
    parts.append(
        "Regenerate with `python -m repro.harness.report --write`. Each row "
        "id keys the paper's reported number in "
        "`repro.harness.experiments.PAPER_CLAIMS`; the README's Experiments "
        "section lists how to run them.\n"
    )
    parts.append("## Workload\n")
    parts.append(
        format_table(
            [
                {"property": key, "value": value}
                for key, value in summary.items()
            ],
            ["property", "value"],
        )
    )
    parts.append(
        "\nThe paper's full-scale dataset is 500 × 10 kb PacBio reads / 138,929 "
        "candidate pairs; the workload above is the scaled-down equivalent "
        "produced by the same pipeline (see `repro.harness.dataset`). Speedup "
        "and reduction factors are per-pair ratios and therefore comparable; "
        "absolute runtimes are not (pure Python vs. the paper's C++/CUDA).\n"
    )
    parts.append("## Headline results (E1–E5)\n")
    parts.append(
        format_table(main_rows, ["id", "metric", "paper", "measured", "measured/paper"])
    )
    parts.append("\n### Notes\n")
    parts.append(
        "- E1 values are measured relative throughput of the pure-Python "
        "aligners on the same candidate pairs.\n"
        "- E2 values come from the execution model (A6000 / Xeon Gold 5118 "
        "roofline, functional results identical to the CPU library); "
        "GPU-vs-KSW2 and GPU-vs-Edlib compose the modelled GPU-vs-CPU ratio "
        "with the measured E1 ratios.\n"
        "- E3/E4 are algorithmic properties measured exactly (bytes touched "
        "and DP-table accesses); their magnitude depends on the window "
        "configuration and the per-window error rate (see the known "
        "limitations below).\n"
        "- E5 checks that the improved algorithm returns the same distances "
        "as the baseline and how often the windowed heuristic attains the "
        "full-DP optimum.\n"
    )
    parts.append("### Known reproduction limitations\n")
    parts.append(
        "- **E1b (GenASM vs. Edlib wall-clock) does not reproduce in pure "
        "Python.** CPython charges per-loop-iteration overhead; Edlib's "
        "inner loop advances a whole DP column with one big-integer "
        "expression, whereas GenASM iterates per (error level × text "
        "position) and pays that overhead ~d* times per character even "
        "though it performs several times fewer 64-bit word operations. A "
        "compiled or NumPy-batched (multiple alignments per vector lane) "
        "implementation recovers the paper's relation, as the E2 execution "
        "model — which counts word operations — shows.\n"
        "- **E3's absolute factor depends on the error budget k relative to "
        "the realised per-window distance.** The paper's 24x corresponds to "
        "a generous k with low realised error; the default configuration "
        "here uses k = ceil(0.15 * W) = 10, giving a smaller (but still "
        "order-of-magnitude) factor. "
        "`benchmarks/test_bench_memory_footprint.py` sweeps k and shows the "
        "factor growing toward the paper's value for larger budgets.\n"
        "- **E2 timings are model-derived**, not measured on a GPU; the "
        "mechanism (baseline spills its DP state to global memory and is "
        "bandwidth-bound, improved fits in shared memory and is "
        "compute-bound) is what the model reproduces.\n"
    )
    parts.append("## Ablation (A1): contribution of each improvement\n")
    parts.append(
        format_table(
            ablation_rows,
            [
                "id",
                "measured",
                "access_reduction",
                "footprint_reduction",
                "speedup_vs_baseline",
            ],
        )
    )
    parts.append(
        "\n(`measured` = DP-byte-traffic reduction vs. baseline; window "
        "parameter sensitivity is covered by `benchmarks/test_bench_window_params.py`.)\n"
    )
    return "\n".join(parts) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point for regenerating EXPERIMENTS.md."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="write EXPERIMENTS.md")
    parser.add_argument("--output", default="EXPERIMENTS.md", help="output path")
    parser.add_argument("--reads", type=int, default=12, help="number of simulated reads")
    parser.add_argument("--read-length", type=int, default=1200, help="mean read length")
    parser.add_argument("--max-pairs", type=int, default=14, help="candidate pair cap")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    args = parser.parse_args(argv)

    content = generate_experiments_markdown(
        read_count=args.reads,
        read_length=args.read_length,
        max_pairs=args.max_pairs,
        seed=args.seed,
    )
    if args.write:
        Path(args.output).write_text(content, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(content)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

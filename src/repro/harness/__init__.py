"""Experiment harness: dataset construction, experiments E1–E5, reporting."""

from repro.harness.dataset import AlignmentWorkload, build_paper_dataset
from repro.harness.experiments import (
    PAPER_CLAIMS,
    run_accuracy_experiment,
    run_ablation_experiment,
    run_cpu_speed_experiment,
    run_gpu_speed_experiment,
    run_memory_access_experiment,
    run_memory_footprint_experiment,
)
from repro.harness.grid import ExperimentGrid, GridCell, GridRunner
from repro.harness.report import format_table, generate_experiments_markdown

__all__ = [
    "AlignmentWorkload",
    "build_paper_dataset",
    "ExperimentGrid",
    "GridCell",
    "GridRunner",
    "PAPER_CLAIMS",
    "run_cpu_speed_experiment",
    "run_gpu_speed_experiment",
    "run_memory_footprint_experiment",
    "run_memory_access_experiment",
    "run_accuracy_experiment",
    "run_ablation_experiment",
    "format_table",
    "generate_experiments_markdown",
]

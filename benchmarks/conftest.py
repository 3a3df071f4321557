"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's reported results (each row
id keys the paper's number in ``repro.harness.experiments.PAPER_CLAIMS``;
the README's "Experiments" section lists how to run them).  The workload is the scaled-down equivalent of the paper's
dataset produced by the same pipeline; its size is chosen so the whole
benchmark suite completes in a few minutes of pure-Python execution while
still containing multi-window long-read alignments.
"""

from __future__ import annotations

import pytest

from repro.harness.dataset import AlignmentWorkload, build_paper_dataset


def pytest_configure(config):
    config.addinivalue_line("markers", "bench: benchmark reproducing a paper result")


@pytest.fixture(scope="session")
def workload() -> AlignmentWorkload:
    """Candidate (read, reference) pairs from the scaled paper pipeline."""
    return build_paper_dataset(read_count=10, read_length=1_000, seed=0, max_pairs=10)


@pytest.fixture(scope="session")
def small_workload() -> AlignmentWorkload:
    """A smaller slice for the quadratic-time KSW2 baseline benchmarks."""
    return build_paper_dataset(read_count=6, read_length=700, seed=1, max_pairs=6)


def report_rows(benchmark, rows, keys=("id", "metric", "paper", "measured")):
    """Attach experiment rows to the benchmark record and echo them."""
    for row in rows:
        label = row.get("id", "row")
        benchmark.extra_info[label] = {
            k: (round(v, 3) if isinstance(v, float) else v)
            for k, v in row.items()
            if k in keys or k in ("paper", "measured")
        }
    header = " | ".join(str(k) for k in keys)
    print("\n" + header)
    for row in rows:
        print(" | ".join(str(round(row[k], 3) if isinstance(row.get(k), float) else row.get(k, "")) for k in keys))

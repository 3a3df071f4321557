#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload short_read --seed 1 --seconds 20 --trace 0

Three processes run in turn, each on the files the one before wrote into
a work directory under ``.perfbench_work/`` (removed afterwards):

1. :mod:`perfbench.inputs` writes the seeded reference, reads and, for the
   service, the tenant of each request;
2. :mod:`perfbench.measure` sets the program up, measures it for
   ``--seconds`` and records its outputs — the only process whose time and
   memory are reported;
3. :mod:`perfbench.check` checks those outputs.

The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``, named as ``BENCHMARK.json`` lists
them.  The lines before it say how each figure was taken.  This file
imports only the standard library and the benchmark's light helpers; it
never loads the program, and the measured process is a child of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import declared_metrics  # noqa: E402
from perfbench.stats import failed_frac  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Every run ends within this many seconds, whatever its children do.
BUDGET_SECONDS = 175.0


class StepFailed(Exception):
    pass


def run_step(module: str, arguments: list, deadline: float) -> None:
    """Run one benchmark process to completion, or kill it at ``deadline``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        completed = subprocess.run(
            [sys.executable, "-m", module, *map(str, arguments)],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as error:
        raise StepFailed(f"{module} did not finish in time") from error
    if completed.returncode != 0:
        raise StepFailed(f"{module} exited with code {completed.returncode}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_SECONDS
    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    )
    work.mkdir(parents=True, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", args.seed]
        run_step("perfbench.inputs", [*common, "--out", work], deadline)
        run_step(
            "perfbench.measure",
            [*common, "--seconds", args.seconds, "--trace", args.trace, "--dir", work],
            deadline,
        )
        run_step("perfbench.check", ["--workload", args.workload, "--dir", work], deadline)
        with open(work / "measure.json", encoding="ascii") as handle:
            measured = json.load(handle)
        with open(work / "verdict.json", encoding="ascii") as handle:
            verdict = json.load(handle)
    except StepFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = verdict["attempted"]
    if attempted < 1:
        print("benchmark failed: no operation was attempted", file=sys.stderr)
        return 1
    failed = min(verdict["failed"], attempted)
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(measured["metrics"]))
    if missing:
        print(f"benchmark failed: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": measured["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in measured["lines"] + verdict["lines"]:
        print(f"  {line}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':32s} {failed_frac(failed, attempted):>14.6g} ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

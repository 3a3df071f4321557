#!/usr/bin/env python3
"""Run a workload on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload short_read --seeds 1-10 --seconds 20

For every metric it prints the median over the runs and the distance
between the first and third quartiles as a share of that median — the
figure ``BENCHMARK.json``'s ``bound`` has to cover.  Runs are made one
after another, never in parallel, so they do not compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, quartile_spread  # noqa: E402


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values = defaultdict(list)
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        summary = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {summary}", flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) >= 2 and median(series) else float("nan")
        print(f"{name:32s} median {median(series):>12.6g}  spread {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

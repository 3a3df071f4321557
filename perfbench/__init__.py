"""End-to-end benchmark of the GenASM reproduction (see ``README.md`` here).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` generates seeded inputs, runs the program on them through
its public entry points, checks the outputs and prints one JSON result
line.  The modules:

* :mod:`perfbench.workloads` — the three workloads and their parameters;
* :mod:`perfbench.inputs` — seeded input files (run in its own process);
* :mod:`perfbench.measure` — the measured process (set-up, timed runs,
  and the traced run);
* :mod:`perfbench.layers` — the outside-in layer trace;
* :mod:`perfbench.check` — the correctness verdict (its own process);
* :mod:`perfbench.stats` — percentile and failure-count rules;
* :mod:`perfbench.hostspeed` — host-speed probes and the clock that
  reports batch timings at nominal host speed;
* ``steadiness.py`` — runs a workload on several seeds and prints each
  metric's spread.

The metric names and units are the ones ``BENCHMARK.json`` lists; they
are read from it, never restated here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_metrics(section: str) -> Dict[str, str]:
    """Name → unit of each metric ``BENCHMARK.json`` lists under ``section``
    (``"end_to_end"`` or ``"per_layer"``), in its order."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def exact_counts() -> Tuple[str, ...]:
    """Per-layer counts that repeat exactly for a given seed on the batch
    workloads, whose waves are cut by size, never by time.  On the service
    they depend on timing, as do the service and load-generator figures."""
    return tuple(
        name
        for name, unit in declared_metrics("per_layer").items()
        if unit in ("count", "B") and not name.startswith(("service.", "loadgen."))
    )

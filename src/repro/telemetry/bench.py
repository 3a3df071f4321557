"""Perf-trajectory recorder: validate, append and trend ``BENCH_*.json``.

``BENCH_pipeline.json`` is the repo's checked-in performance memory: the
grid smoke (``examples/e4_grid_smoke.py``) appends one row per grid cell
to its ``grid_history``, so speed is tracked *over time*, not just gated
per run.  :class:`BenchRecorder` owns the load / append / save loop:

* **Schema validation** (:func:`validate_bench`) — the file must be a
  JSON object whose ``*history`` keys hold lists of flat row objects,
  each with an ISO-ish ``date`` string and scalar fields only.
  Validation is deliberately tolerant of *extra* keys so the trajectory
  can grow new sections without schema churn.
* **Provenance-stamped appends** (:meth:`BenchRecorder.append`) — every
  row gets a ``date``, the current ``git_sha``, the host's ``cpu_count``
  and, when a config object is supplied, a short ``config_fingerprint``
  (:func:`config_fingerprint`), so any history row can be traced back to
  the exact code, configuration and core count that produced it.
  Histories stay bounded (``limit`` newest rows kept).
* **Per-cell trend deltas** (:meth:`BenchRecorder.trend`) — a cell's
  latest value of a numeric field compared against the mean of that
  cell's earlier rows; rows of other cells (:data:`CELL_FIELDS`) never
  enter the window.

Throughput floors live with the grid gates that declare them
(:class:`repro.harness.grid.ExperimentGrid`).

Run ``python -m repro.telemetry.bench [path]`` to validate a bench file
and print one trend per cell (exits non-zero on schema violations).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "BenchRecorder",
    "BenchSchemaError",
    "config_fingerprint",
    "git_sha",
    "validate_bench",
]

#: Rows retained per history by default.
DEFAULT_HISTORY_LIMIT = 50

#: ``date`` rows must at least lead with an ISO date (appends write
#: ``%Y-%m-%dT%H:%M:%S``; a bare date is accepted too).
_DATE_PATTERN = re.compile(r"^\d{4}-\d{2}-\d{2}([T ].*)?$")

_SCALAR = (str, int, float, bool, type(None))

#: Row fields naming one grid cell; a trend compares a row only with
#: earlier rows that agree on all of them.
CELL_FIELDS = ("grid", "workload", "backend", "window_size", "wave_size")

#: The throughput field the CLI trends, one line per cell.
TREND_FIELD = "pairs_per_second"


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cell_of(row: Mapping[str, object]) -> Tuple[object, ...]:
    """The cell a history row belongs to: its :data:`CELL_FIELDS` values."""
    return tuple(row.get(name) for name in CELL_FIELDS)


class BenchSchemaError(ValueError):
    """A bench file violated the trajectory schema; ``problems`` lists how."""

    def __init__(self, problems: List[str]) -> None:
        self.problems = list(problems)
        super().__init__(
            "bench file failed schema validation:\n  - " + "\n  - ".join(problems)
        )


def _check_row(path: str, row: object, problems: List[str]) -> None:
    if not isinstance(row, dict):
        problems.append(f"{path}: history row must be an object, got {type(row).__name__}")
        return
    date = row.get("date")
    if not isinstance(date, str) or not _DATE_PATTERN.match(date):
        problems.append(f"{path}: row needs an ISO 'date' string, got {date!r}")
    for key, value in row.items():
        if not isinstance(value, _SCALAR):
            problems.append(
                f"{path}.{key}: history fields must be scalars, got {type(value).__name__}"
            )


def validate_bench(data: object) -> None:
    """Raise :class:`BenchSchemaError` unless ``data`` fits the bench schema.

    The top level must be a JSON object, and every key ending in
    ``history`` (at any depth) must hold a list of flat row objects, each
    with an ISO-ish ``date`` and scalar-only fields.  Unknown keys are
    allowed everywhere, so the trajectory can grow new sections without
    schema edits.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        raise BenchSchemaError(
            [f"top level must be an object, got {type(data).__name__}"]
        )

    def walk(path: str, node: object) -> None:
        if not isinstance(node, dict):
            return
        for key, value in node.items():
            here = f"{path}.{key}" if path else key
            if key.endswith("history"):
                if not isinstance(value, list):
                    problems.append(f"{here}: must be a list of rows")
                    continue
                for index, row in enumerate(value):
                    _check_row(f"{here}[{index}]", row, problems)
            elif isinstance(value, dict):
                walk(here, value)

    walk("", data)
    if problems:
        raise BenchSchemaError(problems)


# --------------------------------------------------------------------------- #
def git_sha(root: Optional[Union[str, Path]] = None) -> str:
    """Short git SHA of ``root`` (``"unknown"`` outside a repo / without git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def config_fingerprint(config: object) -> str:
    """Short stable digest of a configuration object.

    Accepts dataclasses (e.g. :class:`~repro.core.config.GenASMConfig`),
    plain dicts, or anything with a ``__dict__``; the fingerprint is the
    first 12 hex chars of the SHA-1 of the sorted-key JSON rendering, so
    two rows fingerprint equal iff every config field matched.
    """
    if is_dataclass(config) and not isinstance(config, type):
        payload = asdict(config)
    elif isinstance(config, dict):
        payload = config
    elif hasattr(config, "__dict__"):
        payload = {k: v for k, v in vars(config).items() if not k.startswith("_")}
    else:
        payload = {"value": repr(config)}
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]


class BenchRecorder:
    """Load/validate/append/save loop over one ``BENCH_*.json`` trajectory.

    ``BenchRecorder(path)`` loads and validates immediately; mutate via
    :meth:`append` and persist with :meth:`save` (which re-validates, so
    a recorder can never write a file the CI schema check would reject).
    ``data`` is the live dict for read access.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.data: Dict[str, object] = json.loads(self.path.read_text())
        validate_bench(self.data)

    # ------------------------------------------------------------------ #
    def append(
        self,
        key: str,
        row: Dict[str, object],
        *,
        config: Optional[object] = None,
        limit: int = DEFAULT_HISTORY_LIMIT,
    ) -> Dict[str, object]:
        """Append one provenance-stamped row to ``key``.

        The stored row is ``row`` plus ``date`` (now; kept if the caller
        already set one), ``git_sha``, ``cpu_count`` (:func:`os.cpu_count`,
        so rows from hosts of different core counts stay apart) and — when
        ``config`` is given — ``config_fingerprint``.  The history is
        truncated to the newest ``limit`` rows.  Returns the stored row.
        """
        if not key.endswith("history"):
            raise ValueError(
                f"history keys end in 'history' (schema contract), got {key!r}"
            )
        stored: Dict[str, object] = {
            "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "git_sha": git_sha(self.path.parent),
            "cpu_count": os.cpu_count(),
        }
        if config is not None:
            stored["config_fingerprint"] = config_fingerprint(config)
        stored.update(row)
        history = self.data.setdefault(key, [])
        if not isinstance(history, list):
            raise BenchSchemaError([f"{key}: must be a list of rows"])
        history.append(stored)
        self.data[key] = history[-limit:]
        _check_row(key, stored, problems := [])
        if problems:
            raise BenchSchemaError(problems)
        return stored

    def save(self) -> None:
        """Re-validate and write the trajectory back (2-space indent + \\n)."""
        validate_bench(self.data)
        self.path.write_text(json.dumps(self.data, indent=2) + "\n")

    # ------------------------------------------------------------------ #
    def history(self, key: str) -> List[Dict[str, object]]:
        value = self.data.get(key, [])
        return value if isinstance(value, list) else []

    def trend(
        self,
        key: str,
        field: str,
        *,
        cell: Optional[Mapping[str, object]] = None,
        window: int = 5,
    ) -> Optional[Dict[str, float]]:
        """One cell's latest value of ``field`` vs that cell's trailing mean.

        A cell is the rows that agree on every :data:`CELL_FIELDS` value;
        ``cell`` is any row of the cell to trend and defaults to the
        history's newest row.  Rows of other cells never enter the window,
        so a grid's serial and streaming rows are not averaged together.
        Returns ``{"latest", "trailing_mean", "delta", "ratio", "rows"}``
        where ``delta = latest - trailing_mean`` and ``ratio`` is their
        quotient — or ``None`` when fewer than two of the cell's rows
        carry the field (no trailing window to compare against).
        """
        rows = [row for row in self.history(key) if isinstance(row, dict)]
        if not rows:
            return None
        wanted = cell_of(rows[-1] if cell is None else cell)
        values = [
            float(row[field])
            for row in rows
            if cell_of(row) == wanted and _is_number(row.get(field))
        ]
        if len(values) < 2:
            return None
        latest = values[-1]
        trailing = values[-(window + 1) : -1]
        mean = sum(trailing) / len(trailing)
        return {
            "latest": latest,
            "trailing_mean": mean,
            "delta": latest - mean,
            "ratio": (latest / mean) if mean else float("inf"),
            "rows": float(len(trailing)),
        }


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    """CLI: validate a bench file and print its trajectories."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Validate a BENCH_*.json perf trajectory and print trends."
    )
    parser.add_argument(
        "path",
        nargs="?",
        default="BENCH_pipeline.json",
        help="bench file to validate (default: BENCH_pipeline.json)",
    )
    args = parser.parse_args(argv)
    try:
        recorder = BenchRecorder(args.path)
    except FileNotFoundError:
        print(f"bench file not found: {args.path}")
        return 2
    except (json.JSONDecodeError, BenchSchemaError) as error:
        print(f"INVALID: {args.path}")
        print(str(error))
        return 1
    print(f"OK: {args.path} validates")
    for key in sorted(recorder.data):
        if not key.endswith("history"):
            continue
        rows = [row for row in recorder.history(key) if isinstance(row, dict)]
        latest = {cell_of(row): row for row in rows}
        print(f"  {key}: {len(rows)} rows, {len(latest)} cells")
        for cell, row in latest.items():
            label = "/".join(str(value) for value in cell if value is not None) or "-"
            if not _is_number(row.get(TREND_FIELD)):
                print(f"    {label}: no {TREND_FIELD}")
                continue
            trend = recorder.trend(key, TREND_FIELD, cell=row)
            if trend is None:
                print(
                    f"    {label}: {TREND_FIELD} {row[TREND_FIELD]:g} "
                    "(no trailing window yet)"
                )
            else:
                print(
                    f"    {label}: {TREND_FIELD} {trend['latest']:g} "
                    f"(trailing mean {trend['trailing_mean']:g}, n={trend['rows']:g}, "
                    f"delta {trend['delta']:+g})"
                )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI step
    raise SystemExit(main())

"""Declarative experiment-grid runner with a persistent perf trajectory.

An experiment here is a config, not a script (py_experimenter-style):

* :class:`ExperimentGrid` — the declarative spec: named workloads
  (:func:`~repro.harness.dataset.build_paper_dataset` parameters) crossed
  with execution backends, GenASM window sizes and wave sizes.  Build one
  in code or from a plain dict/JSON via :meth:`ExperimentGrid.from_dict`.
  A misdeclared spec (unknown backend, repeated or non-positive size, a
  gate selector that does not name exactly one cell, a missing floor) is
  rejected at construction, before anything runs or is saved.
* :class:`GridRunner` — runs every cell :data:`TRIALS` times, checks every
  trial's alignments against the vectorized reference path (the
  backends' equivalence contract — a fast cell that returns different
  CIGARs is a bug, not a win), and appends one provenance-stamped row per
  cell (date, git SHA, config fingerprint; median, min and max seconds) to
  the ``grid_history`` of a ``BENCH_*.json`` trajectory through
  :class:`repro.telemetry.bench.BenchRecorder`.
* the **gates** — a grid may declare throughput ratios between pairs of
  its cells, each with its own floor (e.g. shared vs vectorized on the
  same workload must stay at or above 0.72); :meth:`GridRunner.check`
  reports every gate, and the grid smoke fails on any of them.

Example::

    grid = ExperimentGrid.from_dict({
        "name": "e4_smoke",
        "workloads": {"long_read": {"read_count": 12, "read_length": 600}},
        "backends": ["serial", "vectorized", "shared"],
        "window_sizes": [64],
        "wave_sizes": [128],
        "gates": [{
            "metric": "pairs_per_second",
            "cell": {"backend": "vectorized"},
            "reference_cell": {"backend": "serial"},
            "floor": 0.55,
        }],
    })
    rows = GridRunner(grid, "BENCH_pipeline.json").run()

Cells with the ``shared`` backend start worker processes, so a script that
runs such a grid needs an ``if __name__ == "__main__":`` guard.
"""

from __future__ import annotations

import statistics
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.alignment import Alignment
from repro.core.config import GenASMConfig
from repro.harness.dataset import AlignmentWorkload, build_paper_dataset
from repro.telemetry.bench import CELL_FIELDS, BenchRecorder

__all__ = ["ExperimentGrid", "GridRunner", "GridCell"]

#: Axis names, in the (deterministic) order cells are enumerated: the bench
#: rows' cell fields after the grid name.
GRID_AXES = CELL_FIELDS[1:]

#: Backends a cell may name; each is one batch call (see GridRunner._run_cell).
GRID_BACKENDS = ("serial", "vectorized", "shared", "streaming")

#: Backends whose batch call reads ``wave_size``; the others never do, so
#: they get one cell per workload × window, with ``wave_size`` ``None``.
WAVE_SIZED_BACKENDS = ("vectorized", "streaming")

#: Bench-file history every grid row is appended to.
HISTORY_KEY = "grid_history"

#: Timed runs per cell; rows report their median, min and max.
TRIALS = 3

#: Worker processes of the warm pool that ``shared`` cells run on.
SHARED_WORKERS = 2

_SPEC_KEYS = {"name", "workloads", "backends", "window_sizes", "wave_sizes", "gates"}

_GATE_KEYS = {"metric", "cell", "reference_cell", "floor"}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class GridCell:
    """One point of the sweep: workload × backend × window × wave size.

    ``wave_size`` is ``None`` for backends outside
    :data:`WAVE_SIZED_BACKENDS`.
    """

    workload: str
    backend: str
    window_size: int
    wave_size: Optional[int]

    def matches(self, selector: Mapping[str, object]) -> bool:
        """Whether this cell matches a (partial) axis-value selector."""
        return all(getattr(self, axis) == value for axis, value in selector.items())


@dataclass
class ExperimentGrid:
    """A declared experiment sweep (the config half of the runner).

    Attributes
    ----------
    name:
        Grid identifier, recorded in every row.
    workloads:
        ``{workload_name: build_paper_dataset kwargs}`` — each named
        workload is built once and shared by all its cells.
    backends:
        Execution backends to sweep, any of :data:`GRID_BACKENDS`:
        ``serial`` (the scalar :class:`~repro.core.aligner.GenASMAligner`),
        ``vectorized`` (the :class:`~repro.batch.BatchAlignmentEngine`),
        ``shared`` (that engine on a warm :data:`SHARED_WORKERS`-process
        :class:`~repro.parallel.pool.WorkerPool`, one per window size) or
        ``streaming`` (the :class:`~repro.pipeline.StreamingPipeline`).
        The ``shared`` label outlived the shared-memory handoff it once
        named: ``backend`` is one of the fields that group bench rows into
        trends, so a new label would cut that cell's history.  ``wave_size``
        reaches the vectorized engine as ``max_lanes`` and the streaming
        pipeline as its accumulator wave size; ``serial`` and ``shared``
        never read it, so each gets one cell per workload × window, with
        ``wave_size`` ``None``.
    window_sizes:
        GenASM ``window_size`` values; each derives a config via
        :meth:`config_for` (overlap clamped below the window).
    wave_sizes:
        Lanes per dispatched wave.
    gates:
        Declared throughput gates, each ``{"metric": <row field>, "cell":
        <selector>, "reference_cell": <selector>, "floor": <number>}``.  A
        gate holds when ``metric(cell) / metric(reference_cell) >= floor``;
        selectors are partial axis dicts that must match exactly one cell
        each.
    """

    name: str
    workloads: Dict[str, Dict[str, object]]
    backends: Sequence[str] = ("vectorized",)
    window_sizes: Sequence[int] = (64,)
    wave_sizes: Sequence[int] = (128,)
    gates: Sequence[Dict[str, object]] = ()
    base_config: GenASMConfig = field(default_factory=GenASMConfig)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("grid needs at least one workload")
        unknown = [backend for backend in self.backends if backend not in GRID_BACKENDS]
        if unknown:
            raise ValueError(
                f"unknown backends {unknown}; expected any of {list(GRID_BACKENDS)}"
            )
        for axis in ("backends", "window_sizes", "wave_sizes"):
            values = list(getattr(self, axis))
            if len(set(values)) != len(values):
                raise ValueError(f"{axis} repeats a value: {values}")
        for axis in ("window_sizes", "wave_sizes"):
            values = list(getattr(self, axis))
            if not all(_is_number(v) and isinstance(v, int) and v > 0 for v in values):
                raise ValueError(f"{axis} must be positive integers, got {values}")
        for gate in self.gates:
            missing = _GATE_KEYS - set(gate)
            if missing:
                raise ValueError(f"gate spec is missing {sorted(missing)}")
            if not _is_number(gate["floor"]) or not gate["floor"] > 0:
                raise ValueError(
                    f"gate floor must be a positive number, got {gate['floor']!r}"
                )
            self.select_cell(gate["cell"])
            self.select_cell(gate["reference_cell"])

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "ExperimentGrid":
        """Build a grid from a plain (JSON-friendly) mapping."""
        unknown = set(spec) - _SPEC_KEYS
        if unknown:
            raise ValueError(
                f"unknown grid spec keys {sorted(unknown)}; "
                f"expected a subset of {sorted(_SPEC_KEYS)}"
            )
        if "name" not in spec or "workloads" not in spec:
            raise ValueError("grid spec needs 'name' and 'workloads'")
        kwargs = dict(spec)
        kwargs["workloads"] = {
            str(name): dict(params) for name, params in dict(spec["workloads"]).items()
        }
        return cls(**kwargs)

    # ------------------------------------------------------------------ #
    def cells(self) -> List[GridCell]:
        """Every cell of the sweep, in deterministic axis order."""
        return [
            GridCell(workload, backend, int(window), wave)
            for workload, backend, window in product(
                self.workloads, self.backends, self.window_sizes
            )
            for wave in (
                [int(size) for size in self.wave_sizes]
                if backend in WAVE_SIZED_BACKENDS
                else [None]
            )
        ]

    def config_for(self, window_size: int) -> GenASMConfig:
        """The GenASM config of one window-size axis value."""
        overlap = min(self.base_config.window_overlap, max(0, window_size - 1))
        return replace(self.base_config, window_size=window_size, window_overlap=overlap)

    def select_cell(self, selector: Mapping[str, object]) -> GridCell:
        """The unique cell matching a partial selector (gate resolution)."""
        bad_axes = set(selector) - set(GRID_AXES)
        if bad_axes:
            raise ValueError(f"unknown grid axes in selector: {sorted(bad_axes)}")
        matches = [cell for cell in self.cells() if cell.matches(selector)]
        if len(matches) != 1:
            raise ValueError(
                f"selector {dict(selector)!r} matches {len(matches)} cells; "
                "gate selectors must match exactly one"
            )
        return matches[0]


def _same_alignments(got: Sequence[Alignment], want: Sequence[Alignment]) -> bool:
    """The backends' equivalence contract: CIGAR, distance and span per pair."""
    if len(got) != len(want):
        return False
    return all(
        str(a.cigar) == str(b.cigar)
        and a.edit_distance == b.edit_distance
        and a.text_end == b.text_end
        for a, b in zip(got, want)
    )


class GridRunner:
    """Execute an :class:`ExperimentGrid` and persist its trajectory.

    ``recorder`` may be a :class:`~repro.telemetry.bench.BenchRecorder`
    or a bench-file path.  Workloads and per-(workload, window) reference
    alignments are cached across cells, so the sweep pays mapping and the
    reference run once per combination, not once per cell.
    """

    def __init__(
        self,
        grid: ExperimentGrid,
        recorder: Union[BenchRecorder, str, Path],
    ) -> None:
        self.grid = grid
        self.recorder = (
            recorder
            if isinstance(recorder, BenchRecorder)
            else BenchRecorder(recorder)
        )
        self._workloads: Dict[str, AlignmentWorkload] = {}
        self._references: Dict[Tuple[str, int], List[Alignment]] = {}

    # ------------------------------------------------------------------ #
    def _workload(self, name: str) -> AlignmentWorkload:
        if name not in self._workloads:
            self._workloads[name] = build_paper_dataset(**self.grid.workloads[name])
        return self._workloads[name]

    def _reference(self, cell: GridCell, config: GenASMConfig) -> List[Alignment]:
        """Vectorized-path alignments for equivalence checking."""
        key = (cell.workload, cell.window_size)
        if key not in self._references:
            from repro.batch.engine import BatchAlignmentEngine

            engine = BatchAlignmentEngine(config, name=f"{self.grid.name}-reference")
            self._references[key] = engine.align_pairs(self._workload(cell.workload).pairs)
        return self._references[key]

    def _run_cell(
        self, cell: GridCell, config: GenASMConfig, pool
    ) -> Tuple[List[Alignment], float]:
        """Align the cell's workload once with its backend: (alignments, seconds).

        The backend's aligner is built before the timer starts; ``pool``
        is the warm worker pool of a ``shared`` cell.
        """
        from repro.batch.engine import BatchAlignmentEngine
        from repro.core.aligner import GenASMAligner
        from repro.pipeline import StreamingPipeline

        pairs = self._workload(cell.workload).pairs
        name = f"{self.grid.name}-grid"
        if cell.backend == "serial":
            align = GenASMAligner(config).align_batch
        elif cell.backend == "vectorized":
            align = BatchAlignmentEngine(
                config, max_lanes=cell.wave_size, name=name
            ).align_pairs
        elif cell.backend == "shared":
            align = pool.run_alignments
        else:
            align = StreamingPipeline(
                config=config, wave_size=cell.wave_size, name=name
            ).align_pairs
        start = time.perf_counter()
        alignments = align(pairs)
        return alignments, time.perf_counter() - start

    def _measure(self, cell: GridCell, config: GenASMConfig, pool) -> Dict[str, object]:
        """Time :data:`TRIALS` runs of one cell and summarise them as a row."""
        reference = self._reference(cell, config)
        seconds: List[float] = []
        identical = True
        for _ in range(TRIALS):
            alignments, elapsed = self._run_cell(cell, config, pool)
            seconds.append(elapsed)
            identical = identical and _same_alignments(alignments, reference)
        median = statistics.median(seconds)
        pairs = len(alignments)
        identity = sum(a.identity for a in alignments) / pairs if pairs else 1.0
        return {
            "grid": self.grid.name,
            "workload": cell.workload,
            "backend": cell.backend,
            "window_size": cell.window_size,
            "wave_size": cell.wave_size,
            "pairs": pairs,
            "trials": TRIALS,
            "seconds": round(median, 4),
            "min_seconds": round(min(seconds), 4),
            "max_seconds": round(max(seconds), 4),
            "pairs_per_second": round(pairs / max(1e-9, median), 2),
            "mean_identity": round(identity, 4),
            "identical": identical,
        }

    # ------------------------------------------------------------------ #
    def run(self, *, append: bool = True, save: bool = True) -> List[Dict[str, object]]:
        """Run every cell :data:`TRIALS` times; returns one row per cell (axis order).

        Each row carries the cell's axis values, pair count, ``trials``,
        the median wall ``seconds`` with ``min_seconds``/``max_seconds``,
        ``pairs_per_second`` at the median, mean alignment identity and
        the ``identical`` flag: every trial matched the vectorized
        reference.  ``shared`` cells share
        one warm pool per window size, started and warmed outside the
        timed region and closed before this returns or raises.
        With ``append`` (default) rows are also written to
        ``grid_history`` through the recorder, provenance-stamped;
        ``save`` persists the bench file afterwards.
        """
        from repro.parallel.pool import WorkerPool

        rows: List[Dict[str, object]] = []
        with ExitStack() as stack:
            pools: Dict[int, WorkerPool] = {}
            for cell in self.grid.cells():
                config = self.grid.config_for(cell.window_size)
                pool = None
                if cell.backend == "shared":
                    if cell.window_size not in pools:
                        pools[cell.window_size] = stack.enter_context(
                            WorkerPool(workers=SHARED_WORKERS, config=config)
                        )
                        pools[cell.window_size].warm()
                    pool = pools[cell.window_size]
                row = self._measure(cell, config, pool)
                if append:
                    self.recorder.append(HISTORY_KEY, row, config=config)
                rows.append(row)
        if save and append:
            self.recorder.save()
        return rows

    def check(self, rows: Sequence[Mapping[str, object]]) -> Dict[str, object]:
        """Evaluate every declared gate over a :meth:`run` result.

        Returns ``{"ok", "gates", "non_identical"}``: one entry per gate
        with its metric, selectors, both metric values, ``ratio``,
        ``floor`` and its own ``ok``.  The overall ``ok`` also fails when
        any cell's alignments were not identical to the reference —
        equivalence is part of the gate, not just a row field.
        """
        broken = sum(1 for row in rows if not row.get("identical", False))

        def metric_of(metric: str, target: GridCell) -> float:
            for row in rows:
                if all(row.get(axis) == getattr(target, axis) for axis in GRID_AXES):
                    value = row.get(metric)
                    if not _is_number(value):
                        raise ValueError(
                            f"gate metric {metric!r} is not numeric in row for {target}"
                        )
                    return float(value)
            raise ValueError(f"no row for gate cell {target}")

        verdicts = []
        for gate in self.grid.gates:
            metric = str(gate["metric"])
            value = metric_of(metric, self.grid.select_cell(gate["cell"]))
            reference = self.grid.select_cell(gate["reference_cell"])
            reference_value = metric_of(metric, reference)
            ratio = value / max(1e-9, reference_value)
            verdicts.append(
                {
                    "metric": metric,
                    "cell": dict(gate["cell"]),
                    "reference_cell": dict(gate["reference_cell"]),
                    "value": value,
                    "reference_value": reference_value,
                    "ratio": ratio,
                    "floor": float(gate["floor"]),
                    "ok": ratio >= float(gate["floor"]),
                }
            )
        return {
            "ok": not broken and all(verdict["ok"] for verdict in verdicts),
            "gates": verdicts,
            "non_identical": broken,
        }

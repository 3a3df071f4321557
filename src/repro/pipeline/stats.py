"""Per-stage accounting of a streaming pipeline run.

:class:`PipelineStats` is the observability half of :mod:`repro.pipeline`:
it records how long the driver spent waiting on each stage, how full the
wave accumulator ran (queue occupancy, backpressure and timeout flushes),
and how well-packed the dispatched waves were (fill efficiency).  The
differential tests use the counts to assert the pipeline saw every read
and candidate.

Stage times are *pipeline-loop wait times*: with a worker pool serving
the align stage, a stage's seconds measure how long the pipeline loop
blocked on that stage (submission plus waiting for results), so
overlapped work shows up as ``wall_seconds`` smaller than the sum of the
equivalent offline phases rather than as inflated per-stage numbers.

Every number lives in :attr:`PipelineStats.registry`, a
:class:`~repro.telemetry.metrics.MetricsRegistry` under ``pipeline_*``
names: the attributes read it, the ``record_*``/``sample_*`` methods
change it one metric call at a time, and
:func:`~repro.telemetry.exporters.prometheus_text` exports it.  Derived
values (fill efficiency, mean occupancy, throughput) are computed on
read.  Per-event timelines are the trace layer's job
(:class:`repro.telemetry.trace.Tracer`), which the pipeline threads
alongside these aggregates.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, Optional

from repro.telemetry.metrics import Stored, MetricsRegistry

__all__ = ["FLUSH_CAUSES", "PIPELINE_STAGES", "PipelineStats", "WAVE_WINDOW"]

#: The stages every run is accounted under, in dataflow order.
PIPELINE_STAGES = ("ingest", "map", "batch", "align", "emit")

#: Every wave-flush cause a pipeline or service run can record, and the
#: keys :attr:`PipelineStats.flushes` is seeded with.  Consumers may read
#: ``stats.flushes[cause]`` for any cause listed here without guarding
#: against ``KeyError`` — including causes the run never triggered.  The
#: attribute docs on :class:`PipelineStats` must list exactly these causes
#: (``tests/test_service.py`` asserts the two stay in sync).
FLUSH_CAUSES = ("size", "timeout", "final", "idle")

#: Dispatched waves whose lane counts :attr:`PipelineStats.wave_lane_counts`
#: keeps.
WAVE_WINDOW = 1024

#: The alignment-metadata keys :meth:`PipelineStats.record_traceback` folds in.
_TRACEBACK_KEYS = (
    "tb_walk_steps",
    "tb_walk_steps_saved",
    "tb_match_runs",
    "tb_match_run_ops",
)


class PipelineStats:
    """Counters and timings of one :class:`~repro.pipeline.StreamingPipeline` run.

    Attributes
    ----------
    registry:
        The :class:`~repro.telemetry.metrics.MetricsRegistry` holding every
        number below (a fresh one unless the caller shares theirs).
    wave_size:
        Configured lanes per wave (the denominator of fill efficiency).
    reads, candidates, waves, aligned:
        Items that crossed each boundary: reads ingested, candidate pairs
        produced by mapping, waves dispatched, pairs aligned.
    stage_seconds:
        Wall seconds the driver spent waiting on each stage, keyed by
        :data:`PIPELINE_STAGES`.
    wall_seconds:
        End-to-end wall time of the run.
    wave_lane_counts:
        Lane counts of the most recent dispatched waves, in dispatch
        order, bounded to the last :data:`WAVE_WINDOW` entries — a
        long-lived service stream dispatches waves forever, so the full
        history cannot be retained.  :attr:`full_waves` and
        :attr:`wave_fill_efficiency` are computed from running totals
        (:attr:`lanes_total`, :attr:`capacity_total`,
        :attr:`full_wave_count`) and stay exact over the whole run
        regardless of the window.
    max_pending, pending_samples, pending_total:
        Accumulator queue occupancy: high-water mark plus the running
        sum/count of per-push samples (see :attr:`mean_pending`).
    max_reorder_buffer:
        High-water mark of the in-order emission buffer (unbounded).
    wave_merges, merged_lanes:
        Trailing partial waves the accumulator folded into their
        predecessor, and how many lanes rode along (see
        :class:`~repro.pipeline.batcher.WaveAccumulator`).
    flushes:
        Wave-flush causes: ``size`` (backpressure / full wave), ``timeout``
        (linger expired), ``final`` (end of stream), ``idle`` (service
        drain: no admissible work left to fill the wave).  Seeded
        with every cause in :data:`FLUSH_CAUSES`, so any documented cause
        is readable even on runs that never triggered it.
    tb_walk_steps, tb_walk_steps_saved, tb_match_runs, tb_match_run_ops:
        Traceback-walk observability folded in from alignment metadata
        (:meth:`record_traceback`): lockstep walk iterations performed,
        the ops match-run skip-ahead saved over them, and the match runs
        it consumed whole (plus their op total).
    """

    reads = Stored("pipeline_reads_total", "reads ingested")
    candidates = Stored("pipeline_candidates_total", "candidate pairs mapped")
    aligned = Stored("pipeline_aligned_total", "pairs aligned")
    wall_seconds = Stored("pipeline_wall_seconds", "end-to-end wall time", float)
    lanes_total = Stored("pipeline_wave_lanes_total", "lanes of waves")
    capacity_total = Stored("pipeline_wave_capacity_total", "lane capacity of waves")
    full_wave_count = Stored("pipeline_full_waves_total", "waves dispatched full")
    max_pending = Stored("pipeline_max_pending", "accumulator high-water mark")
    pending_samples = Stored("pipeline_pending_samples_total", "occupancy samples")
    pending_total = Stored("pipeline_pending_items_total", "sampled occupancy sum")
    max_reorder_buffer = Stored("pipeline_max_reorder_buffer", "reorder buffer peak")
    wave_merges = Stored("pipeline_wave_merges_total", "trailing waves merged")
    merged_lanes = Stored("pipeline_merged_lanes_total", "lanes riding merges")
    tb_walk_steps = Stored("pipeline_tb_walk_steps_total", "traceback walk steps")
    tb_walk_steps_saved = Stored("pipeline_tb_walk_steps_saved_total", "steps skipped")
    tb_match_runs = Stored("pipeline_tb_match_runs_total", "match runs skipped whole")
    tb_match_run_ops = Stored("pipeline_tb_match_run_ops_total", "ops in those runs")

    def __init__(
        self,
        *,
        wave_size: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.wave_size = wave_size
        self.wave_lane_counts: Deque[int] = deque(maxlen=WAVE_WINDOW)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._metrics = Stored.bind(self, self.registry)
        self._stage_seconds = {
            stage: self.registry.counter(
                "pipeline_stage_seconds_total", "driver wait per stage", stage=stage
            )
            for stage in PIPELINE_STAGES
        }
        self._flushes = {
            cause: self.registry.counter(
                "pipeline_flushes_total", "wave flushes by cause", cause=cause
            )
            for cause in FLUSH_CAUSES
        }

    @property
    def stage_seconds(self) -> Dict[str, float]:
        return {stage: c.value() for stage, c in self._stage_seconds.items()}

    @property
    def flushes(self) -> Dict[str, int]:
        return {cause: int(c.value()) for cause, c in self._flushes.items()}

    @property
    def waves(self) -> int:
        """Waves dispatched: every wave is flushed for exactly one cause."""
        return sum(self.flushes.values())

    # ------------------------------------------------------------------ #
    @contextmanager
    def timer(self, stage: str) -> Iterator[None]:
        """Accumulate the wall time of the enclosed block onto ``stage``.

        ``stage`` must be one of :data:`PIPELINE_STAGES` — the same
        validate-before-mutate contract :meth:`record_wave` applies to
        flush causes, so a typo'd stage name fails with a clear
        :class:`ValueError` instead of silently growing an undocumented
        stage metric.
        """
        counter = self._stage_seconds.get(stage)
        if counter is None:
            raise ValueError(
                f"unknown pipeline stage {stage!r}; must be one of {PIPELINE_STAGES}"
            )
        start = time.perf_counter()
        try:
            yield
        finally:
            counter.inc(time.perf_counter() - start)

    def record_read(self) -> None:
        """Record one read ingested."""
        self._metrics["reads"].inc()

    def record_candidate(self) -> None:
        """Record one candidate pair produced by mapping."""
        self._metrics["candidates"].inc()

    def record_aligned(self, pairs: int) -> None:
        """Record ``pairs`` aligned pairs absorbed from a completed wave."""
        self._metrics["aligned"].inc(pairs)

    def sample_pending(self, pending: int) -> None:
        """Record one accumulator occupancy observation."""
        self._metrics["max_pending"].set_max(pending)
        self._metrics["pending_samples"].inc()
        self._metrics["pending_total"].inc(pending)

    def sample_reorder(self, buffered: int) -> None:
        """Record one emission-buffer occupancy observation."""
        self._metrics["max_reorder_buffer"].set_max(buffered)

    def record_wave(self, lanes: int, reason: str) -> None:
        """Record one dispatched wave and why it was flushed.

        ``reason`` must be one of :data:`FLUSH_CAUSES` — the seeded-dict
        guarantee (every documented cause readable, nothing undocumented)
        only holds if unknown causes are rejected rather than silently
        creating new metrics.
        """
        flushes = self._flushes.get(reason)
        if flushes is None:
            raise ValueError(
                f"unknown flush cause {reason!r}; must be one of {FLUSH_CAUSES}"
            )
        self.wave_lane_counts.append(lanes)  # bounded; the totals stay exact
        self._metrics["lanes_total"].inc(lanes)
        self._metrics["capacity_total"].inc(max(self.wave_size, lanes))
        # Tail-merged waves legitimately exceed wave_size and count as
        # full (see wave_fill_efficiency); an unset wave_size counts none.
        if 0 < self.wave_size <= lanes:
            self._metrics["full_wave_count"].inc()
        flushes.inc()

    def record_merge(self, lanes: int) -> None:
        """Record one trailing partial wave folded into its predecessor."""
        self._metrics["wave_merges"].inc()
        self._metrics["merged_lanes"].inc(lanes)

    def record_traceback(self, metadata: Dict[str, object]) -> None:
        """Fold one alignment's traceback walk observability into the run.

        Reads the ``tb_*`` keys the batch engine attaches to alignment
        metadata (a missing key counts zero): lockstep walk iterations,
        the ops match-run skip-ahead saved over them, and the match runs
        consumed whole.
        """
        for key in _TRACEBACK_KEYS:
            self._metrics[key].inc(int(metadata.get(key, 0)))

    # ------------------------------------------------------------------ #
    @property
    def mean_pending(self) -> float:
        """Average accumulator occupancy over all push samples."""
        samples = self.pending_samples
        if samples == 0:
            return 0.0
        return self.pending_total / samples

    @property
    def full_waves(self) -> int:
        """Waves dispatched with every lane occupied (exact over the run)."""
        return self.full_wave_count

    @property
    def wave_fill_efficiency(self) -> float:
        """Occupied lane fraction over all dispatched waves (1.0 = all full).

        Each wave's capacity is ``max(wave_size, lanes)``: tail-merged
        waves legitimately exceed ``wave_size`` and count as full rather
        than pushing the ratio past 1.0.  Computed from the running
        totals, so the bounded :attr:`wave_lane_counts` window never
        skews it.
        """
        capacity = self.capacity_total
        if capacity <= 0 or self.wave_size <= 0:
            return 1.0
        return self.lanes_total / capacity

    @property
    def reads_per_second(self) -> float:
        wall, reads = self.wall_seconds, self.reads
        if wall <= 0:
            return float("inf") if reads else 0.0
        return reads / wall

    @property
    def pairs_per_second(self) -> float:
        wall, aligned = self.wall_seconds, self.aligned
        if wall <= 0:
            return float("inf") if aligned else 0.0
        return aligned / wall

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        """Flat report-friendly view: counts ``int``, seconds ``float``."""
        return {
            "reads": self.reads,
            "candidates": self.candidates,
            "waves": self.waves,
            "aligned": self.aligned,
            "wave_size": self.wave_size,
            "full_waves": self.full_waves,
            "wave_fill_efficiency": self.wave_fill_efficiency,
            "wall_seconds": self.wall_seconds,
            "stage_seconds": self.stage_seconds,
            "max_pending": self.max_pending,
            "mean_pending": self.mean_pending,
            "max_reorder_buffer": self.max_reorder_buffer,
            "wave_merges": self.wave_merges,
            "merged_lanes": self.merged_lanes,
            "flushes": self.flushes,
            "reads_per_second": self.reads_per_second,
            "pairs_per_second": self.pairs_per_second,
            "tb_walk_steps": self.tb_walk_steps,
            "tb_walk_steps_saved": self.tb_walk_steps_saved,
            "tb_match_runs": self.tb_match_runs,
            "tb_match_run_ops": self.tb_match_run_ops,
        }

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        stage_seconds = self.stage_seconds
        stages = "  ".join(
            f"{stage}={stage_seconds[stage]:.3f}s" for stage in PIPELINE_STAGES
        )
        return (
            f"reads={self.reads} candidates={self.candidates} "
            f"waves={self.waves} aligned={self.aligned}\n"
            f"stage wait: {stages}\n"
            f"wall={self.wall_seconds:.3f}s "
            f"({self.reads_per_second:.1f} reads/s, "
            f"{self.pairs_per_second:.1f} pairs/s)\n"
            f"waves: fill={self.wave_fill_efficiency:.3f} "
            f"full={self.full_waves}/{self.waves} merges={self.wave_merges} "
            f"flushes={self.flushes}\n"
            f"queues: max_pending={self.max_pending} "
            f"mean_pending={self.mean_pending:.1f} "
            f"max_reorder={self.max_reorder_buffer}\n"
            f"traceback: walk_steps={self.tb_walk_steps} "
            f"saved={self.tb_walk_steps_saved} "
            f"match_runs={self.tb_match_runs} "
            f"run_ops={self.tb_match_run_ops}"
        )

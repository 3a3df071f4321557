"""Per-stage accounting of a streaming pipeline run.

:class:`PipelineStats` is the observability half of :mod:`repro.pipeline`:
it records how long the driver spent waiting on each stage, how full the
wave accumulator ran (queue occupancy, backpressure and timeout flushes),
and how well-packed the dispatched waves were (fill efficiency).  The
differential tests use the counts to assert the pipeline saw every read
and candidate.

Stage times are *driver wait times*: with worker pools attached to the map
or align stage, a stage's seconds measure how long the pipeline loop
blocked on that stage (submission plus waiting for results), so overlapped
work shows up as ``wall_seconds`` smaller than the sum of the equivalent
offline phases rather than as inflated per-stage numbers.

Beyond the flat :meth:`PipelineStats.as_dict` view, every counter here
publishes into the unified metrics registry via
:meth:`PipelineStats.publish` (see :mod:`repro.telemetry.metrics` for the
naming scheme and :mod:`repro.telemetry.exporters` for the Prometheus
text exposition); per-event timelines are the trace layer's job
(:class:`repro.telemetry.trace.Tracer`), which the pipeline threads
alongside these aggregates.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List

__all__ = ["FLUSH_CAUSES", "PIPELINE_STAGES", "PipelineStats"]

#: The stages every run is accounted under, in dataflow order.
PIPELINE_STAGES = ("ingest", "map", "batch", "align", "emit")

#: Every wave-flush cause a pipeline or service run can record, and the
#: keys :attr:`PipelineStats.flushes` is seeded with.  Consumers may read
#: ``stats.flushes[cause]`` for any cause listed here without guarding
#: against ``KeyError`` — including causes the run never triggered.  The
#: attribute docs on :class:`PipelineStats` must list exactly these causes
#: (``tests/test_service.py`` asserts the two stay in sync).
FLUSH_CAUSES = ("size", "timeout", "final", "reorder", "idle")


@dataclass
class PipelineStats:
    """Counters and timings of one :class:`~repro.pipeline.StreamingPipeline` run.

    Attributes
    ----------
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
        order, bounded to the last :attr:`wave_window` entries — a
        long-lived service stream dispatches waves forever, so the full
        history cannot be retained.  :attr:`full_waves` and
        :attr:`wave_fill_efficiency` are computed from running aggregates
        (:attr:`lanes_total`, :attr:`capacity_total`,
        :attr:`full_wave_count`) and stay exact over the whole run
        regardless of the window.
    wave_window:
        Capacity of the :attr:`wave_lane_counts` window.
    max_pending, pending_samples, pending_total:
        Accumulator queue occupancy: high-water mark plus the running
        sum/count of per-push samples (see :attr:`mean_pending`).
    max_reorder_buffer:
        High-water mark of the in-order emission buffer.
    reorder_bound:
        Configured ``max_reorder`` cap on that buffer (``0`` = unbounded).
    wave_merges, merged_lanes:
        Trailing partial waves the accumulator folded into their
        predecessor, and how many lanes rode along (see
        :class:`~repro.pipeline.batcher.WaveAccumulator`).
    flushes:
        Wave-flush causes: ``size`` (backpressure / full wave), ``timeout``
        (linger expired), ``final`` (end of stream), ``reorder`` (forced
        drain to keep the bounded reorder buffer progressing), ``idle``
        (service drain: no admissible work left to fill the wave).  Seeded
        with every cause in :data:`FLUSH_CAUSES`, so any documented cause
        is readable even on runs that never triggered it.
    tb_walk_steps, tb_walk_steps_saved, tb_match_runs, tb_match_run_ops:
        Traceback-walk observability folded in from alignment metadata
        (:meth:`record_traceback`): lockstep walk iterations performed,
        the ops match-run skip-ahead saved over them, and the match runs
        it consumed whole (plus their op total).
    """

    wave_size: int = 0
    reads: int = 0
    candidates: int = 0
    waves: int = 0
    aligned: int = 0
    stage_seconds: Dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in PIPELINE_STAGES}
    )
    wall_seconds: float = 0.0
    wave_window: int = 1024
    wave_lane_counts: Deque[int] = field(default_factory=deque)
    lanes_total: int = 0
    capacity_total: int = 0
    full_wave_count: int = 0
    max_pending: int = 0
    pending_samples: int = 0
    pending_total: int = 0
    max_reorder_buffer: int = 0
    reorder_bound: int = 0
    wave_merges: int = 0
    merged_lanes: int = 0
    flushes: Dict[str, int] = field(
        default_factory=lambda: {cause: 0 for cause in FLUSH_CAUSES}
    )
    tb_walk_steps: int = 0
    tb_walk_steps_saved: int = 0
    tb_match_runs: int = 0
    tb_match_run_ops: int = 0

    def __post_init__(self) -> None:
        if self.wave_window < 1:
            raise ValueError("wave_window must be at least 1")
        seed = list(self.wave_lane_counts)
        self.wave_lane_counts = deque(seed, maxlen=self.wave_window)
        for lanes in seed:
            self._aggregate_wave(lanes)

    def _aggregate_wave(self, lanes: int) -> None:
        self.lanes_total += lanes
        self.capacity_total += max(self.wave_size, lanes)
        # Tail-merged waves legitimately exceed wave_size and count as
        # full (see wave_fill_efficiency); an unset wave_size counts none.
        if 0 < self.wave_size <= lanes:
            self.full_wave_count += 1

    # ------------------------------------------------------------------ #
    @contextmanager
    def timer(self, stage: str) -> Iterator[None]:
        """Accumulate the wall time of the enclosed block onto ``stage``.

        ``stage`` must be one of :data:`PIPELINE_STAGES` — the same
        validate-before-mutate contract :meth:`record_wave` applies to
        flush causes, so a typo'd stage name fails with a clear
        :class:`ValueError` instead of a bare ``KeyError`` from the
        accumulation dict (and instead of silently growing an
        undocumented stage key).
        """
        if stage not in PIPELINE_STAGES:
            raise ValueError(
                f"unknown pipeline stage {stage!r}; must be one of {PIPELINE_STAGES}"
            )
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stage_seconds[stage] += time.perf_counter() - start

    def sample_pending(self, pending: int) -> None:
        """Record one accumulator occupancy observation."""
        self.max_pending = max(self.max_pending, pending)
        self.pending_samples += 1
        self.pending_total += pending

    def sample_reorder(self, buffered: int) -> None:
        """Record one emission-buffer occupancy observation."""
        self.max_reorder_buffer = max(self.max_reorder_buffer, buffered)

    def record_wave(self, lanes: int, reason: str) -> None:
        """Record one dispatched wave and why it was flushed.

        ``reason`` must be one of :data:`FLUSH_CAUSES` — the seeded-dict
        guarantee (every documented cause readable, nothing undocumented)
        only holds if unknown causes are rejected rather than silently
        creating new keys.
        """
        if reason not in FLUSH_CAUSES:
            raise ValueError(
                f"unknown flush cause {reason!r}; must be one of {FLUSH_CAUSES}"
            )
        self.waves += 1
        self.wave_lane_counts.append(lanes)  # bounded; aggregates stay exact
        self._aggregate_wave(lanes)
        self.flushes[reason] += 1

    def record_merge(self, lanes: int) -> None:
        """Record one trailing partial wave folded into its predecessor."""
        self.wave_merges += 1
        self.merged_lanes += lanes

    def record_traceback(self, metadata: Dict[str, object]) -> None:
        """Fold one alignment's traceback walk observability into the run.

        Reads the ``tb_*`` keys the batch engine attaches to alignment
        metadata (absent when a ``word_bits != 64`` config ran the scalar
        aligner — those contribute nothing): lockstep walk iterations, the
        ops match-run skip-ahead saved over them, and the match runs
        consumed whole.
        """
        self.tb_walk_steps += int(metadata.get("tb_walk_steps", 0))
        self.tb_walk_steps_saved += int(metadata.get("tb_walk_steps_saved", 0))
        self.tb_match_runs += int(metadata.get("tb_match_runs", 0))
        self.tb_match_run_ops += int(metadata.get("tb_match_run_ops", 0))

    # ------------------------------------------------------------------ #
    @property
    def mean_pending(self) -> float:
        """Average accumulator occupancy over all push samples."""
        if self.pending_samples == 0:
            return 0.0
        return self.pending_total / self.pending_samples

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
        aggregates, so the bounded :attr:`wave_lane_counts` window never
        skews it.
        """
        if self.capacity_total <= 0 or self.wave_size <= 0:
            return 1.0
        return self.lanes_total / self.capacity_total

    @property
    def reads_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf") if self.reads else 0.0
        return self.reads / self.wall_seconds

    @property
    def pairs_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf") if self.aligned else 0.0
        return self.aligned / self.wall_seconds

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        """Flat report-friendly view (what the E1s experiment rows embed)."""
        return {
            "reads": self.reads,
            "candidates": self.candidates,
            "waves": self.waves,
            "aligned": self.aligned,
            "wave_size": self.wave_size,
            "full_waves": self.full_waves,
            "wave_fill_efficiency": self.wave_fill_efficiency,
            "wall_seconds": self.wall_seconds,
            "stage_seconds": dict(self.stage_seconds),
            "max_pending": self.max_pending,
            "mean_pending": self.mean_pending,
            "max_reorder_buffer": self.max_reorder_buffer,
            "reorder_bound": self.reorder_bound,
            "wave_merges": self.wave_merges,
            "merged_lanes": self.merged_lanes,
            "flushes": dict(self.flushes),
            "reads_per_second": self.reads_per_second,
            "pairs_per_second": self.pairs_per_second,
            "tb_walk_steps": self.tb_walk_steps,
            "tb_walk_steps_saved": self.tb_walk_steps_saved,
            "tb_match_runs": self.tb_match_runs,
            "tb_match_run_ops": self.tb_match_run_ops,
        }

    def publish(self, registry) -> None:
        """Publish every metric of this run into a telemetry registry.

        The registry-side twin of :meth:`as_dict` — same quantities, under
        the ``pipeline_*`` metric names of the unified naming scheme
        (counters carry exact running totals via
        :meth:`~repro.telemetry.metrics.Counter.set_total`, so publishing
        is idempotent; gauges hold the derived/point-in-time values; the
        bounded recent-wave window loads a lane-count histogram).  The
        telemetry tests assert ``as_dict()`` and the registry snapshot
        agree for every published metric.
        """
        counters = {
            "pipeline_reads_total": (self.reads, "reads ingested"),
            "pipeline_candidates_total": (self.candidates, "candidate pairs mapped"),
            "pipeline_waves_total": (self.waves, "waves dispatched"),
            "pipeline_aligned_total": (self.aligned, "pairs aligned"),
            "pipeline_full_waves_total": (self.full_waves, "waves dispatched full"),
            "pipeline_wave_merges_total": (self.wave_merges, "trailing waves merged"),
            "pipeline_merged_lanes_total": (self.merged_lanes, "lanes riding merges"),
            "pipeline_tb_walk_steps_total": (self.tb_walk_steps, "traceback walk steps"),
            "pipeline_tb_walk_steps_saved_total": (
                self.tb_walk_steps_saved,
                "walk steps skip-ahead saved",
            ),
            "pipeline_tb_match_runs_total": (
                self.tb_match_runs,
                "match runs consumed whole",
            ),
            "pipeline_tb_match_run_ops_total": (
                self.tb_match_run_ops,
                "ops inside consumed match runs",
            ),
        }
        for name, (value, help_text) in counters.items():
            registry.counter(name, help_text).set_total(value)
        for stage in PIPELINE_STAGES:
            registry.counter(
                "pipeline_stage_seconds_total", "driver wait seconds per stage",
                stage=stage,
            ).set_total(self.stage_seconds[stage])
        for cause in FLUSH_CAUSES:
            registry.counter(
                "pipeline_flushes_total", "wave flushes by cause", cause=cause
            ).set_total(self.flushes[cause])
        gauges = {
            "pipeline_wave_size": (self.wave_size, "configured lanes per wave"),
            "pipeline_wave_fill_efficiency": (
                self.wave_fill_efficiency,
                "occupied lane fraction",
            ),
            "pipeline_wall_seconds": (self.wall_seconds, "end-to-end wall time"),
            "pipeline_max_pending": (self.max_pending, "accumulator high-water mark"),
            "pipeline_mean_pending": (self.mean_pending, "mean accumulator occupancy"),
            "pipeline_max_reorder_buffer": (
                self.max_reorder_buffer,
                "reorder-buffer high-water mark",
            ),
            "pipeline_reorder_bound": (self.reorder_bound, "configured reorder bound"),
            "pipeline_reads_per_second": (self.reads_per_second, "read throughput"),
            "pipeline_pairs_per_second": (self.pairs_per_second, "pair throughput"),
        }
        for name, (value, help_text) in gauges.items():
            registry.gauge(name, help_text).set(value)
        registry.histogram(
            "pipeline_wave_lanes",
            "lane counts of recent dispatched waves",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        ).load(self.wave_lane_counts)

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        stages = "  ".join(
            f"{stage}={self.stage_seconds[stage]:.3f}s" for stage in PIPELINE_STAGES
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
            f"max_reorder={self.max_reorder_buffer}"
            + (f"/{self.reorder_bound}" if self.reorder_bound else "")
            + f"\ntraceback: walk_steps={self.tb_walk_steps} "
            f"saved={self.tb_walk_steps_saved} "
            f"match_runs={self.tb_match_runs} "
            f"run_ops={self.tb_match_run_ops}"
        )

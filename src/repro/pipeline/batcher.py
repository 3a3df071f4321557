"""Batch stage: accumulate candidate windows into dispatchable waves.

The vectorized engine amortises interpreter overhead across wave width, so
the pipeline wants waves as full — and as uniform in per-lane work — as
possible, without stalling forever waiting for lanes.  The accumulator
cuts waves incrementally, by fixed rules:

* items buffer up to ``max_pending`` (the backpressure bound);
* when the buffer hits the bound, complete ``wave_size`` waves are cut
  from the pending pool *in expected-work order* (stable sort by the
  ``work_key``, ties in arrival order — the same windows × words/lane
  quantity (:meth:`repro.batch.BatchAlignmentEngine.expected_work`) the
  engine's own :meth:`~repro.batch.BatchAlignmentEngine.schedule` sorts
  by), so each dispatched wave runs lanes of similar lifetime in lockstep;
* a ``linger_seconds`` timeout flushes everything pending (including a
  partial trailing wave) once the oldest buffered item has waited too
  long — the latency escape hatch for sparse streams;
* :meth:`flush` drains the remainder at end of stream;
* when a drain would end in a trailing wave of fewer than
  ``wave_size // 2`` lanes, the tail is merged into the preceding wave
  instead of paying full per-wave dispatch overhead for a handful of
  lanes.  Merged waves exceed ``wave_size``; the engine runs them as one
  chunk (the align stage leaves ``max_lanes`` unset), and the stats'
  ``wave_merges`` count them.

Wave grouping never changes any alignment (each pair's result is
independent of which wave carries it — the engine is byte-identical to the
scalar path per pair); it only moves lockstep efficiency and latency,
which :class:`~repro.pipeline.stats.PipelineStats` records.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.pipeline.stats import PipelineStats
from repro.telemetry.trace import get_tracer

__all__ = ["WaveAccumulator"]


class WaveAccumulator:
    """Group streamed items into waves by size, backpressure and timeout.

    Parameters
    ----------
    wave_size:
        Target lanes per dispatched wave.
    max_pending:
        Backpressure bound: a push that fills the buffer to this size
        flushes waves.  Larger values give a deeper pool to cut uniform
        waves from (at the cost of latency and memory).
    linger_seconds:
        Flush everything pending once the oldest buffered item is this old
        (checked at push time).  ``None`` disables the timeout.
    work_key:
        Expected-work estimate per item; waves are cut in this order.
    clock:
        Monotonic time source (injectable for deterministic timeout tests).
    stats:
        The :class:`PipelineStats` receiving occupancy samples, flush
        causes and merges (a fresh one when not given).
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`; every flush emits
        a ``wave.flush`` instant event (cause, waves, lanes) on it.
    """

    def __init__(
        self,
        *,
        wave_size: int = 64,
        max_pending: int = 256,
        linger_seconds: Optional[float] = None,
        work_key: Optional[Callable[[object], float]] = None,
        clock: Callable[[], float] = time.monotonic,
        stats: Optional[PipelineStats] = None,
        tracer=None,
    ) -> None:
        if wave_size < 1:
            raise ValueError("wave_size must be at least 1")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if linger_seconds is not None and linger_seconds < 0:
            raise ValueError("linger_seconds must be non-negative")
        self.wave_size = wave_size
        self.max_pending = max_pending
        self.linger_seconds = linger_seconds
        self.work_key = work_key if work_key is not None else (lambda item: 0.0)
        self.clock = clock
        self.stats = stats if stats is not None else PipelineStats(wave_size=wave_size)
        self.tracer = get_tracer(tracer)
        self._pending: List[object] = []  # arrival order
        #: per-item arrival timestamps, parallel to ``_pending`` — kept
        #: per item (not just the oldest) so a cut that dispatches the
        #: oldest item leaves the true age of whatever remains
        self._arrivals: List[float] = []

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> Sequence[object]:
        """The buffered items, in arrival order (read-only view)."""
        return tuple(self._pending)

    @property
    def _oldest(self) -> Optional[float]:
        """Arrival time of the oldest buffered item (``None`` when empty)."""
        return self._arrivals[0] if self._arrivals else None

    # ------------------------------------------------------------------ #
    def push(self, item: object) -> List[List[object]]:
        """Buffer one item; returns the waves this push flushed (often [])."""
        self._arrivals.append(self.clock())
        self._pending.append(item)
        self.stats.sample_pending(len(self._pending))

        if (
            self.linger_seconds is not None
            and self.clock() - self._oldest >= self.linger_seconds
        ):
            return self._cut(partial=True, reason="timeout")
        if len(self._pending) >= self.max_pending:
            # Backpressure: cut every complete wave; when the bound is
            # tighter than one wave, drain everything (a partial wave)
            # rather than exceeding it.
            return self._cut(partial=len(self._pending) < self.wave_size, reason="size")
        return []

    def poll(self) -> List[List[object]]:
        """Timeout check without a push; returns the flushed waves (often []).

        :meth:`push` only checks the linger bound when an item arrives, so
        on a sparse stream a partial wave can strand until the next
        arrival.  Long-lived callers — the service front-end's dispatch
        loop — call this between arrivals so linger expiry flushes even
        while the stream is quiet.
        """
        if (
            self._pending
            and self.linger_seconds is not None
            and self._oldest is not None
            and self.clock() - self._oldest >= self.linger_seconds
        ):
            return self._cut(partial=True, reason="timeout")
        return []

    def oldest_age(self) -> Optional[float]:
        """Seconds the oldest buffered item has waited (``None`` when empty).

        The service dispatch loop sizes its idle sleep from this: wake just
        as the linger bound expires rather than polling on a fixed tick.
        """
        if self._oldest is None:
            return None
        return self.clock() - self._oldest

    def flush(self, *, reason: str = "final") -> List[List[object]]:
        """Drain everything pending, partial wave included.

        ``reason`` labels the flush in the stats — ``"final"`` at end of
        stream (the default), ``"idle"`` when the service front-end drains
        a wave no admissible work can fill.
        """
        return self._cut(partial=True, reason=reason)

    # ------------------------------------------------------------------ #
    def _order(self) -> List[int]:
        return sorted(
            range(len(self._pending)),
            key=lambda index: (self.work_key(self._pending[index]), index),
        )

    def _cut(self, *, partial: bool, reason: str) -> List[List[object]]:
        if not self._pending:
            return []
        order = self._order()
        take = len(order) if partial else (len(order) // self.wave_size) * self.wave_size
        if take == 0:
            return []
        waves = [
            [self._pending[index] for index in order[start : start + self.wave_size]]
            for start in range(0, take, self.wave_size)
        ]
        remainder = sorted(order[take:])  # keep arrival order for determinism
        self._pending = [self._pending[index] for index in remainder]
        self._arrivals = [self._arrivals[index] for index in remainder]
        if len(waves) >= 2 and 0 < len(waves[-1]) < self.wave_size // 2:
            tail = waves.pop()
            waves[-1].extend(tail)
            self.stats.record_merge(len(tail))
        for wave in waves:
            self.stats.record_wave(len(wave), reason)
        if self.tracer.enabled and waves:
            self.tracer.instant(
                "wave.flush",
                cause=reason,
                waves=len(waves),
                lanes=sum(len(wave) for wave in waves),
            )
        return waves

"""Align stage: dispatch pre-built waves to the vectorized engine.

Without an executor each wave runs on an in-process
:class:`repro.batch.BatchAlignmentEngine`.  With an ``executor``
(:class:`repro.parallel.pool.WorkerPool`) each wave's pairs are pickled
to workers holding warm, already-constructed engines — the one way
waves leave the calling process.  Short-read
(``window_size > 64``) configurations dispatch the same way, on the
engine's multi-word lanes, and the accumulator feeding this stage
groups lanes by the engine's windows × words/lane cost model
(:meth:`repro.batch.BatchAlignmentEngine.expected_work`).

Results are collected in wave submission order behind a bounded in-flight
window — a deque of each wave and its alignments, or the executor future
computing them — and the pipeline's reorder buffer (keyed by global
candidate ordinal) restores input order regardless.  A wave whose
execution raised is collected with the exception in place of its
alignments, so one failing wave never strands the waves queued behind it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple, Union

from repro.batch.engine import BatchAlignmentEngine
from repro.core.alignment import Alignment
from repro.core.config import GenASMConfig
from repro.telemetry.trace import get_tracer

__all__ = ["AlignStage"]

#: A collected wave's alignments, or the exception its execution raised.
WaveResult = Union[List[Alignment], Exception]


class AlignStage:
    """Submit/collect interface over wave-granular alignment execution.

    Parameters
    ----------
    config:
        Aligner configuration shared by every wave.
    executor:
        Optional started-or-startable
        :class:`repro.parallel.pool.WorkerPool`; when given, waves are
        dispatched to its workers.  The pool stays caller-owned, so one
        warm pool can serve many runs.  Its config must equal this
        stage's.  At most ``max(2, 2 * executor.workers)`` waves are in
        flight before :meth:`collect` blocks on the oldest (2 without an
        executor).
    name:
        Forwarded to :class:`BatchAlignmentEngine`.
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`.  Each submitted
        wave gets a monotonically increasing ``wave_id`` and an
        ``align.wave`` span (in-process execution) or an
        ``align.dispatch`` span (the handoff to the worker pool; the
        pool's own tracer covers worker-side execution).
    """

    def __init__(
        self,
        config: Optional[GenASMConfig] = None,
        *,
        executor=None,
        name: str = "genasm-streaming",
        tracer=None,
    ) -> None:
        self.executor = executor
        # max_lanes stays unset: waves are already bounded by the
        # accumulator, and a merged tail wave (wave_size + remainder lanes)
        # must run as one engine chunk, not get re-split back into the
        # partial dispatch the merge existed to avoid.
        self.engine = BatchAlignmentEngine(config, name=name)
        if executor is not None and executor.config != self.engine.config:
            raise ValueError(
                "worker pool was built with a different config "
                "than this align stage"
            )
        workers = executor.workers if executor is not None else 1
        # In-flight bound: collect() waits on the oldest wave only while
        # more than this many are queued.
        self._bound = max(2, 2 * workers)
        # Submitted waves, each with its alignments, the exception its
        # dispatch raised, or the executor future computing them.
        self._queue: Deque[Tuple[List, object]] = deque()
        self.tracer = get_tracer(tracer)
        #: Waves submitted so far; also the next wave's ``wave_id``.
        self.waves_submitted = 0

    @property
    def config(self) -> GenASMConfig:
        return self.engine.config

    @property
    def pending_waves(self) -> int:
        """Submitted waves not yet collected (the service's idle test)."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    def submit(self, wave: Sequence) -> None:
        """Dispatch one wave (items must expose ``pattern`` and ``text``).

        A wave that fails — in-process, at handoff, or in a worker — is
        queued with its exception, which :meth:`collect` returns in place
        of the wave's alignments.
        """
        pairs = [(item.pattern, item.text) for item in wave]
        wave_id = self.waves_submitted
        self.waves_submitted += 1
        try:
            pending = self._dispatch(pairs, wave_id)
        except Exception as error:
            pending = error
        self._queue.append((list(wave), pending))

    def _dispatch(self, pairs: List[Tuple[str, str]], wave_id: int):
        """The wave's alignments (in-process) or its executor future."""
        if self.executor is not None:
            with self.tracer.span("align.dispatch", wave_id=wave_id, lanes=len(pairs)):
                return self.executor.submit_wave(pairs, wave_id=wave_id)
        with self.tracer.span("align.wave", wave_id=wave_id, lanes=len(pairs)):
            return self.engine.align_pairs(pairs)

    def collect(self, *, block: bool = False) -> List[Tuple[List, WaveResult]]:
        """Pop completed waves from the front of the queue, submission order.

        Non-blocking by default: returns the finished prefix, waiting only
        when the in-flight window is exceeded.  ``block=True`` waits for
        everything (the end-of-stream drain).  A failed wave comes back
        with its exception in place of its alignments.
        """
        out: List[Tuple[List, WaveResult]] = []
        while self._queue:
            wave, alignments = self._queue[0]
            if hasattr(alignments, "result"):  # an executor future
                future = alignments
                if not (block or future.done() or len(self._queue) > self._bound):
                    break
                alignments = future.exception() or future.result()
            self._queue.popleft()
            if not isinstance(alignments, Exception) and len(alignments) != len(wave):
                raise AssertionError(
                    "align stage returned a wave of the wrong width "
                    f"({len(alignments)} != {len(wave)})"
                )
            out.append((wave, alignments))
        return out

    def drain(self) -> List[Tuple[List, WaveResult]]:
        """Wait for and return every wave still in flight."""
        return self.collect(block=True)

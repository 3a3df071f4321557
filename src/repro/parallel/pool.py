"""The worker pool: warm alignment engines in spawned processes.

:class:`WorkerPool` is one spawn pool whose workers each hold a warm
:class:`~repro.batch.engine.BatchAlignmentEngine`.  A wave crosses the
process boundary the way the paper's GPU kernel charges its I/O: the
wave's (pattern, text) pairs go in and its alignments come out, both by
pickle, and the engine's wave state is built and dropped inside the
worker.  The streaming pipeline's align stage and the alignment service
dispatch waves through :meth:`WorkerPool.submit_wave`, and
:meth:`WorkerPool.run_alignments` aligns a batch on the pool with the
same results as
:meth:`~repro.batch.engine.BatchAlignmentEngine.align_pairs`.  It is the
one way work leaves the calling process.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

__all__ = ["WorkerPool"]


# --------------------------------------------------------------------------- #
# Worker side of the pool (module-level so it pickles under spawn)
# --------------------------------------------------------------------------- #
_WORKER: Optional["_WorkerState"] = None


class _WorkerState:
    """Per-worker-process state: a warm engine and the worker's tracer."""

    def __init__(self, config, trace: bool) -> None:
        import os

        from repro.batch.engine import BatchAlignmentEngine
        from repro.telemetry.trace import NULL_TRACER, Tracer

        self.engine = BatchAlignmentEngine(config)
        # Worker-side tracer: spans recorded here are drained and shipped
        # back with each wave's alignments, so the driver-side tracer can
        # absorb them onto one timeline (separate pid tracks).
        if trace:
            self.tracer = Tracer(process_name=f"pool-worker-{os.getpid()}")
        else:
            self.tracer = NULL_TRACER


def _init_worker(config, trace: bool) -> None:
    global _WORKER
    _WORKER = _WorkerState(config, trace)


def _worker_ping(delay: float = 0.0) -> int:
    """Warm-up task: forces spawn + imports + engine construction.

    Also runs a one-lane alignment so the engine's first-call costs
    (numpy ufunc setup, lazy allocations) are paid here rather than by the
    first real wave.  The ``delay`` keeps the task resident long enough
    that a pool-wide warm() round touches *every* worker instead of one
    fast worker absorbing all the pings.
    """
    _WORKER.engine.align_pairs([("ACGT", "ACGT")])
    if delay:
        import time

        time.sleep(delay)
    import os

    return os.getpid()


def _worker_align(pairs: List[Tuple[str, str]]) -> List:
    """Align one wave of (pattern, text) pairs."""
    return _WORKER.engine.align_pairs(pairs)


def _worker_align_traced(
    pairs: List[Tuple[str, str]], wave_id
) -> Tuple[List, List, str]:
    """Traced :func:`_worker_align`: also ship this wave's spans back.

    Returns ``(alignments, span records, process name)``; the driver-side
    pool absorbs the records so cross-process waves land on the same
    exported timeline as the driver's stages.
    """
    tracer = _WORKER.tracer
    with tracer.span("worker.align.wave", wave_id=wave_id, lanes=len(pairs)):
        alignments = _WORKER.engine.align_pairs(pairs)
    return alignments, tracer.drain(), tracer.process_name


# --------------------------------------------------------------------------- #
# The pool
# --------------------------------------------------------------------------- #
class WorkerPool:
    """Spawn pool of warm engines that receive waves as pickled pairs.

    Parameters
    ----------
    workers:
        Worker process count.
    config:
        Aligner configuration shipped once at pool start (defaults to the
        paper's improved GenASM).  A configuration the engine does not run
        is refused when the pool starts, before any worker spawns
        (:func:`~repro.batch.engine.check_engine_config`).
    tracer:
        Optional driver-side :class:`~repro.telemetry.trace.Tracer`.  When
        given (and enabled), each worker builds its own tracer, records a
        ``worker.align.wave`` span per wave, and ships the span records
        back with the wave's alignments; this pool absorbs them so one
        exported timeline covers driver stages and worker waves.

    The pool starts on first submit, :meth:`warm` or :meth:`start`.  It is
    reusable across pipeline runs — keeping it alive keeps the workers
    warm, which is the intended mode for service-style callers;
    :meth:`close` (or the context-manager exit) shuts the workers down.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        config=None,
        tracer=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        from repro.core.config import GenASMConfig
        from repro.telemetry.trace import get_tracer

        self.workers = workers
        self.config = config if config is not None else GenASMConfig()
        self.tracer = get_tracer(tracer)
        self._pool = None
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        return self._pool is not None

    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        if self._pool is not None:
            return
        if self._closed:
            raise RuntimeError("worker pool already closed")
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        from repro.batch.engine import check_engine_config

        check_engine_config(self.config)

        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=get_context("spawn"),
            initializer=_init_worker,
            initargs=(self.config, self.tracer.enabled),
        )

    def warm(self, *, delay: float = 0.2, timeout: Optional[float] = 60.0) -> List[int]:
        """Spawn and initialise every worker now; returns their pids.

        Each worker pays interpreter start-up, imports and engine
        construction exactly once; warming moves that cost out of the first
        submitted wave (service-style callers warm at deploy time).
        """
        self.start()
        from concurrent.futures import wait

        futures = [
            self._pool.submit(_worker_ping, delay) for _ in range(self.workers)
        ]
        wait(futures, timeout=timeout)
        return sorted({f.result() for f in futures if f.done() and not f.cancelled()})

    # ------------------------------------------------------------------ #
    def submit_wave(self, pairs: Sequence[Tuple[str, str]], *, wave_id=None):
        """Dispatch one wave of (pattern, text) pairs; returns its future.

        The pairs are the pool task's argument and the wave's alignments
        its result, both pickled.  ``wave_id`` labels the wave in
        worker-side trace spans.
        """
        self.start()
        # A fresh list: the pool pickles the argument later, on its feeder
        # thread, by which time the caller may have changed its own.
        pairs = [(pattern, text) for pattern, text in pairs]
        if not self.tracer.enabled:
            return self._pool.submit(_worker_align, pairs)
        future = self._pool.submit(_worker_align_traced, pairs, wave_id)
        # Traced waves resolve to (alignments, spans, worker name); callers
        # must still see a future of bare alignments, so wrap: absorb the
        # worker spans here and resolve the outer future with the payload.
        # The outer future stays pending until the wave finishes, so
        # cancelling either future cancels the other while the wave is
        # still queued (close(cancel=True) cancels the inner one).
        from concurrent.futures import Future

        outer: Future = Future()

        def _absorb(done) -> None:
            if done.cancelled():
                outer.cancel()
                return
            if not outer.set_running_or_notify_cancel():
                return  # the caller cancelled; the wave ran regardless
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            alignments, records, worker_name = done.result()
            self.tracer.absorb(records, process_name=worker_name)
            outer.set_result(alignments)

        def _cancel_wave(settled) -> None:
            if settled.cancelled():
                future.cancel()

        future.add_done_callback(_absorb)
        outer.add_done_callback(_cancel_wave)
        return outer

    def run_alignments(self, pairs: Sequence[Tuple[str, str]]) -> List:
        """Align ``pairs`` across the pool; results in input order.

        The batch is split into ``workers`` contiguous chunks, each
        dispatched as one wave, and the per-chunk results concatenated —
        order in, order out, byte-identical to the in-process engine.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        self.start()
        chunk_count = min(self.workers, len(pairs))
        size = math.ceil(len(pairs) / chunk_count)
        futures = [
            self.submit_wave(pairs[start : start + size])
            for start in range(0, len(pairs), size)
        ]
        out: List = []
        for future in futures:
            out.extend(future.result())
        return out

    # ------------------------------------------------------------------ #
    def close(self, *, cancel: bool = False) -> None:
        """Shut the pool down (idempotent).

        ``cancel=True`` drops queued waves instead of draining them (the
        mid-stream cancellation path); their futures end cancelled.
        """
        self._closed = True
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=cancel)

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-exit safety net
        try:
            self.close()
        except Exception:
            pass

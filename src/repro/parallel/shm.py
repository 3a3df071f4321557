"""Shared-memory execution: ship descriptors between processes, not arrays.

A plain spawn pool pickles its entire payload into every worker, task
by task.  This module inverts that, the way the paper's GPU design
keeps wave state resident and moves *work*:

* **Segments** (:class:`SharedSegment`) own one
  :mod:`multiprocessing.shared_memory` block with a deterministic
  close-and-unlink lifecycle (the creator unlinks; attachments never do —
  see :func:`_unregister_attachment`).
* **Layouts** (:class:`SegmentLayout`) describe named arrays packed into a
  segment — dtype/shape/offset metadata only, tiny and picklable.  What
  crosses a process boundary is the layout; the bytes stay put.
* **The executor** (:class:`SharedMemoryExecutor`): one spawn pool whose
  workers hold a warm :class:`~repro.batch.engine.BatchAlignmentEngine`.
  Waves are submitted as pair-block layouts (:func:`pack_pairs`); the
  streaming pipeline's align stage dispatches through it, and
  :meth:`SharedMemoryExecutor.run_alignments` aligns a batch on it with
  the same results as
  :meth:`~repro.batch.engine.BatchAlignmentEngine.align_pairs`.  It is
  the one way work leaves the calling process.

Alignments still return by pickle — results are small and owned by the
caller — and both sides of every handoff stay byte-identical to the
in-process paths, which the shared-memory tests and the differential
pipeline harness assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SharedSegment",
    "SegmentLayout",
    "pack_arrays",
    "pack_pairs",
    "unpack_pairs",
    "SharedMemoryExecutor",
]

#: Byte alignment of every array offset inside a segment.
_ALIGN = 8


def _unregister_attachment(shm) -> None:
    """Stop the resource tracker from adopting an *attached* segment.

    On Python ≤ 3.12, ``SharedMemory(name=...)`` registers the segment with
    the attaching process's resource tracker, which then unlinks it when
    that process exits — destroying a segment the creating process still
    owns (bpo-39959).  Attachments therefore unregister immediately;
    unlinking stays the creator's sole responsibility.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker layout is CPython detail
        pass


class SharedSegment:
    """One owned shared-memory block with deterministic unlink.

    The process that constructs a :class:`SharedSegment` owns the
    underlying segment: it must eventually call :meth:`unlink` (idempotent,
    also the context-manager exit) or the segment outlives the process.
    Other processes attach by name via :meth:`attach`, which never takes
    ownership.
    """

    def __init__(self, size: int) -> None:
        from multiprocessing import shared_memory

        self.shm = shared_memory.SharedMemory(create=True, size=max(1, int(size)))
        self._unlinked = False

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def buf(self):
        return self.shm.buf

    @staticmethod
    def attach(name: str):
        """Attach to an existing segment by name (no ownership taken)."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        _unregister_attachment(shm)
        return shm

    def close(self) -> None:
        try:
            self.shm.close()
        except BufferError:  # live views; the mapping unmaps at exit
            pass

    def unlink(self) -> None:
        """Close and remove the segment (idempotent, crash-tolerant)."""
        if self._unlinked:
            return
        self._unlinked = True
        self.close()
        try:
            # Re-register first: if this process also *attached* the segment,
            # the attach-side tracker workaround unregistered the name, and
            # unlink()'s own unregister would otherwise log a KeyError in the
            # resource-tracker process.
            from multiprocessing import resource_tracker

            resource_tracker.register(self.shm._name, "shared_memory")
            self.shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


@dataclass(frozen=True)
class SegmentLayout:
    """Named arrays packed back-to-back in one (shared) buffer.

    ``arrays`` maps each field to ``(dtype string, shape, byte offset)``;
    ``meta`` carries small picklable extras (name lists, parameters).  A
    layout plus its segment name is the complete cross-process handoff.
    """

    nbytes: int
    arrays: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    segment: Optional[str] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def views(self, buffer) -> Dict[str, np.ndarray]:
        """Materialise every array as a zero-copy view over ``buffer``."""
        out: Dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in self.arrays:
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            out[name] = np.frombuffer(
                buffer, dtype=np.dtype(dtype), count=count, offset=offset
            ).reshape(shape)
        return out

    def attach(self):
        """Attach the named segment; returns ``(shm, views)``.

        The caller closes ``shm`` when the views are no longer needed.
        """
        if self.segment is None:
            raise ValueError("layout does not name a shared-memory segment")
        shm = SharedSegment.attach(self.segment)
        return shm, self.views(shm.buf)


def pack_arrays(
    arrays: Dict[str, np.ndarray], *, meta: Optional[Dict[str, object]] = None
) -> Tuple[SharedSegment, SegmentLayout]:
    """Copy ``arrays`` into a fresh shared segment; returns (owner, layout)."""
    entries = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = -(-offset // _ALIGN) * _ALIGN
        entries.append((name, array.dtype.str, tuple(array.shape), offset))
        offset += array.nbytes
    segment = SharedSegment(offset)
    layout = SegmentLayout(
        nbytes=max(1, offset),
        arrays=tuple(entries),
        segment=segment.name,
        meta=dict(meta or {}),
    )
    for name, view in layout.views(segment.buf).items():
        view[...] = arrays[name]
    return segment, layout


# --------------------------------------------------------------------------- #
# String/pair blocks — the wave handoff payload
# --------------------------------------------------------------------------- #
def _string_block(strings: Sequence[str], prefix: str) -> Dict[str, np.ndarray]:
    data = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(data) + 1, dtype=np.int64)
    if data:
        np.cumsum([len(b) for b in data], out=offsets[1:])
    return {
        f"{prefix}_off": offsets,
        f"{prefix}_data": np.frombuffer(b"".join(data), dtype=np.uint8),
    }


def _string_block_decode(views: Dict[str, np.ndarray], prefix: str) -> List[str]:
    offsets = views[f"{prefix}_off"]
    blob = views[f"{prefix}_data"].tobytes()
    return [
        blob[offsets[i] : offsets[i + 1]].decode("utf-8")
        for i in range(len(offsets) - 1)
    ]


def pack_pairs(
    pairs: Sequence[Tuple[str, str]],
    *,
    meta: Optional[Dict[str, object]] = None,
) -> Tuple[SharedSegment, SegmentLayout]:
    """Pack (pattern, text) pairs into one segment; ship only the layout.

    ``meta`` rides along in the layout (small picklable extras — e.g. the
    ``wave_id`` worker-side trace spans tag themselves with).
    """
    arrays = {
        **_string_block([p for p, _ in pairs], "pattern"),
        **_string_block([t for _, t in pairs], "text"),
    }
    return pack_arrays(arrays, meta={**(meta or {}), "count": len(pairs)})


def unpack_pairs(layout: SegmentLayout) -> List[Tuple[str, str]]:
    """Rebuild the pair list from a shared pair block (attach, decode, close)."""
    shm, views = layout.attach()
    try:
        patterns = _string_block_decode(views, "pattern")
        texts = _string_block_decode(views, "text")
    finally:
        del views
        shm.close()
    return list(zip(patterns, texts))


# --------------------------------------------------------------------------- #
# Worker side of the executor (module-level so it pickles under spawn)
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
            self.tracer = Tracer(process_name=f"shm-worker-{os.getpid()}")
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


def _worker_align(layout: SegmentLayout) -> List:
    """Align one wave shipped as a shared pair block."""
    return _WORKER.engine.align_pairs(unpack_pairs(layout))


def _worker_align_traced(layout: SegmentLayout) -> Tuple[List, List, str]:
    """Traced :func:`_worker_align`: also ship this wave's spans back.

    Returns ``(alignments, span records, process name)``; the driver-side
    executor absorbs the records so cross-process waves land on the same
    exported timeline as the driver's stages.
    """
    tracer = _WORKER.tracer
    wave_id = layout.meta.get("wave_id")
    with tracer.span(
        "worker.align.wave", wave_id=wave_id, lanes=layout.meta.get("count")
    ):
        alignments = _WORKER.engine.align_pairs(unpack_pairs(layout))
    return alignments, tracer.drain(), tracer.process_name


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #
class SharedMemoryExecutor:
    """Spawn pool of warm engines that receive waves as shared segments.

    Parameters
    ----------
    workers:
        Worker process count.
    config:
        Aligner configuration shipped once at pool start (defaults to the
        paper's improved GenASM).
    tracer:
        Optional driver-side :class:`~repro.telemetry.trace.Tracer`.  When
        given (and enabled), each worker builds its own tracer, records a
        ``worker.align.wave`` span per wave, and ships the span records
        back with the wave's alignments; this executor absorbs them so one
        exported timeline covers driver stages and worker waves.

    The pool starts on first submit, :meth:`warm` or :meth:`start`.  The
    executor is reusable across pipeline runs — keeping it alive keeps
    the pool warm, which is the intended mode for service-style callers;
    :meth:`close` (or the context-manager exit) tears everything down and
    unlinks every segment this executor ever created.
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
        self._wave_segments: Dict[object, SharedSegment] = {}
        self._segment_names: List[str] = []
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
            raise RuntimeError("executor already closed")
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

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

        The pairs are packed into a per-wave shared segment and only the
        :class:`SegmentLayout` crosses the process boundary.  The segment
        is unlinked automatically when the wave completes (or fails, or is
        cancelled) — :meth:`close` sweeps any still outstanding.
        ``wave_id`` labels the wave in worker-side trace spans.
        """
        self.start()
        traced = self.tracer.enabled
        meta = {"wave_id": wave_id} if wave_id is not None else None
        segment, layout = pack_pairs(pairs, meta=meta)
        self._segment_names.append(segment.name)
        task = _worker_align_traced if traced else _worker_align
        try:
            future = self._pool.submit(task, layout)
        except BaseException:
            # Submission can fail after the segment exists (pool already
            # broken by a worker crash, or shutting down) — the segment
            # must not outlive the failed handoff.
            segment.unlink()
            raise
        self._wave_segments[future] = segment
        future.add_done_callback(self._release_wave_segment)
        if not traced:
            return future
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
    def _release_wave_segment(self, future) -> None:
        segment = self._wave_segments.pop(future, None)
        if segment is not None:
            segment.unlink()

    def outstanding_waves(self) -> int:
        """Waves whose segments are still owned (in flight)."""
        return len(self._wave_segments)

    def segment_names(self) -> List[str]:
        """Every segment name this executor ever created (test hook)."""
        return list(self._segment_names)

    def close(self, *, cancel: bool = False) -> None:
        """Shut the pool down and unlink every owned segment (idempotent).

        ``cancel=True`` drops queued waves instead of draining them (the
        mid-stream cancellation path); their segments are unlinked either
        way.
        """
        self._closed = True
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=cancel)
        for segment in list(self._wave_segments.values()):
            segment.unlink()
        self._wave_segments.clear()

    def __enter__(self) -> "SharedMemoryExecutor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-exit safety net
        try:
            self.close()
        except Exception:
            pass

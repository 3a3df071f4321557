"""Alignment as a service: many clients, shared waves, fair admission.

The paper's throughput story assumes *aggregate* demand — heavy traffic
from many independent users — yet every other entry point in this repo is
one caller with one read set.  :class:`AlignmentService` is the missing
front-end: clients :meth:`~AlignmentService.submit` batches of
``(pattern, text)`` pairs and get a
:class:`concurrent.futures.Future`; the service coalesces pairs from
*different* requests into shared lockstep waves, so wave fill — hence
engine efficiency — is driven by aggregate load, not by any single
client's batch size.

Design:

* **Per-request routing.**  Each admitted pair is wrapped in a
  :class:`ServiceWork` carrying its request and position; waves flow
  through the pipeline's :class:`~repro.pipeline.batcher.WaveAccumulator`
  and :class:`~repro.pipeline.alignstage.AlignStage` unchanged (the
  wrapper exposes ``pattern``/``text``), and completed lanes are routed
  back to the submitting request's future — a wave's lanes typically
  resolve several different clients' requests.  Waves run in-process, or
  on a caller's :class:`~repro.parallel.shm.SharedMemoryExecutor`.
* **Per-tenant fairness.**  Admission is a round-robin sweep taking one
  pair per tenant per cycle, and each tenant is capped at
  ``max_inflight_per_tenant`` admitted-but-unrouted pairs, so one huge
  request cannot starve small ones — the starvation regression test
  submits a 32-pair tenant next to a 4-pair tenant and asserts the small
  one completes first.
* **Single consumer.**  One :meth:`pump` drains queues into the
  accumulator, flushes waves, and routes results.  With
  ``autostart=True`` a daemon dispatcher thread pumps continuously; with
  ``autostart=False`` tests (and synchronous callers) call :meth:`pump` /
  :meth:`drain` themselves and, with an injectable ``clock``, get
  deterministic linger-timeout behaviour.

Every alignment stays byte-identical to an offline
:meth:`~repro.batch.BatchAlignmentEngine.align_pairs` call over the same
pairs — coalescing moves scheduling, never results — which the service
tests assert.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.config import GenASMConfig
from repro.pipeline.alignstage import AlignStage, WaveResult
from repro.pipeline.batcher import WaveAccumulator
from repro.service.stats import ServiceStats
from repro.telemetry.trace import get_tracer

__all__ = ["AlignmentService", "ServiceRequest", "ServiceWork"]


class ServiceRequest:
    """One client submission: its pairs, its future, its progress."""

    __slots__ = (
        "id",
        "tenant",
        "pairs",
        "future",
        "submitted_at",
        "trace_start",
        "remaining",
        "results",
    )

    def __init__(
        self,
        request_id: int,
        tenant: str,
        pairs: List[Tuple[str, str]],
        submitted_at: float,
        trace_start: float = 0.0,
    ) -> None:
        self.id = request_id
        self.tenant = tenant
        self.pairs = pairs
        self.future: Future = Future()
        # Mark running so clients cannot cancel a request whose pairs may
        # already ride in a shared wave with other tenants' work.
        self.future.set_running_or_notify_cancel()
        self.submitted_at = submitted_at
        #: Submit time on the *tracer's* clock (``submitted_at`` is on the
        #: service clock) — the routing side closes the request span with it.
        self.trace_start = trace_start
        self.remaining = len(pairs)
        self.results: List[object] = [None] * len(pairs)


class ServiceWork:
    """One pair of one request, shaped like the pipeline's wave items.

    Exposes ``pattern``/``text`` so :class:`WaveAccumulator` (work key)
    and :class:`AlignStage` (dispatch) consume it unchanged, plus the
    back-pointer the service routes the lane's alignment home with.
    """

    __slots__ = ("request", "index", "pattern", "text")

    def __init__(self, request: ServiceRequest, index: int, pattern: str, text: str) -> None:
        self.request = request
        self.index = index
        self.pattern = pattern
        self.text = text


class AlignmentService:
    """Alignment-as-a-service front-end over shared waves.

    Parameters
    ----------
    config:
        Aligner configuration shared by every request (defaults to the
        paper's improved GenASM).
    wave_size, max_pending, linger_seconds:
        Wave-coalescing policy, forwarded to the
        :class:`WaveAccumulator`.  ``linger_seconds`` bounds how long the
        first pair of a partial wave waits for co-tenants before the wave
        flushes anyway; ``None`` disables the timeout (the service then
        flushes partial waves only when no admissible work remains).
    max_inflight_per_tenant:
        Fairness cap: pairs one tenant may have admitted-but-unrouted at
        once.  Defaults to ``2 * wave_size``; ``0`` disables the limit.
    executor:
        Optional shared-memory executor (whose config must match),
        forwarded to :class:`AlignStage`; waves run in-process without
        one.  The executor stays caller-owned.
    clock:
        Monotonic time source for linger expiry and request latency
        (injectable for deterministic tests).
    autostart:
        Start the daemon dispatcher thread at construction.  With
        ``False`` the caller pumps: :meth:`pump`, :meth:`drain`,
        :meth:`close` drive everything synchronously and deterministically.
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`, shared with the
        accumulator and align stage.  Each submit records a
        ``service.submit`` instant; each completed request records one
        ``service.request`` span (tenant, request id, pairs) spanning
        submit to future resolution.
    name:
        Engine name (appears in alignment metadata).
    """

    def __init__(
        self,
        config: Optional[GenASMConfig] = None,
        *,
        wave_size: int = 64,
        max_pending: int = 256,
        linger_seconds: Optional[float] = 0.01,
        max_inflight_per_tenant: Optional[int] = None,
        executor=None,
        clock: Callable[[], float] = time.monotonic,
        autostart: bool = True,
        tracer=None,
        name: str = "genasm-service",
    ) -> None:
        if max_inflight_per_tenant is not None and max_inflight_per_tenant < 0:
            raise ValueError("max_inflight_per_tenant must be non-negative")
        self.max_inflight_per_tenant = (
            2 * wave_size if max_inflight_per_tenant is None else max_inflight_per_tenant
        )
        self.linger_seconds = linger_seconds
        self.stats = ServiceStats(wave_size=wave_size)
        self.tracer = get_tracer(tracer)
        self._align = AlignStage(
            config, executor=executor, name=name, tracer=self.tracer
        )
        engine = self._align.engine
        self._accumulator = WaveAccumulator(
            wave_size=wave_size,
            max_pending=max_pending,
            linger_seconds=linger_seconds,
            work_key=lambda work: float(engine.expected_work(len(work.pattern))),
            clock=clock,
            stats=self.stats.pipeline,
            tracer=self.tracer,
        )
        self._clock = clock
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queues: Dict[str, Deque[ServiceWork]] = {}
        self._ring: List[str] = []  # tenants with queued work, admission order
        self._inflight: Dict[str, int] = {}
        self._ids = itertools.count()
        self._open_requests = 0
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        if autostart:
            self.start()

    # ------------------------------------------------------------------ #
    @property
    def config(self) -> GenASMConfig:
        return self._align.config

    def start(self) -> None:
        """Start the daemon dispatcher thread (idempotent)."""
        if self._thread is not None:
            return
        if self._closed:
            raise RuntimeError("service already closed")
        self._thread = threading.Thread(
            target=self._loop, name="alignment-service-dispatch", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def submit(
        self, pairs: Sequence[Tuple[str, str]], *, tenant: str = "default"
    ) -> Future:
        """Queue one request of (pattern, text) pairs; returns its future.

        The future resolves to the request's alignments in **input pair
        order** (each pair's result is independent of which shared wave
        carried it, so results are byte-identical to an offline run over
        the same pairs).  Thread-safe: any number of client threads may
        submit concurrently, under any tenant label but ``"*"``, which the
        latency report uses for its cross-tenant aggregate.
        """
        if tenant == "*":
            raise ValueError('tenant "*" is reserved for the cross-tenant aggregate')
        pairs = [(pattern, text) for pattern, text in pairs]
        with self._wake:
            if self._closed:
                raise RuntimeError("service already closed")
            request = ServiceRequest(
                next(self._ids), tenant, pairs, self._clock(), self.tracer.now()
            )
            self.stats.record_submit(tenant, len(pairs))
            if self.tracer.enabled:
                self.tracer.instant(
                    "service.submit",
                    tenant=tenant,
                    request_id=request.id,
                    pairs=len(pairs),
                )
            if pairs:
                queue = self._queues.get(tenant)
                if queue is None:
                    queue = self._queues[tenant] = deque()
                for index, (pattern, text) in enumerate(pairs):
                    queue.append(ServiceWork(request, index, pattern, text))
                if tenant not in self._ring:
                    self._ring.append(tenant)
                self._open_requests += 1
                self._wake.notify_all()
        if not pairs:
            self.stats.record_request_done(tenant, request.id, 0.0, 0)
            request.future.set_result([])
        return request.future

    # ------------------------------------------------------------------ #
    # The single consumer
    # ------------------------------------------------------------------ #
    def pump(self, *, block: bool = False) -> bool:
        """One dispatch cycle: admit, flush, submit, collect, route.

        The single-consumer entry point — the dispatcher thread's loop
        body, or called directly in ``autostart=False`` mode.  Returns
        whether any progress was made (pairs admitted, waves dispatched,
        or results routed).  ``block=True`` waits for every in-flight
        wave before returning (the drain path).
        """
        with self._wake:
            admitted = self._admit_locked()
        waves: List[List[ServiceWork]] = []
        for work in admitted:
            waves.extend(self._accumulator.push(work))
        waves.extend(self._accumulator.poll())
        if not admitted and not waves and len(self._accumulator):
            # Nothing new joined and the linger policy didn't fire.  When
            # no admissible work could ever fill this partial wave (and the
            # align stage is idle, so nothing in flight will free tenant
            # capacity either), holding it any longer is a deadlock, not
            # patience: flush it.  With a linger timeout configured, leave
            # liveness to the timeout so late arrivals can still join.
            with self._wake:
                stuck = (
                    (self._closed or self.linger_seconds is None)
                    and self._align.pending_waves == 0
                    and not self._admissible_locked()
                )
                reason = "final" if self._closed else "idle"
            if stuck:
                waves.extend(self._accumulator.flush(reason=reason))
        for wave in waves:
            self._align.submit(wave)
        completed = self._align.collect(block=block)
        if completed:
            self._route(completed)
        return bool(admitted or waves or completed)

    def _admit_locked(self) -> List[ServiceWork]:
        """Round-robin sweep: one pair per tenant per cycle, capped.

        Tenants at their in-flight limit are skipped (their queued work
        stays put until routing frees capacity); tenants with emptied
        queues leave the ring until their next submit.  At most
        ``max_pending`` pairs are admitted per pump so one cycle never
        outruns the accumulator's own backpressure bound.
        """
        admitted: List[ServiceWork] = []
        budget = self._accumulator.max_pending
        limit = self.max_inflight_per_tenant
        while budget > 0 and self._ring:
            progress = False
            for tenant in list(self._ring):
                if budget <= 0:
                    break
                queue = self._queues.get(tenant)
                if not queue:
                    self._ring.remove(tenant)
                    continue
                inflight = self._inflight.get(tenant, 0)
                if limit and inflight >= limit:
                    continue
                work = queue.popleft()
                self._inflight[tenant] = inflight + 1
                self.stats.record_admitted(tenant, inflight + 1)
                admitted.append(work)
                budget -= 1
                progress = True
            if not progress:
                break
        return admitted

    def _admissible_locked(self) -> bool:
        """Whether any queued pair could be admitted right now."""
        limit = self.max_inflight_per_tenant
        return any(
            queue and not (limit and self._inflight.get(tenant, 0) >= limit)
            for tenant, queue in self._queues.items()
        )

    def _route(self, completed: List[Tuple[List[ServiceWork], WaveResult]]) -> None:
        """Hand each finished lane back to its request; resolve futures.

        A wave that raised fails every request with a lane in it, with
        that exception; the requests' other lanes are dropped as they
        arrive, and every other request is served as usual.
        """
        now = self._clock()
        finished: List[ServiceRequest] = []
        failed: List[Tuple[ServiceRequest, Exception]] = []
        with self._wake:
            for wave, alignments in completed:
                error = alignments if isinstance(alignments, Exception) else None
                for position, work in enumerate(wave):
                    request = work.request
                    self._inflight[request.tenant] -= 1
                    if request.remaining == 0:
                        continue  # the request already failed
                    if error is not None:
                        request.remaining = 0
                        failed.append((request, error))
                        self._open_requests -= 1
                        continue
                    alignment = alignments[position]
                    self.stats.pipeline.record_traceback(alignment.metadata)
                    request.results[work.index] = alignment
                    request.remaining -= 1
                    if request.remaining == 0:
                        finished.append(request)
                        self._open_requests -= 1
            if finished or failed:
                self._wake.notify_all()
        for request, error in failed:
            self.stats.record_request_failed()
            request.future.set_exception(error)
        for request in finished:
            self.stats.record_request_done(
                request.tenant, request.id, now - request.submitted_at, len(request.pairs)
            )
            if self.tracer.enabled:
                self.tracer.record_span(
                    "service.request",
                    start=request.trace_start,
                    end=self.tracer.now(),
                    tenant=request.tenant,
                    request_id=request.id,
                    pairs=len(request.pairs),
                )
            request.future.set_result(request.results)

    # ------------------------------------------------------------------ #
    # Dispatcher thread
    # ------------------------------------------------------------------ #
    def _loop(self) -> None:
        while True:
            progress = self.pump()
            if progress:
                continue
            with self._wake:
                if self._closed and self._open_requests == 0:
                    return
                self._wake.wait(self._wait_timeout_locked())

    def _wait_timeout_locked(self) -> float:
        """Idle sleep sized to the nearest thing worth waking for."""
        if self._align.pending_waves:
            return 0.002  # results land soon; poll tightly
        age = self._accumulator.oldest_age()
        if age is not None and self.linger_seconds is not None:
            # Wake just as the partial wave's linger bound expires.
            return max(0.001, self.linger_seconds - age)
        return 0.05

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def drain(self) -> None:
        """Block until every accepted request's future has resolved."""
        if self._thread is not None:
            with self._wake:
                self._wake.wait_for(lambda: self._open_requests == 0)
            return
        while True:
            with self._wake:
                if self._open_requests == 0:
                    return
            if not self.pump(block=True):
                # Idle with a lingering partial wave (real clock, timeout
                # not yet expired): a drain wants it now.
                waves = self._accumulator.flush(reason="idle")
                for wave in waves:
                    self._align.submit(wave)
                if not waves:
                    raise RuntimeError(
                        "service drain stalled with unresolved requests"
                    )

    def close(self) -> None:
        """Stop accepting and drain everything (idempotent).

        A caller-provided ``executor`` stays caller-owned and running.
        """
        with self._wake:
            self._closed = True
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        while True:
            with self._wake:
                if self._open_requests == 0:
                    break
            if not self.pump(block=True):
                raise RuntimeError("service close stalled with unresolved requests")

    def __enter__(self) -> "AlignmentService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

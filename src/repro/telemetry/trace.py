"""Trace layer: lightweight spans and instant events with injectable clocks.

The repro's performance story is built from *timelines* — which stage the
driver was blocked on, which wave a worker was aligning, how long a
tenant's request sat between submit and route — but until this module the
only timing surface was aggregate counters
(:class:`~repro.pipeline.stats.PipelineStats.stage_seconds`).  A
:class:`Tracer` records those timelines as **spans** (named intervals with
monotonic start/end timestamps and small attribute dicts) and **instant
events** (named points, e.g. a wave flush), buffered thread-safely and
exported through :mod:`repro.telemetry.exporters` as Chrome-trace JSON
that ``chrome://tracing`` / Perfetto load directly.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  Every instrumented call site
   does ``with tracer.span("stage.align"):`` unconditionally; when the
   tracer is the module-level :data:`NULL_TRACER` (the default everywhere)
   that is one method call returning a shared no-op context manager — no
   allocation, no clock read, no branch at the call site.  The <2 %
   disabled-overhead budget is met by keeping the hot engine loops
   untraced entirely (the engine reports per-alignment counts in
   alignment metadata, not spans) and the pipeline/service
   instrumentation behind this no-op path.
2. **Cross-process timelines.**  Worker processes build their own
   :class:`Tracer` (:mod:`repro.parallel.shm` enables it in the worker
   initializer), record wave spans, and :meth:`Tracer.drain` them into the
   picklable :class:`SpanRecord` list shipped back alongside the wave's
   alignments; the driver-side tracer :meth:`Tracer.absorb`\\ s them so one
   export shows driver stages and worker waves on one timeline (separate
   ``pid`` tracks).
3. **Injectable clock.**  Defaults to :func:`time.perf_counter`; tests
   inject a fake clock for deterministic span durations.  Spans recorded
   with explicit timestamps (:meth:`Tracer.record_span`) must use the same
   clock domain — :meth:`Tracer.now` exposes it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "get_tracer",
]

#: Buffered events retained per tracer before the oldest are dropped (a
#: long-lived service traces forever; the bound keeps memory flat, and
#: :attr:`Tracer.dropped` makes any truncation observable).
DEFAULT_BUFFER_LIMIT = 200_000


@dataclass(frozen=True)
class SpanRecord:
    """One finished span or instant event (picklable, clock-domain seconds).

    ``kind`` is ``"span"`` (an interval — ``end >= start``) or
    ``"instant"`` (a point — ``end == start``).  ``pid``/``tid`` identify
    the recording process and thread so multi-process timelines render as
    separate tracks; ``attrs`` carries small JSON-able attributes (wave
    ids, lane counts, tenants, flush causes).
    """

    name: str
    start: float
    end: float
    pid: int
    tid: int
    kind: str = "span"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ActiveSpan:
    """Context manager for one in-flight span (append-on-exit)."""

    __slots__ = ("_tracer", "name", "attrs", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self.start = self._tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        tracer._append(
            SpanRecord(
                name=self.name,
                start=self.start,
                end=tracer.clock(),
                pid=tracer.pid,
                tid=threading.get_ident(),
                kind="span",
                attrs=self.attrs,
            )
        )


class Tracer:
    """Thread-safe buffering recorder of spans and instant events.

    Parameters
    ----------
    clock:
        Monotonic time source shared by every span this tracer records
        (injectable for deterministic tests).  Explicit-timestamp APIs
        (:meth:`record_span`) interpret their arguments in this clock's
        domain.
    buffer_limit:
        Events retained; once full, the *oldest* events are dropped and
        :attr:`dropped` counts them.
    process_name:
        Human label for this process's track in exported timelines.
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
        process_name: Optional[str] = None,
    ) -> None:
        if buffer_limit < 1:
            raise ValueError("buffer_limit must be at least 1")
        self.clock = clock
        self.buffer_limit = buffer_limit
        self.pid = os.getpid()
        self.process_name = (
            process_name if process_name is not None else f"pid-{self.pid}"
        )
        #: process_name per pid, seeded with this tracer's own and extended
        #: by every absorb() — the exporter labels tracks from this.
        self.process_names: Dict[int, str] = {self.pid: self.process_name}
        #: events dropped to the buffer bound (0 in healthy runs)
        self.dropped = 0
        self._records: List[SpanRecord] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def now(self) -> float:
        """Current time on this tracer's clock (for explicit-span callers)."""
        return self.clock()

    def span(self, name: str, **attrs: object) -> _ActiveSpan:
        """Context manager recording one span around the enclosed block."""
        return _ActiveSpan(self, name, attrs)

    def instant(self, name: str, **attrs: object) -> None:
        """Record one point event at the current time."""
        now = self.clock()
        self._append(
            SpanRecord(
                name=name,
                start=now,
                end=now,
                pid=self.pid,
                tid=threading.get_ident(),
                kind="instant",
                attrs=attrs,
            )
        )

    def record_span(
        self, name: str, *, start: float, end: float, **attrs: object
    ) -> None:
        """Record a span with explicit timestamps (this tracer's clock).

        For intervals that cannot wrap a ``with`` block — a service
        request's submit-to-complete life crosses threads, so the routing
        side records it from the request's stamped start.
        """
        self._append(
            SpanRecord(
                name=name,
                start=start,
                end=end,
                pid=self.pid,
                tid=threading.get_ident(),
                kind="span",
                attrs=attrs,
            )
        )

    # ------------------------------------------------------------------ #
    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
            if len(self._records) > self.buffer_limit:
                overflow = len(self._records) - self.buffer_limit
                del self._records[:overflow]
                self.dropped += overflow

    def absorb(self, records: Iterable[SpanRecord], *, process_name: Optional[str] = None) -> None:
        """Merge records drained from another tracer (e.g. a worker process).

        Worker spans keep their own ``pid``/``tid``, so they render as
        separate tracks of the same timeline; ``process_name`` labels
        those tracks (one name per distinct pid is enough).
        """
        records = list(records)
        with self._lock:
            for record in records:
                if process_name is not None and record.pid not in self.process_names:
                    self.process_names[record.pid] = process_name
                self._records.append(record)
            if len(self._records) > self.buffer_limit:
                overflow = len(self._records) - self.buffer_limit
                del self._records[:overflow]
                self.dropped += overflow

    def records(self) -> List[SpanRecord]:
        """Snapshot of every buffered event (buffer retained)."""
        with self._lock:
            return list(self._records)

    def drain(self) -> List[SpanRecord]:
        """Pop and return every buffered event (the worker-side handoff)."""
        with self._lock:
            records, self._records = self._records, []
            return records

    def clear(self) -> None:
        with self._lock:
            self._records = []
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class _NullSpan:
    """Shared no-op context manager (the disabled-tracing hot path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op :class:`Tracer` twin: every call is a constant-time no-op.

    Instrumented code never branches on "is tracing on" — it calls the
    same API on whichever tracer it was given, and this class makes the
    disabled path nearly free (``span()`` returns one shared object; no
    clock reads, no allocation, nothing buffered).
    """

    enabled = False
    pid = 0
    process_name = "null"
    dropped = 0

    def now(self) -> float:
        return 0.0

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attrs: object) -> None:
        return None

    def record_span(self, name: str, *, start: float, end: float, **attrs: object) -> None:
        return None

    def absorb(self, records, *, process_name: Optional[str] = None) -> None:
        return None

    def records(self) -> List[SpanRecord]:
        return []

    def drain(self) -> List[SpanRecord]:
        return []

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


#: The shared disabled tracer every instrumented component defaults to.
NULL_TRACER = NullTracer()


def get_tracer(tracer: Optional[object]) -> object:
    """Normalise an optional tracer argument (``None`` → :data:`NULL_TRACER`)."""
    return tracer if tracer is not None else NULL_TRACER

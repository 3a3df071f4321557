"""Timed batch execution of alignment workloads.

The paper's CPU evaluation runs every aligner over the full candidate-pair
set with 48 threads.  :class:`BatchExecutor` provides the equivalent batch
layer for this library: :meth:`BatchExecutor.run_alignments` aligns a
batch of (pattern, text) pairs through the :mod:`repro.execution` dispatch
and times it.  Three backends are accepted:

``serial``
    A plain Python loop over the scalar aligner (the default, and the
    mode used by the automated benchmarks to keep them deterministic).
``vectorized``
    The NumPy structure-of-arrays engine from :mod:`repro.batch`, which
    evaluates many window pairs in lockstep and produces byte-identical
    alignments to the serial path.
``shared``
    The vectorized engine on a warm spawn pool
    (:class:`repro.parallel.shm.SharedMemoryExecutor`), with waves shipped
    as shared-memory descriptors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.core.alignment import Alignment
from repro.core.config import GenASMConfig
from repro.execution import BACKENDS, align_pairs

__all__ = [
    "Stopwatch",
    "BatchResult",
    "BatchExecutor",
    "BACKENDS",
]

R = TypeVar("R")


class Stopwatch:
    """Minimal wall-clock stopwatch with split support.

    ``elapsed`` accumulates across start/stop cycles, so one instance can
    time several non-contiguous phases of a run.
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("stopwatch was not started")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def reset(self) -> None:
        """Forget any accumulated time (and any running split)."""
        self._start = None
        self.elapsed = 0.0


@dataclass
class BatchResult(Generic[R]):
    """Results plus timing of one batch run."""

    results: List[R]
    elapsed_seconds: float
    items: int
    workers: int = 1
    name: str = "batch"
    backend: str = "serial"
    metadata: dict = field(default_factory=dict)

    @property
    def items_per_second(self) -> float:
        """Throughput of the run."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.items / self.elapsed_seconds

    def speedup_over(self, other: "BatchResult") -> float:
        """Throughput ratio of this run over ``other`` (same item count assumed).

        Degenerate runs map to documented values instead of the ``nan`` /
        ``ZeroDivisionError`` the naive throughput ratio would produce.
        The ratio is defined over :attr:`items_per_second` (which reports
        ``inf`` for instantaneous runs, ``0.0`` for zero-item timed runs):
        equal throughputs — including two instantaneous runs
        (``inf / inf``) and two zero-item timed runs (``0 / 0``) — are
        indistinguishable and the speedup is defined as ``1.0``; when only
        ``other`` has zero throughput the ratio is ``inf``, and when only
        this run does it is ``0.0``.
        """
        mine = self.items_per_second
        theirs = other.items_per_second
        if mine == theirs:
            return 1.0
        if theirs == 0:
            return float("inf")
        return mine / theirs


class BatchExecutor:
    """Align batches of (pattern, text) pairs and time each run.

    Parameters
    ----------
    workers:
        Process count for the ``shared`` backend.
    backend:
        Default backend for :meth:`run_alignments` — one of
        :data:`BACKENDS`.
    """

    def __init__(self, workers: int = 1, backend: str = "serial") -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.workers = workers
        self.backend = backend

    def run_alignments(
        self,
        pairs: Sequence[Tuple[str, str]],
        config: Optional[GenASMConfig] = None,
        *,
        name: str = "genasm-batch",
        backend: Optional[str] = None,
        executor=None,
    ) -> BatchResult[Alignment]:
        """Align a batch of (pattern, text) pairs with GenASM.

        ``backend`` (defaulting to the executor's) is one of
        :data:`BACKENDS`.  Every backend produces identical alignments
        (CIGAR, edit distance, consumed text span) for the same pairs and
        config; they differ only in how the work moves.  ``executor``
        threads a reusable :class:`repro.parallel.shm.SharedMemoryExecutor`
        into ``shared``.  The result's ``backend`` and ``workers`` name
        what actually ran: ``shared`` with one worker and no executor runs
        the in-process engine and reports ``vectorized``.
        """
        config = config if config is not None else GenASMConfig()
        watch = Stopwatch()
        watch.start()
        results, ran = align_pairs(
            pairs,
            config,
            backend=backend if backend is not None else self.backend,
            workers=self.workers,
            executor=executor,
        )
        elapsed = watch.stop()
        workers = 1
        if ran == "shared":
            workers = executor.workers if executor is not None else self.workers
        return BatchResult(
            results=list(results),
            elapsed_seconds=elapsed,
            items=len(pairs),
            workers=workers,
            name=name,
            backend=ran,
            metadata={"config": config},
        )

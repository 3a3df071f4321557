"""Batch execution utilities for the CPU evaluation.

:class:`BatchExecutor` times alignment batches run through the
:mod:`repro.execution` dispatch — ``serial`` (Python loop), ``vectorized``
(the lockstep SoA engine from :mod:`repro.batch`) and ``shared``
(zero-copy shared-memory pool, :mod:`repro.parallel.shm`) — all of which
produce identical alignments for the same pairs and config.
:class:`SharedMemoryExecutor` is the warm pool behind ``shared``: it hosts
the reference genome and minimizer index in shared segments built once and
ships waves as descriptors, not arrays.
"""

from repro.parallel.executor import (
    BACKENDS,
    BatchExecutor,
    BatchResult,
    Stopwatch,
)
from repro.parallel.shm import (
    SegmentLayout,
    SharedGenome,
    SharedMemoryExecutor,
    SharedMinimizerIndex,
    SharedSegment,
)

__all__ = [
    "BACKENDS",
    "BatchExecutor",
    "BatchResult",
    "SegmentLayout",
    "SharedGenome",
    "SharedMemoryExecutor",
    "SharedMinimizerIndex",
    "SharedSegment",
    "Stopwatch",
]

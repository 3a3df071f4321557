"""Shared-memory execution for the CPU evaluation.

:class:`SharedMemoryExecutor` is a warm spawn pool whose workers hold the
vectorized engine from :mod:`repro.batch` and receive waves as
shared-memory descriptors, not arrays.  Its
:meth:`~SharedMemoryExecutor.run_alignments` returns alignments identical
to :meth:`repro.batch.BatchAlignmentEngine.align_pairs` over the same
pairs.
"""

from repro.parallel.shm import (
    SegmentLayout,
    SharedMemoryExecutor,
    SharedSegment,
)

__all__ = [
    "SegmentLayout",
    "SharedMemoryExecutor",
    "SharedSegment",
]

"""Shared-memory execution for the CPU evaluation.

:class:`SharedMemoryExecutor` is a warm spawn pool whose workers hold the
vectorized engine from :mod:`repro.batch`: it hosts the reference genome
and minimizer index in shared segments built once and ships waves as
descriptors, not arrays.  Its :meth:`~SharedMemoryExecutor.run_alignments`
returns alignments identical to
:meth:`repro.batch.BatchAlignmentEngine.align_pairs` over the same pairs.
"""

from repro.parallel.shm import (
    SegmentLayout,
    SharedGenome,
    SharedMemoryExecutor,
    SharedMinimizerIndex,
    SharedSegment,
)

__all__ = [
    "SegmentLayout",
    "SharedGenome",
    "SharedMemoryExecutor",
    "SharedMinimizerIndex",
    "SharedSegment",
]

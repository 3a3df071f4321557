"""Multi-process execution for the CPU evaluation.

:class:`WorkerPool` is a warm spawn pool whose workers hold the
vectorized engine from :mod:`repro.batch`; each wave's pairs go to a
worker by pickle and its alignments come back the same way.  Its
:meth:`~WorkerPool.run_alignments` returns alignments identical to
:meth:`repro.batch.BatchAlignmentEngine.align_pairs` over the same pairs.
"""

from repro.parallel.pool import WorkerPool

__all__ = ["WorkerPool"]

"""One dispatch over the three batch-alignment backends.

:meth:`repro.parallel.executor.BatchExecutor.run_alignments`,
:meth:`repro.mapping.mapper.Mapper.align_candidates` and
:class:`repro.harness.grid.GridRunner` all align their pairs through
:func:`align_pairs`.  Every backend returns byte-identical alignments in
input order for the same pairs and config; they differ only in how the
work moves:

========== ============================== =============================
backend    copy semantics                 traceback
========== ============================== =============================
serial     none (in-process loop)         scalar bitvector walk
vectorized none (in-process SoA waves)    lockstep decision-word walk
shared     shared-memory descriptors to   lockstep decision-word walk
           a warm spawn pool              per worker
========== ============================== =============================

The streaming pipeline and the alignment service are not backends: drive
:class:`repro.pipeline.StreamingPipeline` and
:class:`repro.service.AlignmentService` directly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.alignment import Alignment
from repro.core.config import GenASMConfig

__all__ = ["BACKENDS", "align_pairs"]

#: Backend names accepted by :func:`align_pairs`.
BACKENDS = ("serial", "vectorized", "shared")


def align_pairs(
    pairs: Sequence[Tuple[str, str]],
    config: GenASMConfig,
    *,
    backend: str = "serial",
    workers: int = 1,
    executor=None,
) -> Tuple[List[Alignment], str]:
    """Align ``pairs`` with ``backend``; returns (alignments, backend that ran).

    ``shared`` runs on ``executor`` (a caller-owned, reusable
    :class:`repro.parallel.shm.SharedMemoryExecutor` whose config must
    equal ``config``) or on a temporary ``workers``-process one.  With
    neither an executor nor more than one worker there is no pool to
    share, so the in-process engine runs and ``"vectorized"`` is reported.
    ``workers`` has no effect on ``serial`` and ``vectorized``.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "serial":
        from repro.core.aligner import GenASMAligner

        aligner = GenASMAligner(config)
        return [aligner.align(pattern, text) for pattern, text in pairs], "serial"
    if backend == "shared" and executor is not None:
        if executor.config != config:
            raise ValueError(
                "provided SharedMemoryExecutor was built with a different config"
            )
        return executor.run_alignments(pairs), "shared"
    if backend == "shared" and workers > 1:
        from repro.parallel.shm import SharedMemoryExecutor

        with SharedMemoryExecutor(workers=workers, config=config) as owned:
            return owned.run_alignments(pairs), "shared"
    from repro.batch import BatchAlignmentEngine

    return BatchAlignmentEngine(config).align_pairs(pairs), "vectorized"

"""Map stage: candidate generation over a read stream.

Wraps a :class:`repro.mapping.mapper.Mapper` behind a submit/collect
interface so the pipeline driver can overlap mapping with ingest and wave
execution.  Without an executor mapping is inline at submit time
(deterministic and dependency-free); with an ``executor``
(:class:`repro.parallel.shm.SharedMemoryExecutor` built over the same
mapper) reads are mapped on its worker *processes* against the genome and
minimizer index hosted in shared memory, behind a bounded in-flight
window — seed-and-chain makes many small NumPy calls per read and holds
the GIL through most of them, so only processes overlap mapping with
itself.  Results are always collected in read
submission order, so the pipeline's output order never depends on process
timing.

Every mapped read yields its candidates in :meth:`Mapper.map_sequence`
order — the exact order the offline path (:meth:`Mapper.map_reads` →
:meth:`repro.batch.BatchAlignmentEngine.align_pairs`) produces, which is
what makes the streaming results byte-comparable to the offline ones.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.mapping.mapper import CandidateMapping, Mapper
from repro.pipeline.ingest import ReadRecord
from repro.pipeline.window import InflightWindow

__all__ = ["MapStage", "MappedRead"]

#: One mapped read: the record plus its candidate (mapping, pattern, text)
#: triples in mapper order.
MappedRead = Tuple[ReadRecord, List[Tuple[CandidateMapping, str, str]]]


class MapStage:
    """Bounded-window mapping stage over a :class:`Mapper`.

    Parameters
    ----------
    mapper:
        The minimizer mapper producing candidates.
    executor:
        Optional :class:`repro.parallel.shm.SharedMemoryExecutor` hosting
        this mapper's genome and index; when given, reads are mapped on
        its worker processes, with at most ``max(2, 4 * executor.workers)``
        reads in flight before :meth:`collect` blocks on the oldest one.
        Caller-owned: the stage never shuts it down.
    """

    def __init__(self, mapper: Mapper, *, executor=None) -> None:
        if executor is not None and executor.mapper is None:
            raise ValueError(
                "shared-memory executor was built without a mapper; "
                "pass mapper= when constructing it"
            )
        if executor is not None and executor.mapper is not mapper:
            raise ValueError(
                "shared-memory executor hosts a different mapper than this "
                "stage was given"
            )
        self.mapper = mapper
        self.executor = executor
        workers = executor.workers if executor is not None else 1
        self._window = InflightWindow(max(2, 4 * workers))

    # ------------------------------------------------------------------ #
    def map_record(self, record: ReadRecord) -> List[Tuple[CandidateMapping, str, str]]:
        """Map one read; returns (candidate, pattern, text) in mapper order."""
        candidates = self.mapper.map_sequence(record.name, record.sequence)
        return [
            (candidate,)
            + self.mapper.candidate_region_sequence(candidate, record.sequence)
            for candidate in candidates
        ]

    def submit(self, record: ReadRecord) -> None:
        """Queue one read for mapping (inline, or on the executor)."""
        if self.executor is not None:
            pending = self.executor.submit_map(record.name, record.sequence)
        else:
            pending = self.map_record(record)
        self._window.append(record, pending)

    def collect(self, *, block: bool = False) -> List[MappedRead]:
        """Pop completed reads from the front of the queue, in read order.

        Non-blocking by default: returns the finished prefix, waiting only
        when the in-flight window is exceeded.  With ``block=True``
        everything queued is waited for (the end-of-stream drain).
        """
        return self._window.collect(block=block)

    def drain(self) -> List[MappedRead]:
        """Wait for and return every read still in flight, in read order."""
        return self.collect(block=True)

"""Streaming alignment pipeline: overlap ingest, mapping and wave execution.

The offline harness runs the paper's pipeline in strict phases — simulate
or load every read, map every read to its candidate list, then push one
materialised pair list through
:meth:`repro.batch.BatchAlignmentEngine.align_pairs`.  Nothing aligns
until everything has mapped.  This package is the streaming
counterpart:

* :mod:`~repro.pipeline.ingest` — lazy read records from simulators,
  iterables or FASTA/FASTQ files (:func:`stream_reads`);
* :mod:`~repro.pipeline.batcher` — the wave accumulator: sorted
  expected-work grouping with a ``max_pending`` backpressure bound and
  flush-on-size / flush-on-timeout (:class:`WaveAccumulator`);
* :mod:`~repro.pipeline.alignstage` — wave-granular dispatch to
  :class:`repro.batch.BatchAlignmentEngine`, in process or on a worker
  pool's workers, which receive each wave's pairs by pickle
  (:class:`AlignStage`);
* :mod:`~repro.pipeline.stats` — per-stage wall time, queue occupancy and
  wave fill efficiency (:class:`PipelineStats`);
* :mod:`~repro.pipeline.pipeline` — the driver
  (:class:`StreamingPipeline`), mapping each read inline as it is
  ingested and emitting :class:`MappedAlignment` results in candidate
  input order, byte-identical to the offline path.

Quickstart::

    from repro.mapping.mapper import Mapper
    from repro.pipeline import StreamingPipeline

    pipeline = StreamingPipeline(Mapper(genome))
    for result in pipeline.run(reads):          # results stream in order
        print(result.read_name, result.alignment.cigar)
    print(pipeline.stats.summary())
"""

from repro.pipeline.alignstage import AlignStage
from repro.pipeline.batcher import WaveAccumulator
from repro.pipeline.ingest import ReadRecord, stream_reads
from repro.pipeline.pipeline import CandidateWork, MappedAlignment, StreamingPipeline
from repro.pipeline.stats import FLUSH_CAUSES, PIPELINE_STAGES, PipelineStats

__all__ = [
    "AlignStage",
    "CandidateWork",
    "FLUSH_CAUSES",
    "MappedAlignment",
    "PIPELINE_STAGES",
    "PipelineStats",
    "ReadRecord",
    "StreamingPipeline",
    "WaveAccumulator",
    "stream_reads",
]

"""The streaming pipeline driver: ingest → map → batch → align → emit.

:class:`StreamingPipeline` joins the stages of :mod:`repro.pipeline` into
one overlapped dataflow.  Reads are pulled lazily from the source, mapped
to candidate pairs inline, accumulated into work-sorted waves with bounded
backpressure, aligned wave-at-a-time by the vectorized engine (in process,
or on a caller's :class:`~repro.parallel.pool.WorkerPool`), and
emitted as :class:`MappedAlignment` results **in candidate input order**
— the exact order, CIGARs and metadata of the offline path
(:meth:`Mapper.map_reads` → :meth:`BatchAlignmentEngine.align_pairs`),
which the differential tests pin byte for byte.

The offline harness instead materialises every candidate pair before the
first wave runs; here each wave is dispatched as soon as it fills, while
later reads are still to be ingested and mapped, and with an executor
independent waves run on worker processes — each receiving its wave's
pairs by pickle — while this process maps on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.batch.engine import check_engine_config
from repro.core.alignment import Alignment
from repro.core.config import GenASMConfig
from repro.mapping.mapper import CandidateMapping, Mapper
from repro.pipeline.alignstage import AlignStage, WaveResult
from repro.pipeline.batcher import WaveAccumulator
from repro.pipeline.ingest import ReadRecord, stream_reads
from repro.pipeline.stats import PipelineStats
from repro.telemetry.trace import get_tracer

__all__ = ["CandidateWork", "MappedAlignment", "StreamingPipeline"]


@dataclass(frozen=True)
class CandidateWork:
    """One candidate (pattern, text) pair flowing through the pipeline.

    ``order`` is the global candidate ordinal (reads in input order,
    candidates in mapper order within a read) — the key the emit stage
    reorders by.  ``read``/``candidate`` are ``None`` when the work came
    from a bare pair list (:meth:`StreamingPipeline.align_pairs`).
    """

    order: int
    read: Optional[ReadRecord]
    candidate: Optional[CandidateMapping]
    pattern: str
    text: str


@dataclass(frozen=True)
class MappedAlignment:
    """One emitted result: the alignment plus its mapping provenance."""

    order: int
    read: Optional[ReadRecord]
    candidate: Optional[CandidateMapping]
    alignment: Alignment

    @property
    def read_name(self) -> str:
        if self.read is not None:
            return self.read.name
        if self.candidate is not None:
            return self.candidate.read_name
        return ""


class StreamingPipeline:
    """Staged streaming read-mapping + alignment pipeline.

    Parameters
    ----------
    mapper:
        Candidate generator for :meth:`run`.  Optional —
        :meth:`align_pairs` streams pre-built pairs without one.
    config:
        Aligner configuration (defaults to the paper's improved GenASM).
        :meth:`run` and :meth:`align_pairs` refuse one the engine does not
        run before they ingest anything
        (:func:`~repro.batch.engine.check_engine_config`).
    wave_size:
        Lanes per dispatched wave (also the engine's ``max_lanes``).
    max_pending:
        Wave-accumulator backpressure bound (see
        :class:`~repro.pipeline.batcher.WaveAccumulator`).
    linger_seconds:
        Accumulator flush timeout; ``None`` disables it.
    executor:
        Optional :class:`repro.parallel.pool.WorkerPool`.  Waves are
        aligned on its workers; reads are always mapped inline, in this
        process.  Caller-owned and reusable across runs; keep it warm
        (:meth:`~repro.parallel.pool.WorkerPool.warm`) to pay worker
        spawn once, not per run.
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`.  When given, each
        stage block records a ``stage.{ingest,map,batch,align,emit}`` span,
        the accumulator emits ``wave.flush`` instants, the align stage
        records per-wave spans (and worker-side ``worker.align.wave``
        spans arrive through a traced
        :class:`~repro.parallel.pool.WorkerPool`), and the whole
        run closes with one ``pipeline.run`` span — export with
        :func:`repro.telemetry.exporters.write_chrome_trace`.  Defaults to
        the no-op :data:`~repro.telemetry.trace.NULL_TRACER`.

    After a run, :attr:`stats` holds the :class:`PipelineStats` of the most
    recent :meth:`run` / :meth:`align_pairs` call.
    """

    def __init__(
        self,
        mapper: Optional[Mapper] = None,
        config: Optional[GenASMConfig] = None,
        *,
        wave_size: int = 128,
        max_pending: int = 512,
        linger_seconds: Optional[float] = None,
        executor=None,
        tracer=None,
        name: str = "genasm-streaming",
    ) -> None:
        self.mapper = mapper
        self.config = config if config is not None else GenASMConfig()
        if wave_size < 1:
            raise ValueError("wave_size must be at least 1")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.wave_size = wave_size
        self.max_pending = max_pending
        self.linger_seconds = linger_seconds
        self.executor = executor
        self.tracer = get_tracer(tracer)
        self.name = name
        #: Stats of the most recent run (populated even on partial
        #: consumption of the generator).
        self.stats: Optional[PipelineStats] = None

    # ------------------------------------------------------------------ #
    def _build_accumulator(self, stats: PipelineStats, align: AlignStage) -> WaveAccumulator:
        # Waves group lanes by the same expected-work model the engine's
        # own scheduler sorts by — window count × words per lane,
        # so wide-window (short-read) configs group narrow fragments away
        # from full multi-word lanes; reuse the align stage's in-process
        # engine rather than building one just for the estimate.
        engine = align.engine
        return WaveAccumulator(
            wave_size=self.wave_size,
            max_pending=self.max_pending,
            linger_seconds=self.linger_seconds,
            work_key=lambda work: float(engine.expected_work(len(work.pattern))),
            stats=stats,
            tracer=self.tracer,
        )

    # ------------------------------------------------------------------ #
    def run(
        self, reads: Union[str, Iterable], *, sink=None
    ) -> Iterator[MappedAlignment]:
        """Stream reads end to end; yields results in candidate input order.

        ``reads`` is anything :func:`repro.pipeline.ingest.stream_reads`
        accepts (a FASTA/FASTQ path, simulated reads, name/sequence tuples,
        bare strings).  Results appear as soon as their wave completes and
        every earlier candidate has been emitted.

        ``sink`` is the emit-sink seam: an object with ``write(result)``
        and ``finish()`` — e.g. :class:`repro.io.SamSink` /
        :class:`repro.io.PafSink` — that receives every result as it is
        emitted (records stream to the output handle while alignment is
        still running) and is finished when the stream completes.  The
        emitted bytes are identical to writing the materialised results
        offline (:func:`repro.io.write_sam`), which the parity tests pin.
        """
        if self.mapper is None:
            raise ValueError(
                "StreamingPipeline.run needs a mapper (pass one at "
                "construction); use align_pairs() for pre-built pairs"
            )
        # The align stage's engine refuses a configuration it does not run
        # only once the lazy stream starts; refuse it here, at the call.
        check_engine_config(self.config)
        stats = PipelineStats(wave_size=self.wave_size)
        self.stats = stats
        results = self._execute(self._mapped_works(reads, stats), stats)
        if sink is None:
            return results
        return self._stream_to_sink(results, sink)

    @staticmethod
    def _stream_to_sink(
        results: Iterator[MappedAlignment], sink
    ) -> Iterator[MappedAlignment]:
        """Tee results into the sink; finish it when the stream completes.

        ``finish`` runs only on normal exhaustion — an abandoned generator
        must not flush half a read group into the output file.
        """
        for mapped in results:
            sink.write(mapped)
            yield mapped
        sink.finish()

    def run_all(
        self, reads: Union[str, Iterable], *, sink=None
    ) -> List[MappedAlignment]:
        """:meth:`run`, materialised."""
        return list(self.run(reads, sink=sink))

    def align_pairs(self, pairs: Iterable[Tuple[str, str]]) -> List[Alignment]:
        """Stream pre-built (pattern, text) pairs through batch + align.

        The streaming counterpart of
        :meth:`repro.batch.BatchAlignmentEngine.align_pairs`: identical
        results in identical order, but pairs flow through the wave
        accumulator and align stage instead of one monolithic engine call.
        """
        stats = PipelineStats(wave_size=self.wave_size)
        self.stats = stats
        works = (
            CandidateWork(order, None, None, pattern, text)
            for order, (pattern, text) in enumerate(pairs)
        )
        return [m.alignment for m in self._execute(works, stats)]

    # ------------------------------------------------------------------ #
    def _mapped_works(
        self, reads: Union[str, Iterable], stats: PipelineStats
    ) -> Iterator[CandidateWork]:
        """Ingest + map: lazily turn a read source into CandidateWork items.

        Each read is mapped as soon as it is ingested, and its candidates
        follow in :meth:`Mapper.map_sequence` order — the order of the
        offline path (:meth:`Mapper.map_reads`), which is what makes the
        streaming results byte-comparable to the offline ones.
        """
        mapper = self.mapper
        tracer = self.tracer
        order = 0
        records = stream_reads(reads)
        while True:
            with stats.timer("ingest"), tracer.span("stage.ingest"):
                record = next(records, None)
            if record is None:
                break
            stats.record_read()
            with stats.timer("map"), tracer.span("stage.map", read=record.name):
                candidates = mapper.map_sequence(record.name, record.sequence)
                pairs = [
                    mapper.candidate_region_sequence(candidate, record.sequence)
                    for candidate in candidates
                ]
            for candidate, (pattern, text) in zip(candidates, pairs):
                yield CandidateWork(order, record, candidate, pattern, text)
                order += 1

    def _execute(
        self, works: Iterator[CandidateWork], stats: PipelineStats
    ) -> Iterator[MappedAlignment]:
        """Batch + align + emit over a work stream, in work order."""
        start = time.perf_counter()
        tracer = self.tracer
        trace_start = tracer.now()
        align = AlignStage(
            self.config, executor=self.executor, name=self.name, tracer=self.tracer
        )
        accumulator = self._build_accumulator(stats, align)
        buffer: Dict[int, MappedAlignment] = {}
        next_emit = 0

        def absorb(
            completed: List[Tuple[List[CandidateWork], WaveResult]]
        ) -> List[MappedAlignment]:
            nonlocal next_emit
            with stats.timer("emit"), tracer.span(
                "stage.emit", waves=len(completed)
            ):
                ready: List[MappedAlignment] = []
                for wave, alignments in completed:
                    if isinstance(alignments, Exception):
                        raise alignments
                    for work, alignment in zip(wave, alignments):
                        stats.record_traceback(alignment.metadata)
                        buffer[work.order] = MappedAlignment(
                            work.order, work.read, work.candidate, alignment
                        )
                    stats.record_aligned(len(wave))
                while next_emit in buffer:
                    ready.append(buffer.pop(next_emit))
                    next_emit += 1
                # Sampled after the drain: the high-water mark measures the
                # *retained* backlog (results stuck behind a missing earlier
                # ordinal), not the transient pass-through of a completing
                # wave.
                stats.sample_reorder(len(buffer))
                return ready

        try:
            for work in works:
                stats.record_candidate()
                with stats.timer("batch"), tracer.span("stage.batch"):
                    waves = accumulator.push(work)
                with stats.timer("align"), tracer.span(
                    "stage.align", waves=len(waves)
                ):
                    for wave in waves:
                        align.submit(wave)
                    completed = align.collect()
                yield from absorb(completed)
            with stats.timer("batch"), tracer.span("stage.batch", drain=True):
                waves = accumulator.flush()
            with stats.timer("align"), tracer.span(
                "stage.align", waves=len(waves), drain=True
            ):
                for wave in waves:
                    align.submit(wave)
                completed = align.drain()
            yield from absorb(completed)
            if buffer:
                raise AssertionError(
                    "pipeline finished with unemitted results (internal error)"
                )
        finally:
            stats.wall_seconds = time.perf_counter() - start
            if tracer.enabled:
                tracer.record_span(
                    "pipeline.run",
                    start=trace_start,
                    end=tracer.now(),
                    reads=stats.reads,
                    candidates=stats.candidates,
                    waves=stats.waves,
                )

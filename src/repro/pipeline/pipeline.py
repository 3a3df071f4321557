"""The streaming pipeline driver: ingest → map → batch → align → emit.

:class:`StreamingPipeline` joins the stages of :mod:`repro.pipeline` into
one overlapped dataflow.  Reads are pulled lazily from the source, mapped
to candidate pairs (optionally on mapping threads), accumulated into
sorted waves with bounded backpressure, aligned wave-at-a-time by the
vectorized engine (optionally sharded across processes), and emitted as
:class:`MappedAlignment` results **in candidate input order** — the exact
order, CIGARs and metadata of the offline path
(:meth:`Mapper.map_reads` → :meth:`BatchExecutor.run_alignments`), which
the differential tests pin byte for byte.

The offline harness instead materialises every candidate pair before the
first wave runs; here the first wave can be aligning while ingest is still
reading and mapping is still chaining, and independent waves shard across
worker processes that receive pre-built wave inputs (no per-worker
re-alignment from scratch).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.alignment import Alignment
from repro.core.config import GenASMConfig
from repro.mapping.mapper import CandidateMapping, Mapper
from repro.pipeline.alignstage import AlignStage, WaveResult
from repro.pipeline.batcher import WaveAccumulator
from repro.pipeline.ingest import ReadRecord, stream_reads
from repro.pipeline.mapstage import MapStage
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
    wave_size:
        Lanes per dispatched wave (also the engine's ``max_lanes``).
    max_pending:
        Wave-accumulator backpressure bound (see
        :class:`~repro.pipeline.batcher.WaveAccumulator`).
    linger_seconds:
        Accumulator flush timeout; ``None`` disables it.
    scheduling:
        Wave grouping policy, ``"sorted"`` or ``"fifo"``.
    map_workers / align_workers:
        Thread count of the map stage / process count of the align stage
        (1 = inline, deterministic, dependency-free).
    align_inflight:
        Bound on waves in flight in the align stage.
    executor:
        Optional :class:`repro.parallel.shm.SharedMemoryExecutor`.  Waves
        are dispatched to it as shared-memory descriptors, and — when it
        was built over this pipeline's mapper and ``map_workers > 1`` —
        reads are mapped on its worker processes against the shared index
        too.  Caller-owned and reusable across runs; keep it warm
        (:meth:`~SharedMemoryExecutor.warm`) to pay worker spawn once, not
        per run.
    max_reorder:
        Bound on the in-order emission buffer.  Emission can lag alignment
        by at most this many results: when a completed-but-unemittable
        backlog exceeds the bound, the pipeline force-drains the
        accumulator and align stage (flush reason ``"reorder"``) so the
        blocking candidate completes — guaranteed progress, at the cost of
        cutting waves early.  ``None`` (default) leaves the buffer
        unbounded, whose worst case is the whole stream (one slow first
        candidate).  Irrelevant with ``ordered=False``.
    ordered:
        ``True`` (default) emits results in candidate input order through
        the reorder buffer.  ``False`` emits each wave's results the
        moment the wave completes — out-of-order across waves, no reorder
        buffer at all; every result still carries its input ordinal in
        :attr:`MappedAlignment.order` for callers that reorder downstream.
        (:meth:`align_pairs` always returns input order; out-of-order mode
        only changes *when* results become visible to :meth:`run`.)
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`.  When given, each
        stage block records a ``stage.{ingest,map,batch,align,emit}`` span,
        the accumulator emits ``wave.flush`` instants, the align stage
        records per-wave spans (and worker-side ``worker.align.wave``
        spans arrive through a traced
        :class:`~repro.parallel.shm.SharedMemoryExecutor`), and the whole
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
        scheduling: str = "sorted",
        map_workers: int = 1,
        align_workers: int = 1,
        align_inflight: Optional[int] = None,
        executor=None,
        max_reorder: Optional[int] = None,
        ordered: bool = True,
        tracer=None,
        name: str = "genasm-streaming",
    ) -> None:
        self.mapper = mapper
        self.config = config if config is not None else GenASMConfig()
        if wave_size < 1:
            raise ValueError("wave_size must be at least 1")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if max_reorder is not None and max_reorder < 1:
            raise ValueError("max_reorder must be at least 1")
        self.wave_size = wave_size
        self.max_pending = max_pending
        self.linger_seconds = linger_seconds
        self.scheduling = scheduling
        self.map_workers = map_workers
        self.align_workers = align_workers
        self.align_inflight = align_inflight
        self.executor = executor
        self.max_reorder = max_reorder
        self.ordered = ordered
        self.tracer = get_tracer(tracer)
        self.name = name
        #: Stats of the most recent run (populated even on partial
        #: consumption of the generator).
        self.stats: Optional[PipelineStats] = None

    # ------------------------------------------------------------------ #
    def _build_align_stage(self) -> AlignStage:
        # max_lanes stays None: waves are already bounded by the
        # accumulator, and a merged tail wave (wave_size + remainder lanes)
        # must run as one engine chunk, not get re-split back into the
        # partial dispatch the merge existed to avoid.
        return AlignStage(
            self.config,
            workers=self.align_workers,
            inflight=self.align_inflight,
            executor=self.executor,
            max_lanes=None,
            scheduling=self.scheduling,
            name=self.name,
            tracer=self.tracer,
        )

    def _build_accumulator(self, stats: PipelineStats, align: AlignStage) -> WaveAccumulator:
        # The sorted policy groups lanes by the same expected-work model the
        # engine's own scheduler sorts by — window count × words per lane,
        # so wide-window (short-read) configs group narrow fragments away
        # from full multi-word lanes; reuse the align stage's in-process
        # engine rather than building one just for the estimate.
        engine = align.engine
        return WaveAccumulator(
            wave_size=self.wave_size,
            max_pending=self.max_pending,
            linger_seconds=self.linger_seconds,
            scheduling=self.scheduling,
            work_key=lambda work: float(engine.expected_work(len(work.pattern))),
            stats=stats,
            tracer=self.tracer,
        )

    # ------------------------------------------------------------------ #
    def run(
        self,
        reads: Union[str, Iterable],
        *,
        mapper: Optional[Mapper] = None,
        sink=None,
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
        With ``ordered=False`` pass a sink built with ``eager=False``.
        """
        mapper = mapper if mapper is not None else self.mapper
        if mapper is None:
            raise ValueError(
                "StreamingPipeline.run needs a mapper (pass one at "
                "construction or per call); use align_pairs() for "
                "pre-built pairs"
            )
        stats = PipelineStats(wave_size=self.wave_size)
        self.stats = stats
        results = self._execute(self._mapped_works(reads, mapper, stats), stats)
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
        self,
        reads: Union[str, Iterable],
        *,
        mapper: Optional[Mapper] = None,
        sink=None,
    ) -> List[MappedAlignment]:
        """:meth:`run`, materialised."""
        return list(self.run(reads, mapper=mapper, sink=sink))

    def align_pairs(self, pairs: Iterable[Tuple[str, str]]) -> List[Alignment]:
        """Stream pre-built (pattern, text) pairs through batch + align.

        The streaming counterpart of
        :meth:`repro.parallel.executor.BatchExecutor.run_alignments`:
        identical results in identical order, but pairs flow through the
        wave accumulator and (optionally sharded) align stage instead of
        one monolithic engine call.
        """
        stats = PipelineStats(wave_size=self.wave_size)
        self.stats = stats
        works = (
            CandidateWork(order, None, None, pattern, text)
            for order, (pattern, text) in enumerate(pairs)
        )
        mapped = list(self._execute(works, stats))
        if not self.ordered:
            # Out-of-order emission only changes *when* results surface;
            # this materialised view is always parallel to the input.
            mapped.sort(key=lambda m: m.order)
        return [m.alignment for m in mapped]

    # ------------------------------------------------------------------ #
    def _mapped_works(
        self, reads: Union[str, Iterable], mapper: Mapper, stats: PipelineStats
    ) -> Iterator[CandidateWork]:
        """Ingest + map: lazily turn a read source into CandidateWork items."""
        # The shared-memory executor maps on worker processes only when it
        # hosts this mapper's genome/index AND the caller asked for parallel
        # mapping (map_workers > 1) — per-read IPC round-trips only pay off
        # when mapping actually runs concurrently with itself; map_workers=1
        # keeps the inline, dependency-free path.
        map_executor = (
            self.executor
            if (
                self.executor is not None
                and self.executor.mapper is mapper
                and self.map_workers > 1
            )
            else None
        )
        map_stage = MapStage(mapper, workers=self.map_workers, executor=map_executor)
        tracer = self.tracer
        order = 0
        try:
            records = stream_reads(reads)
            while True:
                with stats.timer("ingest"), tracer.span("stage.ingest"):
                    record = next(records, None)
                if record is None:
                    break
                stats.reads += 1
                with stats.timer("map"), tracer.span("stage.map", read=record.name):
                    map_stage.submit(record)
                    completed = map_stage.collect()
                for mapped_record, items in completed:
                    for candidate, pattern, text in items:
                        yield CandidateWork(order, mapped_record, candidate, pattern, text)
                        order += 1
            with stats.timer("map"), tracer.span("stage.map", drain=True):
                completed = map_stage.drain()
            for mapped_record, items in completed:
                for candidate, pattern, text in items:
                    yield CandidateWork(order, mapped_record, candidate, pattern, text)
                    order += 1
        finally:
            map_stage.close()

    def _execute(
        self, works: Iterator[CandidateWork], stats: PipelineStats
    ) -> Iterator[MappedAlignment]:
        """Batch + align + emit over a work stream (in work order by default)."""
        start = time.perf_counter()
        tracer = self.tracer
        trace_start = tracer.now()
        align = self._build_align_stage()
        accumulator = self._build_accumulator(stats, align)
        stats.reorder_bound = self.max_reorder or 0
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
                        mapped = MappedAlignment(
                            work.order, work.read, work.candidate, alignment
                        )
                        if self.ordered:
                            buffer[work.order] = mapped
                        else:
                            ready.append(mapped)
                    stats.aligned += len(wave)
                while next_emit in buffer:
                    ready.append(buffer.pop(next_emit))
                    next_emit += 1
                # Sampled after the drain: the high-water mark measures the
                # *retained* backlog (results stuck behind a missing earlier
                # ordinal) — the quantity max_reorder bounds — not the
                # transient pass-through of a completing wave.
                stats.sample_reorder(len(buffer))
                return ready

        try:
            for work in works:
                stats.candidates += 1
                with stats.timer("batch"), tracer.span("stage.batch"):
                    waves = accumulator.push(work)
                with stats.timer("align"), tracer.span(
                    "stage.align", waves=len(waves)
                ):
                    for wave in waves:
                        align.submit(wave)
                    completed = align.collect()
                yield from absorb(completed)
                if self.max_reorder is not None and len(buffer) > self.max_reorder:
                    # Bounded reorder: the blocking candidate may still sit
                    # in the accumulator, so draining alignment alone could
                    # deadlock — force-flush both.  Every candidate pushed
                    # so far then completes, which provably empties the
                    # buffer (all ordinals below the current one emit).
                    with stats.timer("batch"), tracer.span("stage.batch"):
                        waves = accumulator.flush(reason="reorder")
                    with stats.timer("align"), tracer.span(
                        "stage.align", waves=len(waves), drain=True
                    ):
                        for wave in waves:
                            align.submit(wave)
                        completed = align.drain()
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
            align.close()
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

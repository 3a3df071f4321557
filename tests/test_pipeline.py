"""Differential tests for the streaming pipeline (:mod:`repro.pipeline`).

The subsystem contract: :class:`StreamingPipeline` produces **byte-identical
alignments in identical order** to the offline path — candidate pairs
materialised by :meth:`Mapper.map_reads` and aligned by
:meth:`BatchAlignmentEngine.align_pairs` — regardless of wave size, chunk
boundaries, worker pools, or flush policy.  Wave grouping and
concurrency may only move throughput and latency, never a single CIGAR
byte.
"""

from __future__ import annotations

import io
import json
import pathlib
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from repro.batch.engine import BatchAlignmentEngine
from repro.core.aligner import GenASMAligner
from repro.core.config import GenASMConfig
from repro.genomics.fasta import write_fasta, write_fastq
from repro.harness.dataset import build_paper_dataset
from repro.io import SamSink
from repro.mapping.mapper import Mapper
from repro.parallel.pool import WorkerPool
from repro.pipeline import (
    ReadRecord,
    StreamingPipeline,
    WaveAccumulator,
    stream_reads,
)
from repro.telemetry import Tracer
from tests.conftest import mutate, random_dna

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def workload():
    return build_paper_dataset(read_count=10, read_length=500, seed=5, max_pairs=None)


@pytest.fixture(scope="module")
def mapper(workload):
    return Mapper(workload.genome)


@pytest.fixture(scope="module")
def offline(workload, mapper):
    """Offline reference: materialised candidates + vectorized batch run."""
    candidates = mapper.map_reads(workload.reads)
    sequences = {read.name: read.sequence for read in workload.reads}
    pairs = [
        mapper.candidate_region_sequence(c, sequences[c.read_name])
        for c in candidates
    ]
    results = BatchAlignmentEngine(GenASMConfig()).align_pairs(pairs)
    return candidates, pairs, results


def assert_same_alignments(reference, got, context=""):
    assert len(reference) == len(got), context
    for want, have in zip(reference, got):
        assert str(have.cigar) == str(want.cigar), context
        assert have.edit_distance == want.edit_distance, context
        assert have.text_end == want.text_end, context


class TestIngest:
    def test_simulated_reads_and_tuples_and_strings(self, workload):
        reads = workload.reads[:3]
        from_objects = list(stream_reads(reads))
        from_tuples = list(stream_reads([(r.name, r.sequence) for r in reads]))
        from_strings = list(stream_reads([r.sequence for r in reads]))
        assert [r.name for r in from_objects] == [r.name for r in reads]
        assert [r.sequence for r in from_objects] == [r.sequence for r in reads]
        assert from_tuples == from_objects
        assert [r.sequence for r in from_strings] == [r.sequence for r in reads]
        assert [r.index for r in from_objects] == [0, 1, 2]

    def test_fasta_and_fastq_paths_stream(self, tmp_path, workload):
        reads = workload.reads[:4]
        fasta = tmp_path / "reads.fasta"
        fastq = tmp_path / "reads.fastq"
        write_fasta(fasta, [(r.name, r.sequence) for r in reads])
        write_fastq(fastq, [(r.name, r.sequence, r.quality) for r in reads])
        for path in (fasta, fastq):
            records = list(stream_reads(str(path)))
            assert [r.name for r in records] == [r.name for r in reads]
            assert [r.sequence for r in records] == [r.sequence for r in reads]

    def test_lazy_iteration(self):
        def infinite():
            index = 0
            while True:
                yield f"ACGT{'A' * (index % 3)}"
                index += 1

        stream = stream_reads(infinite())
        first = [next(stream) for _ in range(5)]
        assert [r.index for r in first] == list(range(5))

    def test_unsupported_item_type(self):
        with pytest.raises(TypeError):
            list(stream_reads([42]))


class TestWaveAccumulator:
    def _items(self, lengths):
        return [
            ReadRecord(index, f"r{index}", "A" * length)
            for index, length in enumerate(lengths)
        ]

    def test_flush_on_size_emits_full_waves_and_keeps_remainder(self):
        acc = WaveAccumulator(wave_size=3, max_pending=5, work_key=lambda i: i.length)
        waves = []
        for item in self._items([10, 20, 30, 40]):
            waves.extend(acc.push(item))
        assert waves == []
        waves.extend(acc.push(self._items([5])[0]))  # 5th item hits the bound
        assert len(waves) == 1  # one full wave of 3 lanes
        assert len(waves[0]) == 3
        # Sorted policy: the wave carries the three smallest work items.
        assert sorted(i.length for i in waves[0]) == [5, 10, 20]
        assert [i.length for i in acc.pending] == [30, 40]
        final = acc.flush()
        assert [len(w) for w in final] == [2]

    def test_backpressure_tighter_than_wave_size_drains_partial(self):
        acc = WaveAccumulator(wave_size=10, max_pending=2)
        assert acc.push(1) == []
        waves = acc.push(2)
        assert [len(w) for w in waves] == [2]
        assert len(acc) == 0

    def test_flush_on_timeout(self):
        now = [0.0]
        acc = WaveAccumulator(
            wave_size=8, max_pending=100, linger_seconds=2.0, clock=lambda: now[0]
        )
        assert acc.push("a") == []
        now[0] = 1.0
        assert acc.push("b") == []
        now[0] = 2.5  # oldest item is now older than the linger bound
        waves = acc.push("c")
        assert [len(w) for w in waves] == [3]
        assert len(acc) == 0
        # The clock resets with the buffer: a fresh item does not flush.
        assert acc.push("d") == []

    def test_cut_refreshes_oldest_arrival(self):
        # Regression: a size-cut that dispatches the oldest item must not
        # keep its arrival time — otherwise poll() immediately fires a
        # spurious "timeout" flush on the fresh remainder, collapsing wave
        # fill on sorted streams.
        now = [0.0]
        acc = WaveAccumulator(
            wave_size=2, max_pending=3, linger_seconds=2.0, clock=lambda: now[0]
        )
        assert acc.push("a") == []
        now[0] = 1.9
        assert acc.push("b") == []
        waves = acc.push("c")  # hits max_pending: cuts ["a", "b"], keeps "c"
        assert waves == [["a", "b"]]
        # "c" arrived just now — its age is 0, not item "a"'s 1.9 s.
        assert acc.oldest_age() == pytest.approx(0.0)
        now[0] = 2.5  # "a" would be 2.5 s old, but "c" is only 0.6 s old
        assert acc.poll() == []
        now[0] = 4.0  # now "c" genuinely exceeds the linger bound
        assert acc.poll() == [["c"]]
        assert acc.oldest_age() is None

    def test_sorted_cut_keeps_per_item_ages(self):
        # A sorted cut can dispatch *newer* items and leave the oldest one
        # pending; its original arrival time must survive the cut.
        now = [0.0]
        acc = WaveAccumulator(
            wave_size=2,
            max_pending=3,
            linger_seconds=5.0,
            work_key=lambda item: item,
            clock=lambda: now[0],
        )
        acc.push(9)  # oldest, but largest work — stays pending
        now[0] = 1.0
        acc.push(1)
        now[0] = 2.0
        waves = acc.push(2)
        assert waves == [[1, 2]]
        assert [i for i in acc.pending] == [9]
        assert acc.oldest_age() == pytest.approx(2.0)

    def test_equal_work_cuts_in_arrival_order(self):
        acc = WaveAccumulator(wave_size=2, max_pending=5, work_key=lambda item: item[0])
        flushed = []
        for item in [(1, "a"), (0, "b"), (1, "c"), (0, "d"), (1, "e")]:
            flushed.extend(acc.push(item))
        # Ties in work keep arrival order, in the waves and in the remainder.
        assert flushed == [[(0, "b"), (0, "d")], [(1, "a"), (1, "c")]]
        assert list(acc.pending) == [(1, "e")]

    def test_validation(self):
        with pytest.raises(ValueError):
            WaveAccumulator(wave_size=0)
        with pytest.raises(ValueError):
            WaveAccumulator(max_pending=0)
        with pytest.raises(ValueError):
            WaveAccumulator(linger_seconds=-1.0)


class _Unfinished:
    """An executor future that never reports done but resolves when asked."""

    def __init__(self, value):
        self.value = value

    def done(self):
        return False

    def exception(self):
        return None

    def result(self):
        return self.value


class TestInflightBounds:
    """An executor-backed align stage waits on its oldest wave only past a
    bound sized from the executor: two waves per worker."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_align_stage_holds_two_waves_per_worker(self, workers):
        from repro.pipeline.alignstage import AlignStage

        executor = SimpleNamespace(
            config=GenASMConfig(),
            workers=workers,
            submit_wave=lambda pairs, wave_id: _Unfinished([None] * len(pairs)),
        )
        stage = AlignStage(GenASMConfig(), executor=executor)
        waves = [
            [SimpleNamespace(pattern="ACGT", text=f"ACGT{'A' * index}")]
            for index in range(2 * workers + 1)
        ]
        for wave in waves[:-1]:
            stage.submit(wave)
        assert stage.collect() == []
        stage.submit(waves[-1])
        assert [wave for wave, _ in stage.collect()] == waves[:1]
        assert stage.pending_waves == 2 * workers
        assert [wave for wave, _ in stage.drain()] == waves[1:]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failed_future_is_collected_in_its_place(self, workers):
        # A wave whose executor future fails comes back with its exception
        # in its own slot: not ahead of an unfinished earlier wave, and
        # without stranding the waves behind it.
        from repro.pipeline.alignstage import AlignStage

        futures = []

        def submit_wave(pairs, wave_id):
            futures.append(Future())
            return futures[-1]

        executor = SimpleNamespace(
            config=GenASMConfig(), workers=workers, submit_wave=submit_wave
        )
        stage = AlignStage(GenASMConfig(), executor=executor)
        waves = [
            [SimpleNamespace(pattern="ACGT", text=f"ACGT{'A' * index}")]
            for index in range(2 * workers)
        ]
        for wave in waves:
            stage.submit(wave)
        error = RuntimeError("worker failed")
        futures[1].set_exception(error)
        assert stage.collect() == []
        futures[0].set_result(["first"])
        assert stage.collect() == [(waves[0], ["first"]), (waves[1], error)]
        for future in futures[2:]:
            future.set_result(["later"])
        assert stage.drain() == [(wave, ["later"]) for wave in waves[2:]]
        assert stage.pending_waves == 0


class TestStreamingEquivalence:
    """StreamingPipeline ≡ offline map-then-align, byte for byte, in order."""

    def test_run_matches_offline_path(self, workload, mapper, offline):
        candidates, _pairs, reference = offline
        pipeline = StreamingPipeline(mapper, wave_size=8, max_pending=16)
        results = pipeline.run_all(workload.reads)
        assert [m.order for m in results] == list(range(len(candidates)))
        assert [m.candidate.ref_start for m in results] == [
            c.ref_start for c in candidates
        ]
        assert [m.read_name for m in results] == [c.read_name for c in candidates]
        assert_same_alignments(reference, [m.alignment for m in results])
        stats = pipeline.stats
        assert stats.reads == len(workload.reads)
        assert stats.candidates == len(candidates)
        assert stats.aligned == len(candidates)

    @pytest.mark.parametrize("wave_size", [1, 3, 7, 1000])
    def test_chunk_boundaries_never_change_results(
        self, workload, mapper, offline, wave_size
    ):
        # Wave sizes that do not divide the candidate count, a single-lane
        # pipeline, and one wave holding everything: identical output.
        _candidates, _pairs, reference = offline
        pipeline = StreamingPipeline(mapper, wave_size=wave_size, max_pending=wave_size)
        results = pipeline.run_all(workload.reads)
        assert_same_alignments(
            reference, [m.alignment for m in results], f"wave_size={wave_size}"
        )

    def test_align_pairs_matches_run_alignments(self, offline):
        _candidates, pairs, reference = offline
        streamed = StreamingPipeline(wave_size=4, max_pending=8).align_pairs(pairs)
        assert_same_alignments(reference, streamed)
        serial = GenASMAligner(GenASMConfig()).align_batch(pairs)
        assert_same_alignments(serial, streamed)

    def test_empty_stream_and_empty_pairs(self, mapper):
        pipeline = StreamingPipeline(mapper)
        assert pipeline.run_all([]) == []
        assert pipeline.stats.reads == 0
        assert pipeline.stats.aligned == 0
        assert pipeline.stats.wall_seconds >= 0
        assert StreamingPipeline(wave_size=2).align_pairs([]) == []

    def test_degenerate_pairs_stream_like_offline(self):
        # Empty patterns/texts and single characters cross the pipeline
        # exactly as they cross the engine (no filtering, no reorder).
        pairs = [("", "ACGT"), ("ACGT", ""), ("A", "A"), ("", ""), ("ACGT" * 30, "ACG")]
        reference = BatchAlignmentEngine(GenASMConfig()).align_pairs(pairs)
        streamed = StreamingPipeline(wave_size=2, max_pending=2).align_pairs(pairs)
        assert_same_alignments(reference, streamed)

    def test_streaming_emission_is_in_order_and_incremental(
        self, workload, mapper, offline
    ):
        candidates, _pairs, _reference = offline
        pipeline = StreamingPipeline(mapper, wave_size=4, max_pending=4)
        seen = []
        for mapped in pipeline.run(workload.reads):
            seen.append(mapped.order)
        # Every ordinal exactly once, in input order.
        assert seen == list(range(len(candidates)))
        assert pipeline.stats.waves >= 2  # the bound actually chunked the stream

    def test_executors_do_not_change_results(self, workload, mapper, offline):
        # Reads map inline; the executor only aligns the waves.
        candidates, _pairs, reference = offline
        executor = WorkerPool(workers=2, config=GenASMConfig())
        try:
            pipeline = StreamingPipeline(
                mapper, wave_size=8, max_pending=16, executor=executor
            )
            results = pipeline.run_all(workload.reads)
            assert [m.order for m in results] == list(range(len(candidates)))
            assert [m.candidate for m in results] == list(candidates)
            assert_same_alignments(reference, [m.alignment for m in results])
        finally:
            executor.close()

    def test_align_pairs_on_a_pool_ships_every_wave_there(self, offline, submitted_waves):
        # Every wave the pipeline cuts goes to the pool as its pairs, and
        # the alignments come back as the offline ones, in input order.
        _candidates, pairs, reference = offline
        with WorkerPool(workers=1, config=GenASMConfig()) as executor:
            pipeline = StreamingPipeline(wave_size=4, max_pending=8, executor=executor)
            assert_same_alignments(reference, pipeline.align_pairs(pairs))
        assert len(submitted_waves) == pipeline.stats.waves > 1
        assert {sender for sender, _ in submitted_waves} == {executor}
        assert sum(lanes for _, lanes in submitted_waves) == len(pairs)

    @pytest.mark.parametrize("with_executor", [False, True], ids=["inline", "executor"])
    def test_each_read_maps_once_in_this_process(
        self, workload, mapper, offline, monkeypatch, with_executor
    ):
        # A read is mapped in one place only: inline, right after ingest,
        # whether its waves align in process or on the executor's workers.
        candidates, _pairs, reference = offline
        mapped_names = []
        map_sequence = Mapper.map_sequence

        def recording_map_sequence(self, name, sequence):
            mapped_names.append(name)
            return map_sequence(self, name, sequence)

        monkeypatch.setattr(Mapper, "map_sequence", recording_map_sequence)
        executor = None
        if with_executor:
            executor = WorkerPool(workers=1, config=GenASMConfig())
        try:
            pipeline = StreamingPipeline(
                mapper, wave_size=8, max_pending=16, executor=executor
            )
            results = pipeline.run_all(workload.reads)
        finally:
            if executor is not None:
                executor.close()
        assert mapped_names == [read.name for read in workload.reads]
        assert [m.candidate for m in results] == list(candidates)
        assert_same_alignments(reference, [m.alignment for m in results])

    def test_run_without_mapper_raises(self):
        with pytest.raises(ValueError):
            list(StreamingPipeline().run(["ACGT"]))

    @pytest.mark.parametrize("caller", ["align-stage", "pipeline"])
    def test_executor_with_another_config_rejected(self, caller):
        # The executor's workers align under the executor's config, so a
        # stage built with another config refuses it before any pool starts.
        from repro.pipeline.alignstage import AlignStage

        executor = WorkerPool(workers=2, config=GenASMConfig(window_size=32))
        try:
            with pytest.raises(ValueError, match="different config"):
                if caller == "align-stage":
                    AlignStage(GenASMConfig(), executor=executor)
                else:
                    StreamingPipeline(executor=executor).align_pairs([("ACGT", "ACGT")])
            assert not executor.started
        finally:
            executor.close()

    def test_max_pending_tighter_than_wave_size_is_honored(self, offline):
        # The constructor passes the caller's backpressure bound through
        # unclamped: with max_pending < wave_size the accumulator drains
        # partial waves at the bound instead of buffering a full wave.
        _candidates, pairs, reference = offline
        pipeline = StreamingPipeline(wave_size=64, max_pending=4)
        assert pipeline.max_pending == 4
        streamed = pipeline.align_pairs(pairs)
        assert_same_alignments(reference, streamed)
        assert pipeline.stats.max_pending <= 4
        assert max(pipeline.stats.wave_lane_counts) <= 4
        with pytest.raises(ValueError):
            StreamingPipeline(max_pending=0)


class TestWaveFailure:
    """A wave that raises reaches the caller without stranding later waves."""

    MARKED = ("ACGTACGTACGT", "TTTTTTTTTTTT")
    GOOD = [("ACGTACGTAC", "ACGTACGTACGG"), ("ACGTTGCAAC", "ACGTAGCAACTT")]

    @pytest.fixture
    def failing_engine(self, monkeypatch):
        original = BatchAlignmentEngine.align_pairs

        def align_pairs(engine, pairs, **kwargs):
            if self.MARKED in pairs:
                raise RuntimeError("marked pair")
            return original(engine, pairs, **kwargs)

        monkeypatch.setattr(BatchAlignmentEngine, "align_pairs", align_pairs)

    @staticmethod
    def _drain(stage, waves):
        for wave in waves:
            stage.submit([SimpleNamespace(pattern=p, text=t) for p, t in wave])
        return stage.drain()

    def _assert_failure_between_good_waves(self, collected, error_type):
        assert [len(wave) for wave, _ in collected] == [1, 1, 1]
        first, failed, last = (result for _, result in collected)
        assert isinstance(failed, error_type)
        reference = GenASMAligner(GenASMConfig()).align_batch(self.GOOD)
        assert_same_alignments(reference, first + last)

    def test_align_stage_queues_the_error_in_wave_order(self, failing_engine):
        from repro.pipeline.alignstage import AlignStage

        waves = [[self.GOOD[0]], [self.MARKED], [self.GOOD[1]]]
        collected = self._drain(AlignStage(GenASMConfig()), waves)
        self._assert_failure_between_good_waves(collected, RuntimeError)

    def test_worker_failure_comes_back_with_its_wave(self):
        # A bytes pattern fails in the worker, where the engine builds its
        # wave; the failure is queued with its wave, between the two good
        # waves the worker aligns.
        from repro.pipeline.alignstage import AlignStage

        waves = [[self.GOOD[0]], [(b"ACGTACGT", "ACGTACGT")], [self.GOOD[1]]]
        with WorkerPool(workers=1, config=GenASMConfig()) as executor:
            stage = AlignStage(GenASMConfig(), executor=executor)
            collected = self._drain(stage, waves)
        self._assert_failure_between_good_waves(collected, AttributeError)

    def test_pipeline_raises_the_wave_error(self, failing_engine):
        pairs = [self.GOOD[0], self.MARKED, self.GOOD[1]]
        with pytest.raises(RuntimeError, match="marked pair"):
            StreamingPipeline(wave_size=1).align_pairs(pairs)

    def test_truncated_stream_writes_only_whole_read_groups(
        self, workload, mapper, offline, monkeypatch
    ):
        # The engine fails on its second wave mid-stream: the error must
        # reach the caller, the sink must never be finished, and every read
        # already in the SAM output must carry all of its records.
        from collections import Counter

        candidates, _pairs, _reference = offline
        original = BatchAlignmentEngine.align_pairs
        calls = []

        def align_pairs(engine, pairs, **kwargs):
            calls.append(len(pairs))
            if len(calls) == 2:
                raise RuntimeError("second wave")
            return original(engine, pairs, **kwargs)

        monkeypatch.setattr(BatchAlignmentEngine, "align_pairs", align_pairs)
        handle = io.StringIO()
        sink = SamSink(handle, workload.genome)
        finished = []
        sink.finish = lambda: finished.append(True)
        pipeline = StreamingPipeline(mapper, wave_size=4, max_pending=4)
        with pytest.raises(RuntimeError, match="second wave"):
            pipeline.run_all(workload.reads, sink=sink)
        assert finished == []
        written = Counter(
            line.split("\t", 1)[0]
            for line in handle.getvalue().splitlines()
            if not line.startswith("@")
        )
        expected = Counter(c.read_name for c in candidates)
        assert written  # the stream was cut after some reads were written
        assert len(written) < len(expected)
        assert {name: expected[name] for name in written} == dict(written)


class TestGoldenCorpusStreaming:
    def test_streaming_reproduces_golden_corpus(self):
        with open(DATA_DIR / "golden_corpus.json") as fh:
            corpus = json.load(fh)
        pairs = [(e["pattern"], e["text"]) for e in corpus["entries"]]
        streamed = StreamingPipeline(wave_size=3, max_pending=5).align_pairs(pairs)
        for entry, alignment in zip(corpus["entries"], streamed):
            assert str(alignment.cigar) == entry["cigar"]
            assert alignment.edit_distance == entry["edit_distance"]
            assert alignment.text_end == entry["text_end"]


class TestPipelineStats:
    def test_stage_times_and_wave_fill(self, workload, mapper):
        pipeline = StreamingPipeline(mapper, wave_size=4, max_pending=8)
        pipeline.run_all(workload.reads)
        stats = pipeline.stats
        assert set(stats.stage_seconds) == {"ingest", "map", "batch", "align", "emit"}
        assert stats.wall_seconds > 0
        assert stats.stage_seconds["align"] > 0
        assert 0 < stats.wave_fill_efficiency <= 1.0
        assert stats.max_pending <= 8
        assert sum(stats.flushes.values()) == stats.waves
        as_dict = stats.as_dict()
        assert as_dict["aligned"] == stats.aligned
        assert "stage_seconds" in as_dict
        assert "reads/s" in stats.summary()

    def test_map_stage_times_and_traces_every_read(self, workload, mapper):
        tracer = Tracer()
        pipeline = StreamingPipeline(
            mapper, wave_size=4, max_pending=8, tracer=tracer
        )
        pipeline.run_all(workload.reads)
        spans = [record for record in tracer.records() if record.name == "stage.map"]
        assert [span.attrs["read"] for span in spans] == [
            read.name for read in workload.reads
        ]
        assert pipeline.stats.reads == len(workload.reads)
        assert pipeline.stats.stage_seconds["map"] > 0

    def test_wave_fill_uses_dispatch_time_lane_counts(self):
        # Fill efficiency is a property of the dispatched waves alone: when
        # results lag dispatch (waves still in flight on a sharded align
        # stage, or a caller abandoning the result generator early leaves
        # stats.aligned behind), the ratio must not deflate.
        from repro.pipeline import PipelineStats

        stats = PipelineStats(wave_size=4)
        stats.record_wave(4, "size")
        stats.record_wave(2, "final")
        assert stats.aligned == 0  # nothing absorbed yet
        assert stats.wave_fill_efficiency == pytest.approx(6 / 8)

    def test_merged_wave_counts_as_full_in_stats(self):
        # Regression: a tail-merged wave carries *more* lanes than
        # wave_size; the old `lanes == wave_size` check counted it as
        # partial, deflating full_waves on exactly the drains where the
        # merge policy did its job.
        from repro.pipeline import PipelineStats

        stats = PipelineStats(wave_size=4)
        acc = WaveAccumulator(wave_size=4, stats=stats)  # merges tails below 2
        for item in range(5):
            acc.push(item)
        waves = acc.flush()
        assert waves == [[0, 1, 2, 3, 4]]  # fifo-equivalent: work_key constant
        assert stats.wave_merges == 1
        assert stats.full_waves == 1
        assert stats.wave_fill_efficiency == 1.0

    def test_unknown_flush_cause_rejected(self):
        # The FLUSH_CAUSES contract used to break silently: an unlisted
        # reason landed in the flushes Counter but as_dict()/summary()
        # views built from FLUSH_CAUSES dropped it.
        from repro.pipeline import PipelineStats

        stats = PipelineStats(wave_size=4)
        with pytest.raises(ValueError, match="unknown flush cause"):
            stats.record_wave(4, "oops")
        assert stats.waves == 0  # rejected before any mutation
        assert sum(stats.flushes.values()) == 0

    def test_record_traceback_folds_alignment_metadata(self):
        from repro.pipeline import PipelineStats

        stats = PipelineStats(wave_size=4)
        stats.record_traceback(
            {
                "tb_walk_steps": 7,
                "tb_walk_steps_saved": 3,
                "tb_match_runs": 2,
                "tb_match_run_ops": 5,
            }
        )
        # Metadata without tb_* keys (the scalar aligner's) must fold in
        # as zeros rather than raise KeyError.
        stats.record_traceback({"windows": 1})
        assert stats.tb_walk_steps == 7
        assert stats.tb_walk_steps_saved == 3
        assert stats.tb_match_runs == 2
        assert stats.tb_match_run_ops == 5
        as_dict = stats.as_dict()
        assert as_dict["tb_walk_steps_saved"] == 3
        assert "walk_steps=7" in stats.summary()

    def test_random_work_stream_with_backpressure(self, rng):
        # A synthetic mixed-length pair stream under a tight bound: every
        # flush cause can fire and the output still matches offline.
        pairs = []
        for _ in range(40):
            length = rng.choice([10, 50, 120, 300])
            pattern = random_dna(rng, length)
            pairs.append((pattern, mutate(rng, pattern, max(1, length // 10)) + "AC"))
        reference = BatchAlignmentEngine(GenASMConfig()).align_pairs(pairs)
        pipeline = StreamingPipeline(wave_size=8, max_pending=8)
        streamed = pipeline.align_pairs(pairs)
        assert_same_alignments(reference, streamed)
        assert pipeline.stats.flushes["size"] > 0


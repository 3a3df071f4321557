"""Lifecycle, equivalence and leak tests for the shared-memory layer.

Covers the zero-copy execution core end to end:

* descriptor / pair-block round trips (:mod:`repro.parallel.shm`,
  :class:`repro.batch.soa.SoAWave` export/attach);
* the hosted genome and minimizer index matching their dict-based
  originals hit for hit;
* :class:`SharedMemoryExecutor` segment hygiene — every segment the
  executor ever creates is gone from the system after a normal close,
  after a worker crash mid-stream, and after a cancellation close;
* a traced streaming pipeline driven by a two-worker pool: offline-equal
  results, every stage plus the worker wave spans on one timeline;
* the streaming pipeline's bounded-reorder and out-of-order emission
  modes staying byte-identical to the offline vectorized path under a
  work-sorted stress mix.

The executor tests spawn real worker processes; they are kept small
(mostly single-worker pools, short pair lists) so the whole module stays
in tier-1 time budgets.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.batch.engine import BatchAlignmentEngine, run_dc_wave
from repro.batch.soa import LaneJob, SoAWave
from repro.core.config import GenASMConfig
from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import PacBioSimulator
from repro.mapping.mapper import Mapper
from repro.parallel.shm import (
    SegmentLayout,
    SharedGenome,
    SharedMemoryExecutor,
    SharedMinimizerIndex,
    SharedSegment,
    host_genome,
    host_index,
    pack_arrays,
    pack_pairs,
    unpack_pairs,
)
from repro.pipeline import StreamingPipeline
from repro.telemetry import Tracer, chrome_trace
from tests.conftest import mutate, random_dna, segment_exists


def assert_same_alignments(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (str(a.cigar), a.edit_distance, a.text_end) == (
            str(b.cigar),
            b.edit_distance,
            b.text_end,
        )


@pytest.fixture(scope="module")
def corpus():
    """A small genome + mapper + reads + materialised candidate pairs."""
    genome = SyntheticGenome.random({"chr1": 40_000, "chr2": 20_000}, seed=7)
    mapper = Mapper(genome)
    reads = PacBioSimulator(mean_length=250, std_length=40, seed=11).simulate(
        genome, 12
    )
    sequences = {read.name: read.sequence for read in reads}
    candidates = mapper.map_reads(reads)
    pairs = [
        mapper.candidate_region_sequence(c, sequences[c.read_name])
        for c in candidates
    ]
    return genome, mapper, reads, pairs


# --------------------------------------------------------------------------- #
# Segments and layouts
# --------------------------------------------------------------------------- #
class TestSegmentsAndLayouts:
    def test_pack_arrays_round_trip(self):
        arrays = {
            "a": np.arange(17, dtype=np.uint64),
            "b": np.array([[1, -2], [3, -4]], dtype=np.int32),
            "c": np.array([1], dtype=np.int8),
            "d": np.arange(5, dtype=np.float64),
        }
        segment, layout = pack_arrays(arrays, meta={"tag": "x"})
        try:
            assert layout.segment == segment.name
            assert layout.meta == {"tag": "x"}
            views = layout.views(segment.buf)
            for name, array in arrays.items():
                np.testing.assert_array_equal(views[name], array)
            # Every offset is 8-byte aligned regardless of dtype mix.
            assert all(offset % 8 == 0 for _, _, _, offset in layout.arrays)
            del views
        finally:
            segment.unlink()
        segment.unlink()  # idempotent
        assert not segment_exists(layout.segment)

    def test_layout_attach_round_trip(self):
        data = {"values": np.arange(100, dtype=np.int64)}
        segment, layout = pack_arrays(data)
        shm, views = layout.attach()
        np.testing.assert_array_equal(views["values"], data["values"])
        del views
        shm.close()
        segment.unlink()
        assert not segment_exists(layout.segment)

    def test_layout_without_segment_rejects_attach(self):
        layout = SegmentLayout(nbytes=8, arrays=(("x", "<i8", (1,), 0),))
        with pytest.raises(ValueError):
            layout.attach()

    def test_pair_block_round_trip(self, rng):
        pairs = [
            (random_dna(rng, length), random_dna(rng, length + 9))
            for length in (1, 3, 64, 65, 200)
        ]
        segment, layout = pack_pairs(pairs)
        assert layout.meta["count"] == len(pairs)
        assert unpack_pairs(layout) == pairs
        segment.unlink()
        assert not segment_exists(layout.segment)

    def test_empty_pair_block(self):
        segment, layout = pack_pairs([])
        assert unpack_pairs(layout) == []
        segment.unlink()

    def test_segment_context_manager_unlinks(self):
        with SharedSegment(64) as segment:
            name = segment.name
            segment.buf[:4] = b"ping"
        assert not segment_exists(name)


# --------------------------------------------------------------------------- #
# Wave descriptors
# --------------------------------------------------------------------------- #
def _make_wave(rng, lengths=(12, 40, 64, 65, 100)):
    jobs = []
    for length in lengths:
        pattern = random_dna(rng, length)
        text = mutate(rng, pattern, max(1, length // 8)) + random_dna(rng, 4)
        jobs.append(LaneJob(pattern=pattern, text=text, max_errors=max(1, length // 10)))
    return SoAWave(jobs, traceback_band=True)


class TestWaveDescriptor:
    def test_plain_buffer_round_trip(self, rng):
        wave = _make_wave(rng)
        descriptor = wave.descriptor()
        buffer = bytearray(descriptor.nbytes)
        wave.pack_into(buffer, descriptor)
        rebuilt = SoAWave.from_buffer(descriptor, buffer)
        assert [(j.pattern, j.text, j.max_errors) for j in rebuilt.jobs] == [
            (j.pattern, j.text, j.max_errors) for j in wave.jobs
        ]
        # Reference tables come from a fresh wave (same seed) in case the
        # first run mutated wave state in place.
        want = run_dc_wave(_make_wave(random.Random(1234)))
        got = run_dc_wave(rebuilt)
        for a, b in zip(got, want):
            assert a.min_errors == b.min_errors
            assert a.final_column == b.final_column

    def test_shared_export_attach_unlink(self, rng):
        wave = _make_wave(rng)
        reference = run_dc_wave(_make_wave(random.Random(1234)))
        shared = wave.to_shared()
        name = shared.descriptor.segment
        assert name is not None
        attached = SoAWave.from_shared(shared.descriptor)
        try:
            got = run_dc_wave(attached)
            for a, b in zip(got, reference):
                assert a.min_errors == b.min_errors
                assert a.stored_bytes() == b.stored_bytes()
        finally:
            attached.close()
            shared.unlink()
        shared.unlink()  # idempotent
        assert not segment_exists(name)


# --------------------------------------------------------------------------- #
# Hosted genome and index
# --------------------------------------------------------------------------- #
class TestSharedResources:
    def test_shared_genome_matches_original(self, corpus):
        genome, _, _, _ = corpus
        segment, layout = host_genome(genome)
        shared = SharedGenome.attach(layout)
        try:
            assert shared.names() == genome.names()
            for chrom in genome.names():
                assert shared.sequence(chrom) == genome.sequence(chrom)
                assert shared.chromosome_length(chrom) == genome.chromosome_length(chrom)
                assert shared.fetch(chrom, 100, 250) == genome.fetch(chrom, 100, 250)
                assert shared.fetch(chrom, -5, 10) == genome.fetch(chrom, -5, 10)
                assert shared.fetch(chrom, 10, 5) == ""
        finally:
            shared.close()
            segment.unlink()
        assert not segment_exists(layout.segment)

    def test_shared_index_matches_original(self, corpus):
        _, mapper, _, _ = corpus
        segment, layout = host_index(mapper.index)
        shared = SharedMinimizerIndex.attach(layout)
        try:
            assert len(shared) == len(mapper.index)
            assert shared.k == mapper.index.k and shared.w == mapper.index.w
            for minimizer_hash, hits in list(mapper.index._table.items())[:100]:
                assert shared.lookup(minimizer_hash) == hits
                assert minimizer_hash in shared
            assert shared.lookup(0xDEADBEEF_DEADBEEF) == []
        finally:
            shared.close()
            segment.unlink()

    def test_mapper_over_shared_resources_is_identical(self, corpus):
        genome, mapper, reads, _ = corpus
        genome_segment, genome_layout = host_genome(genome)
        index_segment, index_layout = host_index(mapper.index)
        shared_genome = SharedGenome.attach(genome_layout)
        shared_index = SharedMinimizerIndex.attach(index_layout)
        try:
            shared_mapper = Mapper(shared_genome, index=shared_index)
            for read in reads[:6]:
                want = mapper.map_sequence(read.name, read.sequence)
                got = shared_mapper.map_sequence(read.name, read.sequence)
                assert got == want
                for a, b in zip(want, got):
                    assert mapper.candidate_region_sequence(
                        a, read.sequence
                    ) == shared_mapper.candidate_region_sequence(b, read.sequence)
        finally:
            shared_index.close()
            shared_genome.close()
            genome_segment.unlink()
            index_segment.unlink()


# --------------------------------------------------------------------------- #
# Executor lifecycle: normal exit, worker crash, cancellation
# --------------------------------------------------------------------------- #
class TestExecutorLifecycle:
    def test_normal_exit_unlinks_every_segment(self, corpus):
        _, mapper, reads, pairs = corpus
        config = GenASMConfig()
        expected = BatchAlignmentEngine(config).align_pairs(pairs)
        with SharedMemoryExecutor(workers=1, config=config, mapper=mapper) as ex:
            ex.warm(delay=0.0)
            assert_same_alignments(ex.run_alignments(pairs), expected)
            read = reads[0]
            mapped = ex.submit_map(read.name, read.sequence).result()
            local = [
                (c,) + mapper.candidate_region_sequence(c, read.sequence)
                for c in mapper.map_sequence(read.name, read.sequence)
            ]
            assert mapped == local
            names = ex.segment_names()
            assert len(names) >= 3  # genome + index + at least one wave
        assert ex.outstanding_waves() == 0
        leaked = [name for name in names if segment_exists(name)]
        assert not leaked

    def test_worker_crash_releases_wave_segments(self, corpus):
        _, _, _, pairs = corpus
        ex = SharedMemoryExecutor(workers=1, config=GenASMConfig())
        try:
            ex.warm(delay=0.0)
            # Kill the pool's only worker, then queue a wave behind the
            # crash.  Depending on when the pool notices the dead process,
            # the submission itself may raise (broken pool) or the wave's
            # future may fail; the wave segment must be unlinked either way.
            ex._pool.submit(os._exit, 1)
            try:
                future = ex.submit_wave(pairs[:4])
            except Exception:
                pass  # pool already marked broken at submit time
            else:
                with pytest.raises(Exception):
                    future.result(timeout=60)
        finally:
            ex.close()
        leaked = [name for name in ex.segment_names() if segment_exists(name)]
        assert not leaked

    def test_midstream_cancellation_releases_segments(self, corpus):
        _, _, _, pairs = corpus
        ex = SharedMemoryExecutor(workers=1, config=GenASMConfig())
        futures = []
        try:
            ex.start()
            # Queue more waves than the single worker can start; close with
            # cancel=True drops the queued ones mid-stream.
            for start in range(0, len(pairs), 4):
                futures.append(ex.submit_wave(pairs[start : start + 4]))
        finally:
            ex.close(cancel=True)
        assert ex.outstanding_waves() == 0
        leaked = [name for name in ex.segment_names() if segment_exists(name)]
        assert not leaked
        assert any(f.cancelled() or f.done() for f in futures)

    def test_executor_rejects_reuse_after_close(self):
        ex = SharedMemoryExecutor(workers=1, config=GenASMConfig())
        ex.close()
        with pytest.raises(RuntimeError):
            ex.start()

    def test_executor_validates_workers(self):
        with pytest.raises(ValueError):
            SharedMemoryExecutor(workers=0)

    def test_submit_map_requires_mapper(self):
        ex = SharedMemoryExecutor(workers=1, config=GenASMConfig())
        try:
            with pytest.raises(RuntimeError):
                ex.submit_map("r", "ACGT")
        finally:
            ex.close()


# --------------------------------------------------------------------------- #
# A traced streaming pipeline driven by a two-worker pool
# --------------------------------------------------------------------------- #
#: Every driver stage of the pipeline plus the cross-process worker wave span.
REQUIRED_SPANS = {
    "stage.ingest",
    "stage.map",
    "stage.batch",
    "stage.align",
    "stage.emit",
    "worker.align.wave",
}


class TestTracedPoolPipeline:
    def test_pool_driven_pipeline_matches_offline_and_traces_workers(self, corpus):
        _, mapper, reads, pairs = corpus
        config = GenASMConfig()
        expected = BatchAlignmentEngine(config).align_pairs(pairs)
        tracer = Tracer(process_name="driver")
        with SharedMemoryExecutor(
            workers=2, config=config, mapper=mapper, tracer=tracer
        ) as executor:
            executor.warm()
            pipeline = StreamingPipeline(
                mapper,
                config,
                wave_size=512,
                max_pending=512,
                executor=executor,
                tracer=tracer,
            )
            results = pipeline.run_all(reads)
            names = executor.segment_names()
        assert_same_alignments([mapped.alignment for mapped in results], expected)
        assert REQUIRED_SPANS <= {record.name for record in tracer.records()}
        tracks = {
            event["pid"]
            for event in chrome_trace(tracer)["traceEvents"]
            if event["name"] == "process_name"
        }
        assert len(tracks) >= 2
        assert not [name for name in names if segment_exists(name)]


# --------------------------------------------------------------------------- #
# Accumulator tail merging
# --------------------------------------------------------------------------- #
class _Item:
    def __init__(self, order):
        self.order = order


class TestTailMerge:
    def test_final_flush_merges_small_tail(self):
        from repro.pipeline.batcher import WaveAccumulator

        acc = WaveAccumulator(wave_size=8, max_pending=64)
        for i in range(18):  # 8 + 8 + tail of 2 (< merge_below=4)
            assert acc.push(_Item(i)) == []
        waves = acc.flush()
        assert [len(w) for w in waves] == [8, 10]
        assert acc.scheduling_stats == {"merged_waves": 1, "merged_lanes": 2}

    def test_tail_at_or_above_threshold_not_merged(self):
        from repro.pipeline.batcher import WaveAccumulator

        acc = WaveAccumulator(wave_size=8, max_pending=64)
        for i in range(12):  # tail of 4 == merge_below stays its own wave
            acc.push(_Item(i))
        assert [len(w) for w in acc.flush()] == [8, 4]
        assert acc.scheduling_stats["merged_waves"] == 0

    def test_merge_disabled_with_zero_threshold(self):
        from repro.pipeline.batcher import WaveAccumulator

        acc = WaveAccumulator(wave_size=8, max_pending=64, merge_below=0)
        for i in range(17):
            acc.push(_Item(i))
        assert [len(w) for w in acc.flush()] == [8, 8, 1]
        assert acc.scheduling_stats["merged_waves"] == 0

    def test_single_partial_wave_never_merges(self):
        from repro.pipeline.batcher import WaveAccumulator

        acc = WaveAccumulator(wave_size=8, max_pending=64)
        for i in range(3):
            acc.push(_Item(i))
        assert [len(w) for w in acc.flush()] == [3]
        assert acc.scheduling_stats["merged_waves"] == 0

    def test_negative_merge_below_rejected(self):
        from repro.pipeline.batcher import WaveAccumulator

        with pytest.raises(ValueError):
            WaveAccumulator(wave_size=8, max_pending=64, merge_below=-1)


# --------------------------------------------------------------------------- #
# Bounded reorder and out-of-order emission under stress
# --------------------------------------------------------------------------- #
class TestEmissionModes:
    @pytest.fixture(scope="class")
    def stress_pairs(self):
        rng = random.Random(99)
        pairs = []
        for _ in range(120):
            length = rng.randint(20, 220)
            pattern = random_dna(rng, length)
            text = mutate(rng, pattern, max(1, length // 10)) + random_dna(rng, 6)
            pairs.append((pattern, text))
        return pairs

    @pytest.fixture(scope="class")
    def reference(self, stress_pairs):
        return BatchAlignmentEngine(GenASMConfig()).align_pairs(stress_pairs)

    def test_bounded_reorder_stays_identical(self, stress_pairs, reference):
        pipeline = StreamingPipeline(
            config=GenASMConfig(), wave_size=8, max_pending=32, max_reorder=2
        )
        assert_same_alignments(pipeline.align_pairs(stress_pairs), reference)
        stats = pipeline.stats
        assert stats.reorder_bound == 2
        assert stats.aligned == len(stress_pairs)
        # After every forced drain the buffer is empty, so the *retained*
        # backlog high-water can never run away past the bound by more than
        # the sweep that detected it.
        assert stats.max_reorder_buffer <= 2 + max(stats.wave_lane_counts)

    def test_unordered_emission_is_a_permutation(self, stress_pairs, reference):
        pipeline = StreamingPipeline(
            config=GenASMConfig(), wave_size=8, max_pending=32, ordered=False
        )
        # align_pairs re-sorts by ordinal, so the caller still sees input
        # order even though emission was completion-ordered.
        assert_same_alignments(pipeline.align_pairs(stress_pairs), reference)
        assert pipeline.stats.max_reorder_buffer == 0

    def test_unordered_run_emits_every_ordinal_once(self, corpus):
        _, mapper, reads, pairs = corpus
        pipeline = StreamingPipeline(
            mapper, GenASMConfig(), wave_size=8, max_pending=16, ordered=False
        )
        emitted = [mapped.order for mapped in pipeline.run(reads)]
        assert sorted(emitted) == list(range(len(pairs)))

    def test_invalid_max_reorder_rejected(self):
        with pytest.raises(ValueError):
            StreamingPipeline(config=GenASMConfig(), max_reorder=0)

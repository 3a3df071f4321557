"""Lifecycle, equivalence and leak tests for the shared-memory layer.

Covers the zero-copy execution core end to end:

* segment-layout and pair-block round trips (:mod:`repro.parallel.shm`);
* :class:`SharedMemoryExecutor` segment hygiene — every segment the
  executor ever creates is gone from the system after a normal close,
  after a worker crash mid-stream, and after a cancellation close, traced
  or not, with every returned future settled;
* generated batches (the engine's adversarial hypothesis strategy) run
  on a warm two-worker executor, equal to the scalar aligner and to the
  in-process engine's metadata;
* a traced streaming pipeline mapping inline and aligning on a two-worker
  executor: offline-equal results, every stage plus the worker wave spans
  on one timeline;
* the streaming pipeline's in-order emission staying byte-identical to
  the offline vectorized path under a work-sorted stress mix.

The executor tests spawn real worker processes; they are kept small
(mostly single-worker pools, short pair lists) so the whole module stays
in tier-1 time budgets.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest
from hypothesis import given, settings

from repro.batch.engine import BatchAlignmentEngine
from repro.core.aligner import GenASMAligner
from repro.core.config import GenASMConfig
from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import PacBioSimulator
from repro.mapping.mapper import Mapper
from repro.parallel.shm import (
    SegmentLayout,
    SharedMemoryExecutor,
    SharedSegment,
    pack_arrays,
    pack_pairs,
    unpack_pairs,
)
from repro.pipeline import StreamingPipeline
from repro.telemetry import Tracer, chrome_trace
from tests.conftest import mutate, random_dna, segment_exists
from tests.test_batch_traceback import engine_batch


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
# Executor lifecycle: normal exit, worker crash, cancellation
# --------------------------------------------------------------------------- #
class TestExecutorLifecycle:
    def test_normal_exit_unlinks_every_segment(self, corpus):
        _, _, _, pairs = corpus
        config = GenASMConfig()
        expected = BatchAlignmentEngine(config).align_pairs(pairs)
        with SharedMemoryExecutor(workers=1, config=config) as ex:
            ex.warm(delay=0.0)
            assert_same_alignments(ex.run_alignments(pairs), expected)
            names = ex.segment_names()
            assert len(names) == 1  # one worker: the batch ships as one wave
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

    def test_traced_worker_crash_fails_the_returned_future(self, corpus):
        # Traced, the caller holds a future wrapping the pool's: a wave lost
        # to a worker crash must fail that future, not leave it pending.
        _, _, _, pairs = corpus
        ex = SharedMemoryExecutor(workers=1, config=GenASMConfig(), tracer=Tracer())
        try:
            ex.warm(delay=0.0)
            ex._pool.submit(os._exit, 1)
            try:
                future = ex.submit_wave(pairs[:4])
            except Exception:
                pass  # pool already marked broken at submit time
            else:
                with pytest.raises(Exception):
                    future.result(timeout=60)
                assert future.done() and not future.cancelled()
        finally:
            ex.close()
        leaked = [name for name in ex.segment_names() if segment_exists(name)]
        assert not leaked

    @pytest.mark.parametrize("tracer", [None, Tracer()], ids=["untraced", "traced"])
    def test_midstream_cancellation_releases_segments(self, corpus, tracer):
        _, _, _, pairs = corpus
        config = GenASMConfig()
        expected = BatchAlignmentEngine(config).align_pairs(pairs)
        ex = SharedMemoryExecutor(workers=1, config=config, tracer=tracer)
        starts = range(0, len(pairs), 4)
        futures = []
        try:
            ex.start()
            # Queue more waves than the single worker can start; close with
            # cancel=True drops the queued ones mid-stream.
            for start in starts:
                futures.append(ex.submit_wave(pairs[start : start + 4]))
        finally:
            ex.close(cancel=True)
        assert ex.outstanding_waves() == 0
        leaked = [name for name in ex.segment_names() if segment_exists(name)]
        assert not leaked
        # Every future has settled: a wave that started returns its
        # alignments, and a dropped one raises CancelledError.
        assert all(future.done() for future in futures)
        for start, future in zip(starts, futures):
            try:
                alignments = future.result()
            except CancelledError:
                continue
            assert_same_alignments(alignments, expected[start : start + 4])

    @pytest.mark.parametrize("tracer", [None, Tracer()], ids=["untraced", "traced"])
    def test_cancelling_a_queued_wave_releases_its_segment(self, corpus, tracer):
        _, _, _, pairs = corpus
        ex = SharedMemoryExecutor(workers=1, config=GenASMConfig(), tracer=tracer)
        try:
            # The only worker is still spawning, so the last of four waves
            # has not started: cancelling its future drops the wave and
            # its segment at once, and the waves before it still align.
            futures = [
                ex.submit_wave(pairs[start : start + 4])
                for start in range(0, len(pairs), 4)
            ]
            assert len(futures) == 4
            assert futures[-1].cancel()
            assert ex.outstanding_waves() == 3
            assert [len(f.result(timeout=60)) for f in futures[:-1]] == [4, 4, 4]
        finally:
            ex.close()
        assert futures[-1].cancelled()
        assert not [name for name in ex.segment_names() if segment_exists(name)]

    def test_executor_rejects_reuse_after_close(self):
        ex = SharedMemoryExecutor(workers=1, config=GenASMConfig())
        ex.close()
        with pytest.raises(RuntimeError):
            ex.start()

    def test_executor_validates_workers(self):
        with pytest.raises(ValueError):
            SharedMemoryExecutor(workers=0)


# --------------------------------------------------------------------------- #
# Generated batches on a warm pool
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=["default", "short_read"])
def warm_executor(request):
    """A warm two-worker executor per configuration, closed after its tests."""
    if request.param == "default":
        config = GenASMConfig()
    else:
        config = GenASMConfig.short_read(150)
    executor = SharedMemoryExecutor(workers=2, config=config)
    executor.warm(delay=0.0)
    yield executor
    executor.close()
    assert not [name for name in executor.segment_names() if segment_exists(name)]


def wave_segments_released(executor, timeout: float = 5.0) -> bool:
    """Wait for the executor to release its wave segments.

    A wave's segment is unlinked by a done-callback that the pool runs
    just after it sets the wave's result, so ``run_alignments`` can return
    a moment before the release.
    """
    deadline = time.monotonic() + timeout
    while executor.outstanding_waves() and time.monotonic() < deadline:
        time.sleep(0.001)
    return executor.outstanding_waves() == 0


class TestGeneratedBatches:
    @settings(deadline=None)
    @given(pairs=engine_batch())
    def test_run_alignments_equals_the_in_process_aligners(self, warm_executor, pairs):
        config = warm_executor.config
        got = warm_executor.run_alignments(pairs)
        assert_same_alignments(got, GenASMAligner(config).align_batch(pairs))
        engine = BatchAlignmentEngine(config).align_pairs(pairs)
        assert [a.metadata for a in got] == [a.metadata for a in engine]
        assert wave_segments_released(warm_executor)


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
        with SharedMemoryExecutor(workers=2, config=config, tracer=tracer) as executor:
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
        for i in range(18):  # 8 + 8 + tail of 2 (< wave_size // 2 = 4)
            assert acc.push(_Item(i)) == []
        waves = acc.flush()
        assert [len(w) for w in waves] == [8, 10]
        assert (acc.stats.wave_merges, acc.stats.merged_lanes) == (1, 2)

    def test_tail_at_or_above_threshold_not_merged(self):
        from repro.pipeline.batcher import WaveAccumulator

        acc = WaveAccumulator(wave_size=8, max_pending=64)
        for i in range(12):  # tail of 4 == wave_size // 2 stays its own wave
            acc.push(_Item(i))
        assert [len(w) for w in acc.flush()] == [8, 4]
        assert acc.stats.wave_merges == 0

    def test_odd_wave_size_threshold_rounds_down(self):
        from repro.pipeline.batcher import WaveAccumulator

        # wave_size // 2 = 4 for waves of 9: a tail of 3 merges, 4 stays.
        merged = WaveAccumulator(wave_size=9, max_pending=64)
        for i in range(21):
            merged.push(_Item(i))
        assert [len(w) for w in merged.flush()] == [9, 12]
        assert (merged.stats.wave_merges, merged.stats.merged_lanes) == (1, 3)
        kept = WaveAccumulator(wave_size=9, max_pending=64)
        for i in range(22):
            kept.push(_Item(i))
        assert [len(w) for w in kept.flush()] == [9, 9, 4]
        assert kept.stats.wave_merges == 0

    def test_single_partial_wave_never_merges(self):
        from repro.pipeline.batcher import WaveAccumulator

        acc = WaveAccumulator(wave_size=8, max_pending=64)
        for i in range(3):
            acc.push(_Item(i))
        assert [len(w) for w in acc.flush()] == [3]
        assert acc.stats.wave_merges == 0


# --------------------------------------------------------------------------- #
# In-order emission under stress
# --------------------------------------------------------------------------- #
class TestEmissionOrder:
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

    def test_work_sorted_waves_emit_in_input_order(self, stress_pairs):
        reference = BatchAlignmentEngine(GenASMConfig()).align_pairs(stress_pairs)
        # Each backpressure cut dispatches the 24 cheapest of 30 pending
        # pairs and keeps the rest, so results complete out of input order.
        pipeline = StreamingPipeline(config=GenASMConfig(), wave_size=8, max_pending=30)
        emitted = pipeline.align_pairs(stress_pairs)
        assert [a.pattern for a in emitted] == [p for p, _ in stress_pairs]
        assert_same_alignments(emitted, reference)
        stats = pipeline.stats
        assert stats.aligned == len(stress_pairs)
        # The reorder buffer held results back — and still emitted each.
        assert stats.max_reorder_buffer > 0

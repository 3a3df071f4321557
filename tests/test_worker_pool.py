"""Lifecycle and equivalence tests for the worker pool.

Covers multi-process execution end to end:

* :class:`WorkerPool` lifecycle (:mod:`repro.parallel.pool`) — one wave
  per worker, a wave's pairs sent as they were at submit, a traced
  wave's span coming back with its alignments, a worker crash failing
  its wave's future, a cancellation close or a cancelled queued wave
  settling every future, traced or not, and a closed pool staying
  closed;
* generated batches (the engine's adversarial hypothesis strategy) run
  on a warm two-worker pool, equal to the scalar aligner and to the
  in-process engine's metadata;
* a traced streaming pipeline mapping inline and aligning on a two-worker
  pool: offline-equal results, every stage plus the worker wave spans
  on one timeline, each worker span carrying its wave's id and width;
* the streaming pipeline's in-order emission staying byte-identical to
  the offline vectorized path under a work-sorted stress mix.

The pool tests spawn real worker processes; they are kept small
(mostly single-worker pools, short pair lists) so the whole module stays
in tier-1 time budgets.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import CancelledError

import pytest
from hypothesis import given, settings

from repro.batch.engine import BatchAlignmentEngine
from repro.core.aligner import GenASMAligner
from repro.core.config import GenASMConfig
from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import PacBioSimulator
from repro.mapping.mapper import Mapper
from repro.parallel.pool import WorkerPool
from repro.pipeline import StreamingPipeline
from repro.telemetry import Tracer, chrome_trace
from tests.conftest import mutate, random_dna
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
# Pool lifecycle: normal exit, worker crash, cancellation
# --------------------------------------------------------------------------- #
class TestPoolLifecycle:
    def test_one_worker_aligns_the_batch_as_one_wave(self, corpus, submitted_waves):
        _, _, _, pairs = corpus
        config = GenASMConfig()
        expected = BatchAlignmentEngine(config).align_pairs(pairs)
        with WorkerPool(workers=1, config=config) as pool:
            pool.warm(delay=0.0)
            assert_same_alignments(pool.run_alignments(pairs), expected)
        assert submitted_waves == [(pool, len(pairs))]

    def test_worker_crash_fails_the_wave(self, corpus):
        _, _, _, pairs = corpus
        pool = WorkerPool(workers=1, config=GenASMConfig())
        try:
            pool.warm(delay=0.0)
            # Kill the pool's only worker, then queue a wave behind the
            # crash.  Depending on when the pool notices the dead process,
            # the submission itself may raise (broken pool) or the wave's
            # future may fail.
            pool._pool.submit(os._exit, 1)
            try:
                future = pool.submit_wave(pairs[:4])
            except Exception:
                pass  # pool already marked broken at submit time
            else:
                with pytest.raises(Exception):
                    future.result(timeout=60)
        finally:
            pool.close()

    def test_traced_worker_crash_fails_the_returned_future(self, corpus):
        # Traced, the caller holds a future wrapping the pool's: a wave lost
        # to a worker crash must fail that future, not leave it pending.
        _, _, _, pairs = corpus
        pool = WorkerPool(workers=1, config=GenASMConfig(), tracer=Tracer())
        try:
            pool.warm(delay=0.0)
            pool._pool.submit(os._exit, 1)
            try:
                future = pool.submit_wave(pairs[:4])
            except Exception:
                pass  # pool already marked broken at submit time
            else:
                with pytest.raises(Exception):
                    future.result(timeout=60)
                assert future.done() and not future.cancelled()
        finally:
            pool.close()

    @pytest.mark.parametrize("tracer", [None, Tracer()], ids=["untraced", "traced"])
    def test_midstream_cancellation_settles_every_future(self, corpus, tracer):
        _, _, _, pairs = corpus
        config = GenASMConfig()
        expected = BatchAlignmentEngine(config).align_pairs(pairs)
        pool = WorkerPool(workers=1, config=config, tracer=tracer)
        starts = range(0, len(pairs), 4)
        futures = []
        try:
            pool.start()
            # Queue more waves than the single worker can start; close with
            # cancel=True drops the queued ones mid-stream.
            for start in starts:
                futures.append(pool.submit_wave(pairs[start : start + 4]))
        finally:
            pool.close(cancel=True)
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
    def test_cancelling_a_queued_wave_drops_only_it(self, corpus, tracer):
        _, _, _, pairs = corpus
        pool = WorkerPool(workers=1, config=GenASMConfig(), tracer=tracer)
        try:
            # The only worker is still spawning, so the last of four waves
            # has not started: cancelling its future drops the wave at
            # once, and the waves before it still align.
            futures = [
                pool.submit_wave(pairs[start : start + 4])
                for start in range(0, len(pairs), 4)
            ]
            assert len(futures) == 4
            assert futures[-1].cancel()
            assert [len(f.result(timeout=60)) for f in futures[:-1]] == [4, 4, 4]
        finally:
            pool.close()
        assert futures[-1].cancelled()

    def test_submit_wave_sends_the_pairs_as_submitted(self, corpus):
        # The pool pickles a wave's pairs on its feeder thread, after
        # submit_wave has returned: a caller reusing its list must not
        # change the wave.
        _, _, _, pairs = corpus
        config = GenASMConfig()
        wave = list(pairs[:4])
        expected = BatchAlignmentEngine(config).align_pairs(wave)
        with WorkerPool(workers=1, config=config) as pool:
            future = pool.submit_wave(wave)
            wave[:] = [("ACGT", "TTTT")] * 4
            assert_same_alignments(future.result(timeout=60), expected)

    def test_traced_wave_resolves_to_alignments_and_ships_its_span(self, corpus):
        _, _, _, pairs = corpus
        config = GenASMConfig()
        tracer = Tracer(process_name="driver")
        with WorkerPool(workers=1, config=config, tracer=tracer) as pool:
            alignments = pool.submit_wave(pairs[:3], wave_id=41).result(timeout=60)
        assert_same_alignments(
            alignments, BatchAlignmentEngine(config).align_pairs(pairs[:3])
        )
        (span,) = [r for r in tracer.records() if r.name == "worker.align.wave"]
        assert (span.attrs["wave_id"], span.attrs["lanes"]) == (41, 3)
        assert span.pid != os.getpid()
        assert tracer.process_names[span.pid] == f"pool-worker-{span.pid}"

    def test_context_exit_closes_the_pool_for_good(self):
        with WorkerPool(workers=1, config=GenASMConfig()) as pool:
            assert pool.started
        assert not pool.started
        pool.close()  # closing again changes nothing
        with pytest.raises(RuntimeError):
            pool.submit_wave([("ACGT", "ACGT")])

    def test_pool_rejects_reuse_after_close(self):
        pool = WorkerPool(workers=1, config=GenASMConfig())
        pool.close()
        with pytest.raises(RuntimeError):
            pool.start()

    def test_pool_validates_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)


# --------------------------------------------------------------------------- #
# Generated batches on a warm pool
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=["default", "short_read"])
def warm_pool(request):
    """A warm two-worker pool per configuration, closed after its tests."""
    if request.param == "default":
        config = GenASMConfig()
    else:
        config = GenASMConfig.short_read(150)
    with WorkerPool(workers=2, config=config) as pool:
        pool.warm(delay=0.0)
        yield pool


class TestGeneratedBatches:
    @settings(deadline=None)
    @given(pairs=engine_batch())
    def test_run_alignments_equals_the_in_process_aligners(self, warm_pool, pairs):
        config = warm_pool.config
        got = warm_pool.run_alignments(pairs)
        assert_same_alignments(got, GenASMAligner(config).align_batch(pairs))
        engine = BatchAlignmentEngine(config).align_pairs(pairs)
        assert [a.metadata for a in got] == [a.metadata for a in engine]


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
        with WorkerPool(workers=2, config=config, tracer=tracer) as pool:
            pool.warm()
            # Waves of four split the corpus's 14 pairs into several waves,
            # so each worker span must name its own wave.
            pipeline = StreamingPipeline(
                mapper,
                config,
                wave_size=4,
                max_pending=8,
                executor=pool,
                tracer=tracer,
            )
            results = pipeline.run_all(reads)
        assert_same_alignments([mapped.alignment for mapped in results], expected)
        records = tracer.records()
        assert REQUIRED_SPANS <= {record.name for record in records}
        tracks = {
            event["pid"]
            for event in chrome_trace(tracer)["traceEvents"]
            if event["name"] == "process_name"
        }
        assert len(tracks) >= 2
        # Each worker span carries the id and width of the wave the driver
        # dispatched: one worker span per dispatched wave.
        dispatched = [
            (record.attrs["wave_id"], record.attrs["lanes"])
            for record in records
            if record.name == "align.dispatch"
        ]
        worked = [
            (record.attrs["wave_id"], record.attrs["lanes"])
            for record in records
            if record.name == "worker.align.wave"
        ]
        assert len(dispatched) > 1 and sorted(worked) == sorted(dispatched)


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

"""Tests for the vectorized batch engine, its shared-memory executor and
the degenerate-input windowing paths.

The central contract: the vectorized lockstep engine produces
byte-identical CIGARs and edit distances to the scalar path on the
simulated-read corpus, and so does a two-worker
:class:`SharedMemoryExecutor` running it.
"""

from __future__ import annotations

import itertools

import pytest

from repro.batch import (
    BatchAlignmentEngine,
    LaneJob,
    SoAWave,
    lockstep_stats,
    run_dc_wave_state,
)
from repro.core.aligner import GenASMAligner
from repro.core.cigar import CigarOp
from repro.core.config import GenASMConfig
from repro.core.genasm_dc import genasm_dc
from repro.core.improvements import entry_bytes
from repro.core.metrics import AccessCounter
from repro.core.windowing import align_window, align_windowed
from repro.gpu.device import A6000
from repro.gpu.kernel import GenASMKernelSpec
from repro.gpu.simulator import GpuSimulator
from repro.harness.dataset import build_paper_dataset
from repro.parallel.shm import SharedMemoryExecutor
from tests.conftest import assert_same_dc_table, mutate, random_dna


def _random_pairs(rng, specs):
    """(pattern, text) pairs: mutated copies plus trailing slack."""
    pairs = []
    for length, edits in specs:
        pattern = random_dna(rng, length)
        text = mutate(rng, pattern, edits) + random_dna(rng, 8)
        pairs.append((pattern, text))
    return pairs


def _assert_identical(scalar_alignments, batch_alignments):
    assert len(scalar_alignments) == len(batch_alignments)
    for a, b in zip(scalar_alignments, batch_alignments):
        assert str(a.cigar) == str(b.cigar)
        assert a.edit_distance == b.edit_distance
        assert a.text_end == b.text_end
        for key in (
            "windows",
            "rows_computed",
            "peak_window_bytes",
            "total_stored_bytes",
            "dp_accesses",
            "dp_bytes",
        ):
            assert a.metadata[key] == b.metadata[key], key


class TestVectorizedEquivalence:
    """Vectorized engine ≡ scalar aligner, bit for bit."""

    def test_identical_on_simulated_read_corpus(self):
        workload = build_paper_dataset(
            read_count=4, read_length=600, seed=11, max_pairs=8
        )
        config = GenASMConfig()
        scalar = GenASMAligner(config)
        batch = BatchAlignmentEngine(config)
        _assert_identical(
            [scalar.align(p, t) for p, t in workload.pairs],
            batch.align_pairs(workload.pairs),
        )

    @pytest.mark.parametrize(
        "entry_compression,early_termination,traceback_band",
        list(itertools.product([False, True], repeat=3)),
    )
    def test_identical_across_improvement_toggles(
        self, rng, entry_compression, early_termination, traceback_band
    ):
        config = GenASMConfig(
            entry_compression=entry_compression,
            early_termination=early_termination,
            traceback_band=traceback_band,
        )
        pairs = _random_pairs(rng, [(5, 1), (63, 6), (64, 5), (65, 4), (150, 15)])
        pairs += [("", "ACGT"), ("ACGT", ""), ("ACGTACGT", "TTTT")]
        scalar = GenASMAligner(config)
        _assert_identical(
            [scalar.align(p, t) for p, t in pairs],
            BatchAlignmentEngine(config).align_pairs(pairs),
        )

    def test_shared_counter_accumulates_like_align_batch(self, rng):
        pairs = _random_pairs(rng, [(100, 8), (70, 5)])
        config = GenASMConfig()
        scalar_counter = AccessCounter()
        GenASMAligner(config).align_batch(pairs, counter=scalar_counter)
        batch_counter = AccessCounter()
        BatchAlignmentEngine(config).align_pairs(pairs, counter=batch_counter)
        assert batch_counter.as_dict() == scalar_counter.as_dict()

    def test_wide_window_config_vectorizes_multi_word(self, rng):
        # The short-read config takes the multi-word lockstep path (3
        # uint64 words per 150-character lane) and stays byte-identical.
        config = GenASMConfig.short_read(read_length=150)
        engine = BatchAlignmentEngine(config)
        assert engine.words_per_lane == 3
        pairs = _random_pairs(rng, [(150, 4), (150, 2), (40, 1)])
        _assert_identical(
            [GenASMAligner(config).align(p, t) for p, t in pairs],
            engine.align_pairs(pairs),
        )
        for alignment in engine.align_pairs(pairs):
            assert alignment.metadata["words_per_lane"] == 3

    def test_vectorized_metadata_recorded_on_vectorized_path(self, rng):
        pairs = _random_pairs(rng, [(70, 5)])
        for alignment in BatchAlignmentEngine(GenASMConfig()).align_pairs(pairs):
            assert alignment.metadata["words_per_lane"] == 1

    def test_max_lanes_chunking_preserves_results(self, rng):
        pairs = _random_pairs(rng, [(90, 8), (120, 10), (40, 3), (64, 6)])
        config = GenASMConfig()
        whole = BatchAlignmentEngine(config).align_pairs(pairs)
        chunked = BatchAlignmentEngine(config, max_lanes=2).align_pairs(pairs)
        _assert_identical(whole, chunked)


class TestDCWave:
    """The lockstep DC kernel against the scalar genasm_dc, state for state."""

    @staticmethod
    def _edge_lanes(rng):
        """(pattern, text, k) lanes at the edges of the anti-diagonal scan."""
        p30 = random_dna(rng, 30)
        p50 = random_dna(rng, 50)
        p129 = random_dna(rng, 129)
        return [
            # A failing budget: min_errors is None, so the lane's rows run to k.
            ("A" * 30, "C" * 30, 3),
            # max_errors=0, solved and failing (a solution must end at the
            # text's last column).
            (p30, "GATT" + p30, 0),
            (p30, mutate(rng, p30, 3), 0),
            # A 1-base text.
            ("ACGTACGT", "T", 8),
            # A text shorter than its pattern.
            (p50, p50[:30], 25),
            # A text much shorter than the wave's n_max: the lane's cells
            # finish while the scan ramps down over the longer lanes.
            ("GATTACA", "GATAC", 4),
            # A 129-base pattern: three words per lane.
            (p129, mutate(rng, p129, 8) + random_dna(rng, 4), 12),
        ]

    @pytest.mark.parametrize("early_termination", [False, True])
    @pytest.mark.parametrize("entry_compression", [False, True])
    @pytest.mark.parametrize("traceback_band", [False, True])
    def test_stored_state_matches_scalar(
        self, rng, entry_compression, traceback_band, early_termination
    ):
        lanes = []
        for length, k in [(12, 3), (40, 7), (64, 9), (1, 1), (65, 6), (100, 11), (150, 9)]:
            pattern = random_dna(rng, length)
            text = mutate(rng, pattern, max(1, length // 8)) + random_dna(rng, 4)
            lanes.append((pattern, text, k))
        lanes.extend(self._edge_lanes(rng))
        jobs = []
        scalar_tables = []
        for pattern, text, k in lanes:
            store_from = 2 if traceback_band and len(pattern) > 4 else 0
            jobs.append(
                LaneJob(pattern=pattern, text=text, max_errors=k, store_from=store_from)
            )
            scalar_tables.append(
                genasm_dc(
                    pattern,
                    text,
                    k,
                    entry_compression=entry_compression,
                    early_termination=early_termination,
                    traceback_band=traceback_band,
                    store_from_column=store_from,
                )
            )
        # The edges are really exercised: a failing budget and a k=0 lane
        # of each outcome, and lanes far shorter than the longest text.
        assert scalar_tables[7].min_errors is None
        assert scalar_tables[8].min_errors == 0
        assert scalar_tables[9].min_errors is None
        assert scalar_tables[10].min_errors is not None
        wave = SoAWave(jobs, traceback_band=traceback_band)
        assert wave.words == 3 and wave.n_max > 100
        tables = run_dc_wave_state(
            wave,
            entry_compression=entry_compression,
            early_termination=early_termination,
        ).tables()
        for got, want in zip(tables, scalar_tables):
            assert_same_dc_table(got, want)

    @pytest.mark.parametrize("traceback_band", [False, True])
    def test_entry_store_follows_entry_bytes(self, traceback_band):
        # SoAWave keeps a vectorized copy of the scalar entry-size rule;
        # these widths cross every storage unit (8..64 bits) and the
        # one-, two- and three-word lanes.
        lanes = [
            (m, k)
            for m in (1, 7, 8, 9, 16, 17, 33, 64, 65, 128, 129, 150)
            for k in (0, 1, 3, 7, 15, 31, 40)
        ]
        wave = SoAWave(
            [LaneJob(pattern="A" * m, text="ACGT", max_errors=k) for m, k in lanes],
            traceback_band=traceback_band,
        )
        want = [entry_bytes(m, min(k, m), traceback_band) for m, k in lanes]
        assert wave.entry_store.tolist() == want

    def test_lane_job_validation(self):
        with pytest.raises(ValueError):
            LaneJob(pattern="", text="ACGT", max_errors=1)
        with pytest.raises(ValueError):
            LaneJob(pattern="ACGT", text="", max_errors=1)
        with pytest.raises(ValueError):
            SoAWave([], traceback_band=True)
        # Patterns wider than one word are valid multi-word lanes now.
        wave = SoAWave(
            [LaneJob(pattern="A" * 65, text="ACGT", max_errors=1)],
            traceback_band=True,
        )
        assert wave.words == 2


class TestWaveMasks:
    """Bulk wave masks follow the scalar zero-match rule for any alphabet."""

    @pytest.mark.parametrize(
        "alphabet",
        ["ACGT", "ACGTN", "ACGTacgt", "ACGU", "ACGT-*", "ACGTΩ", "ACGT😀"],
        ids=["dna", "n", "lowercase", "rna", "punctuation", "non-latin-1", "astral"],
    )
    def test_masks_follow_zero_match_rule(self, rng, alphabet):
        # Bit i of text character c's mask is 0 iff pattern[i] == c and c
        # is one of ACGT: a character outside ACGT matches nothing, itself
        # included.
        jobs = []
        for length in (5, 64, 65, 130):
            pattern = "".join(rng.choice(alphabet) for _ in range(length))
            noise = "".join(rng.choice(alphabet) for _ in range(9))
            jobs.append(
                LaneJob(pattern=pattern, text=pattern[: length // 2] + noise, max_errors=4)
            )
        wave = SoAWave(jobs, traceback_band=True)
        for lane, job in enumerate(jobs):
            ones = (1 << len(job.pattern)) - 1
            columns = [
                ones
                ^ sum(1 << i for i, p in enumerate(job.pattern) if p == c and c in "ACGT")
                for c in job.text
            ]
            columns += [ones] * (wave.n_max - len(job.text))
            for w in range(wave.words):
                want = [(value >> (64 * w)) & (2**64 - 1) for value in columns]
                assert [int(v) for v in wave.masks[w, lane]] == want, (lane, w)

    @pytest.mark.parametrize(
        "where, char",
        [("pattern", "Ω"), ("text", "Ω"), ("both", "😀")],
        ids=["pattern", "text", "astral-both"],
    )
    def test_non_latin1_lanes_align_like_scalar(self, rng, where, char):
        # One "?" per code point keeps every later column in place, so a
        # wave mixing such lanes with plain DNA lanes aligns like the
        # scalar path, multi-word lanes included.
        pairs = _random_pairs(rng, [(40, 3), (90, 6), (150, 10)])
        for pattern, text in list(pairs):
            if where in ("pattern", "both"):
                pattern = pattern[:10] + char + pattern[10:]
            if where in ("text", "both"):
                text = text[:12] + char + text[12:]
            pairs.append((pattern, text))
        config = GenASMConfig()
        _assert_identical(
            GenASMAligner(config).align_batch(pairs),
            BatchAlignmentEngine(config).align_pairs(pairs),
        )


class TestDegenerateWindowing:
    """Degenerate inputs through align_window / align_windowed."""

    def test_empty_text_window_counts_window(self):
        counter = AccessCounter()
        result = align_window("ACGT", "", GenASMConfig(), counter=counter)
        assert [op for op in result.ops] == [CigarOp.INSERTION] * 4
        assert result.pattern_consumed == 4
        assert counter.windows == 1

    def test_empty_pattern_window_counts_window(self):
        counter = AccessCounter()
        result = align_window("", "ACGT", GenASMConfig(), counter=counter)
        assert result.ops == []
        assert counter.windows == 1

    def test_window_size_larger_than_pattern(self):
        config = GenASMConfig(window_size=64, window_overlap=16)
        result = align_windowed("ACGTAC", "ACGTAC", config)
        assert result.edit_distance == 0
        assert result.windows == 1
        assert result.counter.windows == 1

    def test_zero_length_read_through_align_windowed(self):
        result = align_windowed("", "ACGTACGT", GenASMConfig())
        assert result.edit_distance == 0
        assert result.windows == 0
        assert len(result.cigar.runs) == 0
        assert result.text_consumed == 0

    def test_empty_pattern_dc_table_respects_storage_config(self):
        compressed = genasm_dc("", "ACG", 2, entry_compression=True)
        assert compressed.stored_r == [[0, 0, 0, 0]]
        assert compressed.stored_quad == []
        quad = genasm_dc("", "ACG", 2, entry_compression=False)
        assert quad.stored_r == []
        assert quad.stored_quad == [[(0, 0, 0, 0)] * 3]
        assert quad.min_errors == 0


class TestSharedExecutorBatch:
    """``SharedMemoryExecutor.run_alignments`` ≡ ``GenASMAligner.align_batch``."""

    @pytest.fixture(scope="class")
    def pool(self):
        with SharedMemoryExecutor(workers=2, config=GenASMConfig()) as executor:
            yield executor

    def test_two_workers_match_align_batch(self, rng):
        pairs = _random_pairs(rng, [(60, 4), (90, 7), (150, 12)])
        config = GenASMConfig()
        with SharedMemoryExecutor(workers=2, config=config) as executor:
            shared = executor.run_alignments(pairs)
        _assert_identical(GenASMAligner(config).align_batch(pairs), shared)

    def test_one_worker_runs_on_its_pool(self, rng):
        # One worker still means a pool: the batch crosses a shared segment.
        pairs = _random_pairs(rng, [(60, 4), (90, 7)])
        config = GenASMConfig()
        with SharedMemoryExecutor(workers=1, config=config) as executor:
            shared = executor.run_alignments(pairs)
            assert len(executor.segment_names()) == 1
            assert executor.outstanding_waves() == 0
        _assert_identical(GenASMAligner(config).align_batch(pairs), shared)

    def test_pool_stays_warm_across_batches(self, rng, pool):
        pids = pool.warm()
        aligner = GenASMAligner(pool.config)
        for specs in ([(60, 4), (90, 7), (120, 9)], [(200, 15)] * 5):
            pairs = _random_pairs(rng, specs)
            _assert_identical(aligner.align_batch(pairs), pool.run_alignments(pairs))
            assert pool.outstanding_waves() == 0
        assert pool.started and pool.warm() == pids

    def test_degenerate_pairs_match_align_batch(self, pool):
        pairs = [("", "ACGT"), ("ACGT", ""), ("A", "A"), ("", ""), ("ACGT" * 30, "ACG")]
        shared = pool.run_alignments(pairs)
        assert [(a.pattern, a.text) for a in shared] == pairs
        _assert_identical(GenASMAligner(pool.config).align_batch(pairs), shared)

    def test_empty_batch_starts_no_pool(self):
        executor = SharedMemoryExecutor(workers=2)
        try:
            assert executor.run_alignments([]) == []
            assert not executor.started
        finally:
            executor.close()

    def test_short_read_config_matches_align_batch(self, rng):
        # The pool aligns under the config it was built with.
        config = GenASMConfig.short_read(150)
        pairs = _random_pairs(rng, [(150, 6), (150, 12), (120, 3), (150, 9)])
        with SharedMemoryExecutor(workers=2, config=config) as executor:
            shared = executor.run_alignments(pairs)
        _assert_identical(GenASMAligner(config).align_batch(pairs), shared)
        default = GenASMAligner(GenASMConfig()).align_batch(pairs)
        windows = [a.metadata["windows"] for a in shared]
        assert windows != [a.metadata["windows"] for a in default]


class TestWarpModel:
    def test_lockstep_stats(self):
        stats = lockstep_stats([4.0, 1.0, 4.0, 4.0], 2)
        assert stats["groups"] == 2
        assert stats["useful_work"] == pytest.approx(13.0)
        assert stats["lockstep_work"] == pytest.approx(16.0)
        assert stats["efficiency"] == pytest.approx(13.0 / 16.0)
        assert lockstep_stats([], 32)["efficiency"] == 1.0
        with pytest.raises(ValueError):
            lockstep_stats([1.0], 0)

    def test_warp_divergence_and_lockstep_simulation(self, rng):
        pairs = _random_pairs(rng, [(200, 16), (80, 4), (300, 24), (120, 8)])
        kernel = GenASMKernelSpec(GenASMConfig())
        profiles = kernel.profile_batch(pairs)
        simulator = GpuSimulator(A6000)
        stats = simulator.warp_divergence(profiles, warp_size=2)
        assert 0.0 < stats["efficiency"] <= 1.0
        uniform = simulator.simulate(pairs, kernel, profiles=profiles)
        diverged = simulator.simulate(
            pairs, kernel, profiles=profiles, warp_lockstep=True
        )
        assert uniform.lane_efficiency == 1.0
        assert 0.0 < diverged.lane_efficiency <= 1.0
        assert diverged.compute_seconds >= uniform.compute_seconds
        assert "lane_efficiency" in diverged.summary()


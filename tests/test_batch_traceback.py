"""Differential test harness for the lockstep decision-word traceback.

The contract: the vectorized batch path (lockstep DC wave + lockstep
decision-word traceback + wave scheduling) is **byte-identical** to the
scalar ``align_windowed`` reference — CIGARs, edit distances, consumed text
spans, per-pair metadata and every :class:`AccessCounter` field — on the
configurations the engine runs (the default and the short-read one: all
three improvements on, ``MSDI`` tie-breaks), over window widths of 1-3
words, budgets down to 0, randomized inputs and adversarial shapes
(all-match, all-mismatch, homopolymer, empty-window).  The engine runs no
other configuration; the baseline and the ablations align on
:class:`GenASMAligner`, whose toggles and tie-break orders the
``repro.core`` tests cover (``TestImprovementToggles`` in
``tests/test_aligner_windowing.py``).  The decision words themselves are
checked bit by bit against the scalar predicates exposed by
:func:`repro.core.genasm_tb.traceback_conditions`, and a golden
simulated-read corpus pins both paths to checked-in expected output.
"""

from __future__ import annotations

import json
import pathlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.batch.engine as engine_module
from repro.batch import (
    BatchAlignmentEngine,
    build_wave_decisions,
    lockstep_stats,
    lockstep_traceback,
    run_dc_wave_state,
)
from repro.core.aligner import GenASMAligner
from repro.core.cigar import CigarOp
from repro.core.config import GenASMConfig
from repro.core.genasm_tb import TracebackError, genasm_traceback, traceback_conditions
from repro.core.metrics import AccessCounter
from repro.gpu.device import A6000
from repro.gpu.kernel import GenASMKernelSpec
from repro.gpu.simulator import GpuSimulator
from tests.conftest import (
    ENGINE_CONFIGS,
    WINDOW_SIZES,
    adversarial_pairs,
    lane_wave,
    mutate,
    random_dna,
    random_pairs,
    window_boundary_pairs,
    window_config,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"

#: Engine ``max_lanes``: whole-batch waves, and one-lane waves in which the
#: lockstep walk traces a single lane at a time.
WAVE_WIDTHS = [None, 1]
WAVE_WIDTH_IDS = ["full-waves", "one-lane-waves"]


def assert_pairwise_identical(scalar_alignments, batch_alignments, context=""):
    assert len(scalar_alignments) == len(batch_alignments)
    for want, got in zip(scalar_alignments, batch_alignments):
        assert str(got.cigar) == str(want.cigar), context
        assert got.edit_distance == want.edit_distance, context
        assert got.text_end == want.text_end, context
        for key in (
            "windows",
            "rows_computed",
            "peak_window_bytes",
            "total_stored_bytes",
            "dp_accesses",
            "dp_bytes",
        ):
            assert got.metadata[key] == want.metadata[key], f"{context}: {key}"


class TestDifferentialEquivalence:
    """Vectorized path ≡ scalar path per field, on the engine's configs."""

    @ENGINE_CONFIGS
    def test_engine_configs(self, rng, config):
        pairs = random_pairs(rng) + adversarial_pairs()
        context = f"window={config.window_size}"

        # Per-pair scalar counters (a shared align_batch counter would
        # snapshot running totals into metadata), merged for the
        # whole-batch comparison.
        scalar_counter = AccessCounter()
        aligner = GenASMAligner(config)
        scalar = []
        for pattern, text in pairs:
            pair_counter = AccessCounter()
            scalar.append(aligner.align(pattern, text, counter=pair_counter))
            scalar_counter.merge(pair_counter)
        batch_counter = AccessCounter()
        batch = BatchAlignmentEngine(config).align_pairs(pairs, counter=batch_counter)

        assert_pairwise_identical(scalar, batch, context)
        # Every AccessCounter field over the whole batch, including the
        # traceback-side fields (tb_steps, dp_reads, bytes_read) the
        # lockstep walk replicates via its read-accounting tables.
        assert batch_counter.as_dict() == scalar_counter.as_dict(), context

    def test_one_lane_waves(self, rng):
        # Each pair in its own chunk: every windowing step, whatever attempt
        # solves it, traces exactly one lane.
        config = GenASMConfig()
        pairs = random_pairs(rng) + adversarial_pairs()
        aligner = GenASMAligner(config)
        scalar = [aligner.align(pattern, text) for pattern, text in pairs]
        batch = BatchAlignmentEngine(config, max_lanes=1).align_pairs(pairs)
        assert_pairwise_identical(scalar, batch, "one-lane waves")

    def test_alignments_validate_against_sequences(self, rng):
        # validate() compares raw characters, while GenASM never matches a
        # character outside ACGT (N against N is an X), so those pairs are
        # left to the differential tests.
        pairs = random_pairs(rng) + [
            pair for pair in adversarial_pairs() if set("".join(pair)) <= set("ACGT")
        ]
        for alignment in BatchAlignmentEngine(GenASMConfig()).align_pairs(pairs):
            alignment.validate()


class TestMultiWordDifferential:
    """Windows spanning 1-3 words/lane, pinned byte-identical to scalar.

    The same per-field equivalence contract (CIGARs, edit distances,
    spans, metadata, every AccessCounter field), parametrized over
    ``window_size`` so word counts 1, 2 and 3 — including the exact 64/65
    boundary pair — are all exercised, in whole-batch and work-sorted
    chunked waves.
    """

    def _scalar_reference(self, config, pairs):
        counter = AccessCounter()
        aligner = GenASMAligner(config)
        alignments = []
        for pattern, text in pairs:
            pair_counter = AccessCounter()
            alignments.append(aligner.align(pattern, text, counter=pair_counter))
            counter.merge(pair_counter)
        return alignments, counter

    @pytest.mark.parametrize("window_size", WINDOW_SIZES)
    def test_window_widths(self, rng, window_size):
        config = window_config(window_size)
        pairs = window_boundary_pairs(rng, window_size)
        context = f"window={window_size}"
        scalar, scalar_counter = self._scalar_reference(config, pairs)
        batch_counter = AccessCounter()
        engine = BatchAlignmentEngine(config)
        batch = engine.align_pairs(pairs, counter=batch_counter)
        assert_pairwise_identical(scalar, batch, context)
        assert batch_counter.as_dict() == scalar_counter.as_dict(), context
        expected_words = -(-window_size // 64)
        for alignment in batch:
            assert alignment.metadata["words_per_lane"] == expected_words, context

    @pytest.mark.parametrize("window_size", [65, 96, 150])
    @pytest.mark.parametrize("max_lanes", [2, 3])
    def test_window_widths_across_scheduling(self, rng, window_size, max_lanes):
        # Each chunk width groups the work-sorted lanes into different
        # waves, so lanes retire at different windows within each chunk.
        config = window_config(window_size)
        pairs = window_boundary_pairs(rng, window_size)
        context = f"window={window_size} max_lanes={max_lanes}"
        scalar, scalar_counter = self._scalar_reference(config, pairs)
        batch_counter = AccessCounter()
        chunked = BatchAlignmentEngine(config, max_lanes=max_lanes).align_pairs(
            pairs, counter=batch_counter
        )
        assert_pairwise_identical(scalar, chunked, context)
        assert batch_counter.as_dict() == scalar_counter.as_dict(), context

    def test_short_read_config_takes_vectorized_path(self, rng):
        # The acceptance criterion of the multi-word PR: short_read(150)
        # batches run 3-word lanes with no scalar fallback.
        config = GenASMConfig.short_read(150)
        engine = BatchAlignmentEngine(config)
        assert engine.words_per_lane == 3
        pattern = random_dna(rng, 150)
        pairs = [(pattern, mutate(rng, pattern, 7) + "ACGTAC")] * 4
        for alignment in engine.align_pairs(pairs):
            assert alignment.metadata["words_per_lane"] == 3


class TestDecisionWords:
    """Decision planes ≡ the scalar predicates, bit by bit."""

    def test_planes_match_scalar_predicates(self, rng):
        lanes = []
        for length, k in [(6, 2), (9, 3), (1, 1)]:
            pattern = random_dna(rng, length)
            text = mutate(rng, pattern, 1) + random_dna(rng, 3)
            lanes.append((pattern, text, k))
        self._assert_planes_match(lane_wave(lanes))

    def test_multi_word_planes_match_scalar_predicates(self, rng):
        # 2- and 3-word lanes mixed with a 1-word lane in the same wave:
        # every decision bit — in particular the i % 64 == 0 stitches at
        # bits 64 and 128 — must equal the scalar predicate verdicts.
        lanes = []
        for length, k in [(70, 3), (65, 2), (130, 3), (20, 2)]:
            pattern = random_dna(rng, length)
            text = mutate(rng, pattern, 2)[: length // 10 + 8]
            lanes.append((pattern, text, k))
        wave = lane_wave(lanes)
        assert wave.words == 3
        self._assert_planes_match(wave)

    def test_probes_address_each_lanes_own_block(self, rng):
        # Three lanes with 4, 2 and 3 rows: each probe reads its lane's
        # block, and a row the lane does not hold raises instead of reading
        # into the neighbouring block.
        lanes = [
            ("A" * 6, "C" * 4, 3),
            ("ACGTAC", "ACGAAC", 3),
            (random_dna(rng, 70), random_dna(rng, 20), 2),
        ]
        state = run_dc_wave_state(lane_wave(lanes))
        assert list(state.rows_computed) == [4, 2, 3]
        decisions = build_wave_decisions([(state, state.rows_computed)])
        assert list(decisions.base) == [0, 4, 6]
        assert decisions.planes.shape[2] == 9
        for lane, rows in enumerate((4, 2, 3)):
            for d in (-1, rows):
                with pytest.raises(IndexError):
                    decisions.bit("M", lane, d, 1, 0)
                with pytest.raises(IndexError):
                    decisions.match_run_length(lane, d, 1, 0)
        # A lane with no rows gets no block and no decision lane.
        subset = build_wave_decisions([(state, [0, 2, 0])])
        assert subset.lanes == 1 and subset.planes.shape[2] == 2
        assert list(subset.m) == [6] and list(subset.n) == [6]
        for letter in "MSID":
            for d in range(2):
                for j in range(1, 7):
                    for i in range(6):
                        assert subset.bit(letter, 0, d, j, i) == decisions.bit(
                            letter, 1, d, j, i
                        )

    def _assert_planes_match(self, wave):
        state = run_dc_wave_state(wave)
        decisions = build_wave_decisions([(state, state.rows_computed)])
        assert decisions.planes.shape[2] == state.rows_computed.sum()
        tables = state.tables()

        for lane, (pattern, text, table) in enumerate(
            zip(wave.patterns, wave.texts, tables)
        ):
            conditions = traceback_conditions(table)
            m, n = len(pattern), len(text)
            for d in range(table.rows_computed):
                for j in range(1, n + 1):
                    for i in range(m):
                        for letter in "MSID":
                            assert decisions.bit(letter, lane, d, j, i) == conditions[
                                letter
                            ](j, d, i), (
                                f"lane={lane} letter={letter} d={d} j={j} i={i}"
                            )


class TestGoldenCorpus:
    """Both backends reproduce the checked-in simulated-read corpus exactly."""

    @pytest.fixture(scope="class")
    def corpus(self):
        with open(DATA_DIR / "golden_corpus.json") as fh:
            return json.load(fh)

    def test_scalar_reproduces_golden(self, corpus):
        aligner = GenASMAligner(GenASMConfig())
        for entry in corpus["entries"]:
            alignment = aligner.align(entry["pattern"], entry["text"])
            assert str(alignment.cigar) == entry["cigar"]
            assert alignment.edit_distance == entry["edit_distance"]
            assert alignment.text_end == entry["text_end"]

    @pytest.mark.parametrize("max_lanes", WAVE_WIDTHS, ids=WAVE_WIDTH_IDS)
    def test_vectorized_reproduces_golden(self, corpus, max_lanes):
        pairs = [(e["pattern"], e["text"]) for e in corpus["entries"]]
        engine = BatchAlignmentEngine(GenASMConfig(), max_lanes=max_lanes)
        for entry, alignment in zip(corpus["entries"], engine.align_pairs(pairs)):
            assert str(alignment.cigar) == entry["cigar"]
            assert alignment.edit_distance == entry["edit_distance"]
            assert alignment.text_end == entry["text_end"]

    def test_corpus_exercises_multi_window_and_adversarial_shapes(self, corpus):
        lengths = [len(e["pattern"]) for e in corpus["entries"]]
        window = GenASMConfig().window_size
        assert max(lengths) > 4 * window, "corpus lost its multi-window reads"
        assert any(e["edit_distance"] == 0 for e in corpus["entries"])
        assert any(
            e["edit_distance"] >= len(e["pattern"]) // 2 for e in corpus["entries"]
        )


class TestShortReadGoldenCorpus:
    """Scalar, vectorized and streaming paths all reproduce the 3-word corpus.

    The short-read section of ``golden_corpus.json`` pins the multi-word
    engine: Illumina-length pairs under ``GenASMConfig.short_read(150)``
    (150-character windows, 3 ``uint64`` words per lane; regenerate with
    ``tests/data/regenerate_golden_corpus.py``).
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        with open(DATA_DIR / "golden_corpus.json") as fh:
            return json.load(fh)

    @pytest.fixture(scope="class")
    def config(self):
        return GenASMConfig.short_read(150)

    def _assert_reproduces(self, entries, alignments):
        for entry, alignment in zip(entries, alignments):
            assert str(alignment.cigar) == entry["cigar"]
            assert alignment.edit_distance == entry["edit_distance"]
            assert alignment.text_end == entry["text_end"]

    def test_scalar_reproduces_short_read_golden(self, corpus, config):
        aligner = GenASMAligner(config)
        entries = corpus["short_read_entries"]
        self._assert_reproduces(
            entries, [aligner.align(e["pattern"], e["text"]) for e in entries]
        )

    @pytest.mark.parametrize("max_lanes", WAVE_WIDTHS, ids=WAVE_WIDTH_IDS)
    def test_vectorized_reproduces_short_read_golden(self, corpus, config, max_lanes):
        entries = corpus["short_read_entries"]
        pairs = [(e["pattern"], e["text"]) for e in entries]
        engine = BatchAlignmentEngine(config, max_lanes=max_lanes)
        alignments = engine.align_pairs(pairs)
        self._assert_reproduces(entries, alignments)
        # Every alignment went through the 3-word lockstep engine.
        for alignment in alignments:
            assert alignment.metadata["words_per_lane"] == 3

    def test_streaming_reproduces_short_read_golden(self, corpus, config):
        from repro.pipeline import StreamingPipeline

        entries = corpus["short_read_entries"]
        pairs = [(e["pattern"], e["text"]) for e in entries]
        pipeline = StreamingPipeline(config=config, wave_size=4)
        self._assert_reproduces(entries, pipeline.align_pairs(pairs))

    def test_short_read_corpus_exercises_word_boundaries(self, corpus):
        lengths = {len(e["pattern"]) for e in corpus["short_read_entries"]}
        # Word counts 1, 2 and 3 including the exact 64/65 boundary pair.
        for boundary in (63, 64, 65, 128, 129, 150):
            assert boundary in lengths, f"corpus lost its {boundary} bp entry"
        entries = corpus["short_read_entries"]
        assert any(e["edit_distance"] == 0 for e in entries)
        assert any(
            e["edit_distance"] >= len(e["pattern"]) // 2 for e in entries
        )
        assert any(len(e["pattern"]) > 150 for e in entries), "multi-window short reads"


class TestWaveScheduling:
    """Sorted wave scheduling: identical results, input order, better lockstep."""

    def _mixed_pairs(self, rng):
        pairs = []
        for index in range(16):
            length = 40 if index % 2 == 0 else 400
            pattern = random_dna(rng, length)
            pairs.append((pattern, mutate(rng, pattern, length // 10) + "ACGT"))
        return pairs

    def test_sorted_chunking_preserves_input_order_and_results(self, rng):
        pairs = self._mixed_pairs(rng)
        config = GenASMConfig()
        reference = BatchAlignmentEngine(config).align_pairs(pairs)
        chunked = BatchAlignmentEngine(config, max_lanes=4).align_pairs(pairs)
        assert_pairwise_identical(reference, chunked, "sorted")
        for (pattern, text), alignment in zip(pairs, chunked):
            assert alignment.pattern == pattern
            assert alignment.text == text

    def test_sorted_schedule_improves_lockstep_efficiency(self, rng):
        pairs = self._mixed_pairs(rng)
        config = GenASMConfig()
        sorted_engine = BatchAlignmentEngine(config, max_lanes=4)
        sorted_stats = sorted_engine.scheduling_stats(pairs)
        # The same lockstep model over the lanes chunked in input order.
        in_order_stats = lockstep_stats(
            [float(sorted_engine.expected_work(len(p))) for p, _ in pairs], 4
        )
        assert sorted_stats["useful_work"] == in_order_stats["useful_work"]
        assert sorted_stats["efficiency"] > in_order_stats["efficiency"]
        assert sorted_stats["efficiency"] > 0.9  # homogeneous chunks
        assert in_order_stats["efficiency"] < 0.7  # alternating 1- and 10-window lanes

    def test_schedule_orders_by_expected_windows(self):
        engine = BatchAlignmentEngine(GenASMConfig(), max_lanes=2)
        pairs = [("A" * 300, "T"), ("A" * 10, "T"), ("A" * 700, "T"), ("A" * 64, "T")]
        order = engine.schedule(pairs)
        windows = [engine.expected_windows(len(pairs[i][0])) for i in order]
        assert windows == sorted(windows)

    def test_schedule_breaks_ties_in_arrival_order(self):
        engine = BatchAlignmentEngine(GenASMConfig(), max_lanes=2)
        lengths = [300, 10, 290, 20, 700, 64]
        pairs = [("A" * length, "T") for length in lengths]
        work = [engine.expected_work(length) for length in lengths]
        assert work == [7, 1, 7, 1, 17, 1]
        # Lanes of equal work keep their arrival order.
        assert engine.schedule(pairs) == [1, 3, 5, 0, 2, 4]

    def test_expected_windows_matches_measured_window_metadata(self, rng):
        engine = BatchAlignmentEngine(GenASMConfig())
        pairs = self._mixed_pairs(rng) + [("", "ACGT")]
        for (pattern, _), alignment in zip(pairs, engine.align_pairs(pairs)):
            assert engine.expected_windows(len(pattern)) == alignment.metadata["windows"]

    def test_warp_divergence_sorted_schedule(self, rng):
        pairs = self._mixed_pairs(rng)
        kernel = GenASMKernelSpec(GenASMConfig())
        profiles = kernel.profile_batch(pairs)
        simulator = GpuSimulator(A6000)
        fifo = simulator.warp_divergence(profiles, warp_size=4)
        swept = simulator.warp_divergence(profiles, warp_size=4, schedule="sorted")
        assert swept["useful_work"] == pytest.approx(fifo["useful_work"])
        assert swept["efficiency"] >= fifo["efficiency"]
        with pytest.raises(ValueError):
            simulator.warp_divergence(profiles, schedule="random")


class TestWindowAccounting:
    """Window accounting lives in one spot and survives budget retries."""

    @pytest.mark.parametrize("max_lanes", WAVE_WIDTHS, ids=WAVE_WIDTH_IDS)
    def test_retry_subwave_metrics_match_scalar(self, rng, max_lanes):
        # k = 1 forces budget-doubling retries on any window with >= 2
        # edits; the engine must still count each window once and charge
        # exactly the scalar path's retry DP traffic — in shared waves and
        # in one-lane waves, whose every attempt scans a single lane.
        config = GenASMConfig(max_errors=1)
        pairs = []
        for length in (60, 96, 130):
            pattern = random_dna(rng, length)
            pairs.append((pattern, mutate(rng, pattern, length // 6) + "ACGT"))

        scalar_counter = AccessCounter()
        aligner = GenASMAligner(config)
        scalar = []
        for pattern, text in pairs:
            pair_counter = AccessCounter()
            scalar.append(aligner.align(pattern, text, counter=pair_counter))
            scalar_counter.merge(pair_counter)
        batch_counter = AccessCounter()
        engine = BatchAlignmentEngine(config, max_lanes=max_lanes)
        batch = engine.align_pairs(pairs, counter=batch_counter)

        assert_pairwise_identical(scalar, batch, "budget retries")
        assert batch_counter.as_dict() == scalar_counter.as_dict()
        # The workload actually exercised retries (more rows than a single
        # k=1 attempt could compute over the counted windows).
        assert batch_counter.rows_computed > 2 * batch_counter.windows

    def test_windows_counted_once_per_window(self):
        # One multi-window pair with the text exhausted halfway: both the
        # DP windows and the empty-text insertion windows must be counted
        # exactly once, in metadata and counter alike.
        pattern = "ACGT" * 40
        pair = (pattern, "ACGT" * 12)
        counter = AccessCounter()
        engine = BatchAlignmentEngine(GenASMConfig())
        alignment = engine.align_pairs([pair], counter=counter)[0]
        assert counter.windows == alignment.metadata["windows"]

        scalar_counter = AccessCounter()
        scalar = GenASMAligner(GenASMConfig()).align(*pair, counter=scalar_counter)
        assert alignment.metadata["windows"] == scalar.metadata["windows"]
        assert counter.windows == scalar_counter.windows


def substituted(rng, sequence, edits):
    """``sequence`` with ``edits`` substitutions at evenly spaced positions."""
    out = list(sequence)
    for k in range(edits):
        pos = (k + 1) * len(out) // (edits + 1)
        out[pos] = rng.choice([c for c in "ACGT" if c != out[pos]])
    return "".join(out)


class TestOneWalkPerWindowingStep:
    """A windowing step is traced once, whatever attempt solved each lane."""

    def test_lanes_solving_at_four_attempts(self, rng, monkeypatch):
        # Every pattern fits the 150-column window, so the batch is one
        # windowing step.  With k = 1 the budgets climb 1 -> 2 -> 4 -> 8, and
        # 0, 2, 4 and 7 substitutions put lanes on each of the four rungs;
        # 40 bp lanes take one word and 150 bp lanes three.  The base scan
        # solves the first rung; one retry scan solves the other three.
        config = GenASMConfig.short_read(150, max_errors=1)
        pairs = []
        for length in (40, 150):
            for edits in (0, 2, 4, 7):
                pattern = random_dna(rng, length)
                text = substituted(rng, pattern, edits) + random_dna(rng, 4)
                pairs.append((pattern, text))

        builds, walks = [], []
        build = engine_module.build_wave_decisions
        walk = engine_module.lockstep_traceback

        def build_spy(*args, **kwargs):
            decisions = build(*args, **kwargs)
            builds.append((args[0], decisions))
            return decisions

        def walk_spy(*args, **kwargs):
            tracebacks = walk(*args, **kwargs)
            walks.append(tracebacks)
            return tracebacks

        monkeypatch.setattr(engine_module, "build_wave_decisions", build_spy)
        monkeypatch.setattr(engine_module, "lockstep_traceback", walk_spy)

        scalar_counter = AccessCounter()
        aligner = GenASMAligner(config)
        scalar = []
        for pattern, text in pairs:
            pair_counter = AccessCounter()
            scalar.append(aligner.align(pattern, text, counter=pair_counter))
            scalar_counter.merge(pair_counter)
        batch_counter = AccessCounter()
        batch = BatchAlignmentEngine(config).align_pairs(pairs, counter=batch_counter)
        assert_pairwise_identical(scalar, batch, "four attempts")
        assert batch_counter.as_dict() == scalar_counter.as_dict()

        # One decision build and one walk for the one windowing step.
        assert len(builds) == len(walks) == 1
        (blocks, decisions), (tracebacks,) = builds[0], walks
        states = [state for state, _rows in blocks]
        assert [state.wave.lanes for state in states] == [8, 6]
        assert states[0].wave.words == 3 and min(states[0].wave.m) == 40
        # The retry is masked with the rung that solved each lane.
        assert set(states[1].wave.k.tolist()) == {2, 4, 8}
        solved = [state.min_errors[state.min_errors >= 0] for state in states]
        # Every scan solves some lanes, and each member is walked once.
        assert all(errors.size for errors in solved)
        assert len(tracebacks) == sum(errors.size for errors in solved) == len(pairs)
        # Only rows 0..min_errors of the solving attempt get slots: a
        # failed attempt's rows get none.
        slots = sum(int((errors + 1).sum()) for errors in solved)
        assert decisions.planes.shape[2] == slots


# --------------------------------------------------------------------------- #
# Match-run skip-ahead
# --------------------------------------------------------------------------- #
class TestSkipAheadTraceback:
    """Skip-ahead consumes whole match runs yet stays byte-identical."""

    @pytest.mark.parametrize("window_size", [64, 96, 150])
    def test_counter_parity_with_scalar(self, rng, window_size):
        # tb_steps / dp_reads / bytes_read parity with the scalar walk:
        # skipping steps must still charge the per-step reads the scalar
        # walk would have issued.
        config = window_config(window_size)
        pairs = random_pairs(rng) + adversarial_pairs()
        context = f"window={window_size}"

        scalar_counter = AccessCounter()
        aligner = GenASMAligner(config)
        scalar = []
        for pattern, text in pairs:
            pair_counter = AccessCounter()
            scalar.append(aligner.align(pattern, text, counter=pair_counter))
            scalar_counter.merge(pair_counter)

        batch_counter = AccessCounter()
        batch = BatchAlignmentEngine(config).align_pairs(pairs, counter=batch_counter)

        assert_pairwise_identical(scalar, batch, context)
        assert batch_counter.as_dict() == scalar_counter.as_dict(), context

    def test_walk_steps_saved_on_matchy_workload(self, rng):
        pattern = random_dna(rng, 120)
        pairs = [(pattern, mutate(rng, pattern, 6) + "ACGT") for _ in range(4)]

        alignments = BatchAlignmentEngine(GenASMConfig()).align_pairs(pairs)
        saved = sum(a.metadata["tb_walk_steps_saved"] for a in alignments)
        assert saved > 0
        assert sum(a.metadata["tb_match_runs"] for a in alignments) > 0
        for alignment in alignments:
            meta = alignment.metadata
            assert meta["tb_match_run_ops"] >= meta["tb_match_runs"]
            assert meta["tb_walk_steps"] > 0
            # Each emitted op either came from a walk iteration or was skipped.
            emitted = sum(length for length, _op in alignment.cigar.runs)
            assert meta["tb_walk_steps"] + meta["tb_walk_steps_saved"] == emitted

    @ENGINE_CONFIGS
    def test_every_op_walked_or_skipped(self, rng, config):
        # Each emitted op is a walk step or part of a skipped match run.
        pattern = random_dna(rng, 120)
        pairs = [(pattern, mutate(rng, pattern, 6) + "ACGT") for _ in range(4)]
        pairs += random_pairs(rng) + adversarial_pairs()
        alignments = BatchAlignmentEngine(config).align_pairs(pairs)
        for alignment in alignments:
            meta = alignment.metadata
            emitted = sum(length for length, _op in alignment.cigar.runs)
            assert meta["tb_walk_steps"] + meta["tb_walk_steps_saved"] == emitted
            assert meta["tb_match_run_ops"] >= meta["tb_match_runs"]
        saved = sum(a.metadata["tb_walk_steps_saved"] for a in alignments)
        runs = sum(a.metadata["tb_match_runs"] for a in alignments)
        assert saved > 0 and runs > 0


# --------------------------------------------------------------------------- #
# Match runs at the edges of the run helper: its 64-position chunks, bit 0,
# column 0 and the pattern budget
# --------------------------------------------------------------------------- #
def bitwise_run(decisions, lane, d, j, i):
    """Match-run length from ``(j, d, i)``, one decision bit at a time."""
    run = 0
    while (
        i - run >= 0
        and j - run >= 1
        and decisions.bit("M", lane, d, j - run, i - run)
    ):
        run += 1
    return run


def substituted_at(sequence, position):
    """``sequence`` with one substitution at ``position``."""
    other = {"A": "C", "C": "G", "G": "T", "T": "A"}[sequence[position]]
    return sequence[:position] + other + sequence[position + 1 :]


def run_lanes(rng):
    """``(pattern, text, max_errors, run)`` lanes whose walk starts on a
    match run of ``run`` bits, on 1-, 2- and 3-word lanes."""
    lanes = []
    for run in (63, 64, 65, 128, 129):
        # An exact copy behind one more text base: bit 0 ends the run one
        # column before column 0 would.
        pattern = random_dna(rng, run)
        lanes.append((pattern, "T" + pattern, 2, run))
    for run in (63, 64, 65, 128, 129):
        # One substitution ten bases from the start: an unset bit ends the
        # run mid-pattern.
        pattern = random_dna(rng, run + 10)
        lanes.append((pattern, substituted_at(pattern, 9), 2, run))
    # Texts shorter than their pattern: column 0 ends the run while lower
    # pattern bits of the next column down would still match.
    lanes.append(("A" * 70, "A" * 20, 50, 20))
    lanes.append(("A" * 30, "A" * 10, 20, 10))
    return lanes


class TestMatchRuns:
    """The walk's run helper at its chunk edges and the plane's edges."""

    def test_run_lengths_at_chunk_and_plane_edges(self, rng):
        lanes = run_lanes(rng)
        assert {-(-len(pattern) // 64) for pattern, *_ in lanes} == {1, 2, 3}
        # Each lane alone (its own word count) and all lanes in one wave
        # (three words, blocks at non-zero slot bases).
        waves = [[lane] for lane in lanes] + [lanes]
        for wave_lanes in waves:
            state = run_dc_wave_state(lane_wave([lane[:3] for lane in wave_lanes]))
            decisions = build_wave_decisions([(state, state.rows_computed)])
            for lane, (pattern, text, _k, expected) in enumerate(wave_lanes):
                d = int(decisions.rows[lane]) - 1
                j, i = len(text), len(pattern) - 1
                assert bitwise_run(decisions, lane, d, j, i) == expected
                assert decisions.match_run_length(lane, d, j, i) == expected, (
                    f"pattern={len(pattern)} text={len(text)} "
                    f"words={decisions.planes.shape[1]}"
                )

    def test_walk_clamps_runs_to_the_pattern_budget(self, rng):
        # A 129-bit run with 70 columns committed, a 64-bit run with exactly
        # 64 and a 65-bit run with 30: each walk is one match-run step,
        # charged as the scalar traceback charges the same window.
        lanes = run_lanes(rng)
        picked = [(lanes[4], 70), (lanes[1], 64), (lanes[7], 30)]
        state = run_dc_wave_state(lane_wave([lane[:3] for lane, _b in picked]))
        decisions = build_wave_decisions([(state, state.rows_computed)])
        budgets = np.array([budget for _lane, budget in picked])
        tracebacks = lockstep_traceback(decisions, budgets=budgets)
        for lane, (tb, budget) in enumerate(zip(tracebacks, budgets)):
            table = state.table(lane)
            table.counter = AccessCounter()
            ops, text_stop = genasm_traceback(
                table,
                start_errors=int(decisions.rows[lane]) - 1,
                max_pattern_columns=int(budget),
            )
            assert tb.ops() == ops == [CigarOp.MATCH] * budget
            assert tb.text_stop == text_stop
            assert tb.pattern_consumed == budget
            assert tb.dp_reads == table.counter.dp_reads
            assert (tb.walk_steps, tb.match_runs, tb.match_run_ops) == (1, 1, budget)


class TestWalkErrorPath:
    """A walk that finds no legal step names the stuck lane's own cursor."""

    def test_error_after_compaction_names_the_lanes_own_cursor(self, rng):
        # Lane 0 finishes in one step; lane 1 walks five (three match runs
        # around two substitutions); lane 2 walks a 19-match run, then a
        # substitution down to row 0 at text column 10, bit 9, where its
        # zeroed row 0 leaves no legal step.  By then lane 0 has left the
        # live state, so lane 2 is no longer at its own index there.
        long_pattern = random_dna(rng, 40)
        victim = random_dna(rng, 30)
        lanes = [
            ("AC", "AC", 1),
            (long_pattern, substituted(rng, long_pattern, 2), 2),
            (victim, substituted_at(victim, 10), 1),
        ]
        state = run_dc_wave_state(lane_wave(lanes))
        decisions = build_wave_decisions([(state, state.rows_computed)])
        assert list(decisions.rows) == [1, 3, 2]
        budgets = decisions.m.copy()
        intact = lockstep_traceback(decisions, budgets=budgets)
        assert intact[0].walk_steps == 1 and intact[1].walk_steps == 5
        assert intact[2].ops()[:20] == [CigarOp.MATCH] * 19 + [CigarOp.MISMATCH]

        decisions.planes[:, :, decisions.base[2]] = 0
        with pytest.raises(TracebackError, match=r"at text=10, errors=0, bit=9$"):
            lockstep_traceback(decisions, budgets=budgets)


# --------------------------------------------------------------------------- #
# Generated batches whose lanes finish far apart: exact copies walk one match
# run, indel-heavy copies walk many single steps, unrelated texts retry their
# budgets — so the walk drops lanes from its live state at different steps.
# --------------------------------------------------------------------------- #
#: Lengths at the 64- and 128-bit word edges, the default window (64) and
#: step (40) and their multiples, and the short-read window (150).
EDGE_LENGTHS = (39, 40, 41, 63, 64, 65, 79, 80, 81, 127, 128, 129, 150, 151)


@st.composite
def engine_pair(draw, alphabet):
    """One ``(pattern, text)`` pair of a generated engine batch."""
    kind = draw(st.sampled_from(("exact", "indels", "unrelated", "tiny", "short_text")))
    if kind == "tiny":
        # Empty and 1-base patterns.
        pattern = draw(st.text(alphabet=alphabet, max_size=1))
        return pattern, draw(st.text(alphabet=alphabet, max_size=8))
    m = draw(
        st.one_of(
            st.sampled_from(EDGE_LENGTHS), st.integers(min_value=2, max_value=160)
        )
    )
    pattern = draw(st.text(alphabet=alphabet, min_size=m, max_size=m))
    if kind == "exact":
        return pattern, pattern + draw(st.text(alphabet=alphabet, max_size=8))
    if kind == "unrelated":
        return pattern, draw(st.text(alphabet=alphabet, min_size=1, max_size=m + 8))
    # An ONT-like copy: about one edit per eight bases, mostly indels.
    text = list(pattern)
    edits = st.tuples(
        st.sampled_from("iidds"), st.integers(min_value=0), st.sampled_from(alphabet)
    )
    for op, position, char in draw(st.lists(edits, min_size=1, max_size=m // 8 + 1)):
        position %= len(text) + 1
        if op == "i" or not text:
            text.insert(position, char)
        elif op == "s":
            text[min(position, len(text) - 1)] = char
        else:
            del text[min(position, len(text) - 1)]
    text = "".join(text)
    if kind == "short_text":
        text = text[: draw(st.integers(min_value=0, max_value=m - 1))]
    return pattern, text


@st.composite
def engine_batch(draw):
    alphabet = draw(st.sampled_from(("ACGT", "ACGTN", "ACGTacgt")))
    return draw(st.lists(engine_pair(alphabet), min_size=2, max_size=12))


def _recording(name: str, log: list):
    """Patch the engine global ``name`` with a spy that logs each result."""
    original = getattr(engine_module, name)

    def record(*args, **kwargs):
        result = original(*args, **kwargs)
        log.append(result)
        return result

    return patch.object(engine_module, name, side_effect=record)


@settings(deadline=None)
@given(
    engine_batch(),
    st.sampled_from(("default", "short_read")),
    st.sampled_from((None, 0, 1, 2)),
)
def test_generated_batches_equal_scalar_aligner(pairs, shape, max_errors):
    # Budgets of 0..2 start the budget ladder at 1, so a failed lane climbs
    # up to eight rungs (1 -> 2 -> ... -> 128 -> 150 in a 150 bp window).
    if shape == "default":
        config = GenASMConfig(max_errors=max_errors)
    else:
        config = GenASMConfig.short_read(150, max_errors=max_errors)
    context = f"{shape} max_errors={max_errors}"
    scalar_counter = AccessCounter()
    aligner = GenASMAligner(config)
    scalar = []
    for pattern, text in pairs:
        pair_counter = AccessCounter()
        scalar.append(aligner.align(pattern, text, counter=pair_counter))
        scalar_counter.merge(pair_counter)
    batch_counter = AccessCounter()
    waves, scans, builds, walks = [], [], [], []
    with _recording("SoAWave", waves), _recording(
        "run_dc_wave_state", scans
    ), _recording("build_wave_decisions", builds), _recording(
        "lockstep_traceback", walks
    ):
        batch = BatchAlignmentEngine(config).align_pairs(pairs, counter=batch_counter)

    assert_pairwise_identical(scalar, batch, context)
    assert batch_counter.as_dict() == scalar_counter.as_dict(), context
    for alignment in batch:
        meta = alignment.metadata
        emitted = sum(length for length, _op in alignment.cigar.runs)
        assert meta["tb_walk_steps"] + meta["tb_walk_steps_saved"] == emitted, context
    # The walks' tallies reach the metadata intact; an insert-only window
    # (no text left) is not walked and counts one walk step per op.
    records = [tb for tracebacks in walks for tb in tracebacks]

    def total(key):
        return sum(alignment.metadata[key] for alignment in batch)

    walked_ops = sum(len(tb.codes) for tb in records)
    inserted_ops = sum(len(alignment.cigar) for alignment in batch) - walked_ops
    assert total("tb_match_runs") == sum(tb.match_runs for tb in records), context
    assert total("tb_match_run_ops") == sum(tb.match_run_ops for tb in records), context
    assert total("tb_walk_steps_saved") == walked_ops - sum(
        tb.walk_steps for tb in records
    ), context
    assert total("tb_walk_steps") == sum(
        tb.walk_steps for tb in records
    ) + inserted_ops, context
    # A windowing step (one decision build) runs at most two DC scans, each
    # on a wave of its own, and walks every lane some scan solved once.
    assert len(scans) <= 2 * len(builds), context
    assert len(waves) == len(scans), context
    solved = sum(int((state.min_errors >= 0).sum()) for state in scans)
    assert sum(len(tracebacks) for tracebacks in walks) == solved, context

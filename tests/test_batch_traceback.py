"""Differential test harness for the lockstep decision-word traceback.

The PR-2 contract: the vectorized batch path (lockstep DC wave + lockstep
decision-word traceback + wave scheduling) is **byte-identical** to the
scalar ``align_windowed`` reference — CIGARs, edit distances, consumed text
spans, per-pair metadata and every :class:`AccessCounter` field — across
every improvement-toggle combination, every ``match_priority`` tie-break
order, randomized inputs and adversarial shapes (all-match, all-mismatch,
homopolymer, empty-window).  The decision words themselves are checked bit
by bit against the scalar predicates exposed by
:func:`repro.core.genasm_tb.traceback_conditions`, and a golden
simulated-read corpus pins both paths to checked-in expected output.
"""

from __future__ import annotations

import itertools
import json
import pathlib

import pytest

from repro.batch import (
    BatchAlignmentEngine,
    LaneJob,
    SoAWave,
    build_wave_decisions,
    run_dc_wave_state,
)
from repro.core.aligner import GenASMAligner
from repro.core.config import GenASMConfig
from repro.core.genasm_tb import traceback_conditions
from repro.core.metrics import AccessCounter
from repro.gpu.device import A6000
from repro.gpu.kernel import GenASMKernelSpec
from repro.gpu.simulator import GpuSimulator
from tests.conftest import mutate, random_dna

DATA_DIR = pathlib.Path(__file__).parent / "data"

#: All eight combinations of the paper's three improvement toggles.
TOGGLE_COMBOS = list(itertools.product([False, True], repeat=3))
#: A representative set of traceback tie-break orders (permutations of MSDI).
PRIORITIES = ["MSDI", "MDIS", "DIMS", "ISDM"]
#: Window widths spanning 1, 2 and 3 uint64 words per lane, including the
#: exact single-word boundary (64) and the first multi-word width (65).
WINDOW_SIZES = [32, 64, 65, 96, 128, 150]
#: Engine ``max_lanes``: whole-batch waves, and one-lane waves in which the
#: lockstep walk traces a single lane at a time.
WAVE_WIDTHS = [None, 1]
WAVE_WIDTH_IDS = ["full-waves", "one-lane-waves"]


def window_config(window_size: int, **overrides) -> GenASMConfig:
    """A window_size-parametrized config (short-read style above one word)."""
    if window_size <= 64:
        return GenASMConfig(
            window_size=window_size,
            window_overlap=min(24, window_size - 1),
            **overrides,
        )
    return GenASMConfig.short_read(window_size, **overrides)


def adversarial_pairs():
    """Input shapes that stress distinct traceback branches.

    All-match (pure diagonal runs), all-mismatch with starved text (budget
    doubling to the full window plus trailing insertions), homopolymer
    (every tie-break order is live at every step), empty-window shapes
    (text exhausted mid-alignment, empty pattern, empty text), a
    single-character window, and characters outside ACGT (``N``,
    lowercase, ``U``), which match nothing — not even themselves.
    """
    return [
        ("ACGT" * 32, "ACGT" * 32 + "ACGT"),
        ("A" * 80, "T" * 30),
        ("A" * 120, "A" * 115),
        ("ACGT" * 30, "ACGTA"),
        ("", "ACGT"),
        ("ACGT" * 20, ""),
        ("A", "A"),
        ("ACGTNACGT", "ACGTNACGT"),
        ("acgtacgt", "acgtacgt"),
        ("ACGUACGU", "ACGUACGU"),
        ("ACGTN" * 30, "ACGTN" * 30 + "AC"),
    ]


def random_pairs(rng):
    """Mutated-copy pairs spanning the single/multi-word boundary lengths."""
    specs = [(5, 1), (63, 6), (64, 5), (65, 7), (130, 12), (200, 20)]
    pairs = []
    for length, edits in specs:
        pattern = random_dna(rng, length)
        pairs.append((pattern, mutate(rng, pattern, edits) + random_dna(rng, 8)))
    return pairs


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
    """Vectorized path ≡ scalar path per field, over the full toggle sweep."""

    @pytest.mark.parametrize("priority", PRIORITIES)
    @pytest.mark.parametrize(
        "entry_compression,early_termination,traceback_band", TOGGLE_COMBOS
    )
    def test_toggles_and_priorities(
        self, rng, entry_compression, early_termination, traceback_band, priority
    ):
        config = GenASMConfig(
            entry_compression=entry_compression,
            early_termination=early_termination,
            traceback_band=traceback_band,
            match_priority=priority,
        )
        pairs = random_pairs(rng) + adversarial_pairs()
        context = (
            f"ec={entry_compression} et={early_termination} "
            f"tb={traceback_band} priority={priority}"
        )

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
        # Each pair in its own chunk: every wave, retry sub-waves included,
        # traces exactly one lane.
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


def window_boundary_pairs(rng, window_size):
    """Pairs that straddle the window width and the 64-bit word boundaries."""
    specs = [
        (window_size, max(2, window_size // 10)),
        (max(1, window_size - 1), 2),
        (window_size + 1, 3),
        (2 * window_size + 10, max(4, window_size // 8)),
        (40, 2),
        (64, 4),
        (65, 4),
    ]
    pairs = []
    for length, edits in specs:
        pattern = random_dna(rng, length)
        pairs.append((pattern, mutate(rng, pattern, edits) + random_dna(rng, 6)))
    # Adversarial shapes per window width: pure matches, budget doubling to
    # the full window, homopolymer ties, text exhausted mid-alignment.
    pairs.append(("ACGT" * (window_size // 2), "ACGT" * (window_size // 2) + "AC"))
    pairs.append(("A" * window_size, "T" * max(1, window_size // 3)))
    pairs.append(("A" * (window_size + 9), "A" * (window_size + 4)))
    pairs.append(("ACGT" * window_size, "ACGTACGT"))
    return pairs


class TestMultiWordDifferential:
    """Windows spanning 1-3 words/lane, pinned byte-identical to scalar.

    The multi-word satellite of the PR-2 harness: the same per-field
    equivalence contract (CIGARs, edit distances, spans, metadata, every
    AccessCounter field), parametrized over ``window_size`` so word counts
    1, 2 and 3 — including the exact 64/65 boundary pair — are all
    exercised, across the improvement toggles, the tie-break orders and
    the wave-scheduling policies.
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
    @pytest.mark.parametrize(
        "entry_compression,early_termination,traceback_band", TOGGLE_COMBOS
    )
    def test_window_widths_across_toggles(
        self, rng, window_size, entry_compression, early_termination, traceback_band
    ):
        config = window_config(
            window_size,
            entry_compression=entry_compression,
            early_termination=early_termination,
            traceback_band=traceback_band,
        )
        pairs = window_boundary_pairs(rng, window_size)
        context = (
            f"window={window_size} ec={entry_compression} "
            f"et={early_termination} tb={traceback_band}"
        )
        scalar, scalar_counter = self._scalar_reference(config, pairs)
        batch_counter = AccessCounter()
        engine = BatchAlignmentEngine(config)
        batch = engine.align_pairs(pairs, counter=batch_counter)
        assert_pairwise_identical(scalar, batch, context)
        assert batch_counter.as_dict() == scalar_counter.as_dict(), context
        expected_words = -(-window_size // 64)
        for alignment in batch:
            assert alignment.metadata["vectorized"] is True, context
            assert alignment.metadata["words_per_lane"] == expected_words, context

    @pytest.mark.parametrize("window_size", WINDOW_SIZES)
    @pytest.mark.parametrize("priority", PRIORITIES)
    def test_window_widths_across_priorities(self, rng, window_size, priority):
        config = window_config(window_size, match_priority=priority)
        pairs = window_boundary_pairs(rng, window_size)
        context = f"window={window_size} priority={priority}"
        scalar, scalar_counter = self._scalar_reference(config, pairs)
        batch_counter = AccessCounter()
        batch = BatchAlignmentEngine(config).align_pairs(pairs, counter=batch_counter)
        assert_pairwise_identical(scalar, batch, context)
        assert batch_counter.as_dict() == scalar_counter.as_dict(), context

    @pytest.mark.parametrize("window_size", [65, 96, 150])
    @pytest.mark.parametrize("scheduling", ["sorted", "fifo"])
    def test_window_widths_across_scheduling(self, rng, window_size, scheduling):
        config = window_config(window_size)
        pairs = window_boundary_pairs(rng, window_size)
        context = f"window={window_size} scheduling={scheduling}"
        scalar, scalar_counter = self._scalar_reference(config, pairs)
        batch_counter = AccessCounter()
        chunked = BatchAlignmentEngine(
            config, max_lanes=3, scheduling=scheduling
        ).align_pairs(pairs, counter=batch_counter)
        assert_pairwise_identical(scalar, chunked, context)
        assert batch_counter.as_dict() == scalar_counter.as_dict(), context

    def test_short_read_config_takes_vectorized_path(self, rng):
        # The acceptance criterion of the multi-word PR: short_read(150)
        # batches run 3-word lanes with no scalar fallback.
        config = GenASMConfig.short_read(150)
        engine = BatchAlignmentEngine(config)
        assert engine.vectorizable
        assert engine.words_per_lane == 3
        pattern = random_dna(rng, 150)
        pairs = [(pattern, mutate(rng, pattern, 7) + "ACGTAC")] * 4
        for alignment in engine.align_pairs(pairs):
            assert alignment.metadata["vectorized"] is True
            assert alignment.metadata["words_per_lane"] == 3


class TestDecisionWords:
    """Decision planes ≡ the scalar predicates, bit by bit."""

    @pytest.mark.parametrize("entry_compression", [False, True])
    @pytest.mark.parametrize("traceback_band", [False, True])
    def test_planes_match_scalar_predicates(
        self, rng, entry_compression, traceback_band
    ):
        jobs = []
        for length, k in [(6, 2), (9, 3), (1, 1)]:
            pattern = random_dna(rng, length)
            text = mutate(rng, pattern, 1) + random_dna(rng, 3)
            jobs.append(LaneJob(pattern=pattern, text=text, max_errors=k))
        wave = SoAWave(jobs, traceback_band=traceback_band)
        self._assert_planes_match(wave, entry_compression, traceback_band)

    @pytest.mark.parametrize("entry_compression", [False, True])
    @pytest.mark.parametrize("traceback_band", [False, True])
    def test_multi_word_planes_match_scalar_predicates(
        self, rng, entry_compression, traceback_band
    ):
        # 2- and 3-word lanes mixed with a 1-word lane in the same wave:
        # every decision bit — in particular the i % 64 == 0 stitches at
        # bits 64 and 128 — must equal the scalar predicate verdicts.
        jobs = []
        for length, k in [(70, 3), (65, 2), (130, 3), (20, 2)]:
            pattern = random_dna(rng, length)
            text = mutate(rng, pattern, 2)[: length // 10 + 8]
            jobs.append(LaneJob(pattern=pattern, text=text, max_errors=k))
        wave = SoAWave(jobs, traceback_band=traceback_band)
        assert wave.words == 3
        self._assert_planes_match(wave, entry_compression, traceback_band)

    def _assert_planes_match(self, wave, entry_compression, traceback_band):
        state = run_dc_wave_state(wave, entry_compression=entry_compression)
        decisions = build_wave_decisions(
            wave, state.stored_rows, entry_compression=entry_compression
        )
        tables = state.tables()

        for lane, (job, table) in enumerate(zip(wave.jobs, tables)):
            conditions = traceback_conditions(table)
            m, n = len(job.pattern), len(job.text)
            for d in range(table.rows_computed):
                for j in range(1, n + 1):
                    for i in range(m):
                        for letter in "MSID":
                            assert decisions.bit(letter, lane, d, j, i) == conditions[
                                letter
                            ](j, d, i), (
                                f"lane={lane} letter={letter} d={d} j={j} i={i} "
                                f"ec={entry_compression} band={traceback_band}"
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
        # No silent scalar fallback: every alignment went through the
        # 3-word lockstep engine.
        for alignment in alignments:
            assert alignment.metadata["vectorized"] is True
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
        for scheduling in ("sorted", "fifo"):
            chunked = BatchAlignmentEngine(
                config, max_lanes=4, scheduling=scheduling
            ).align_pairs(pairs)
            assert_pairwise_identical(reference, chunked, scheduling)
            for (pattern, text), alignment in zip(pairs, chunked):
                assert alignment.pattern == pattern
                assert alignment.text == text

    def test_sorted_schedule_improves_lockstep_efficiency(self, rng):
        pairs = self._mixed_pairs(rng)
        config = GenASMConfig()
        sorted_engine = BatchAlignmentEngine(config, max_lanes=4)
        fifo_engine = BatchAlignmentEngine(config, max_lanes=4, scheduling="fifo")
        sorted_stats = sorted_engine.scheduling_stats(pairs)
        fifo_stats = fifo_engine.scheduling_stats(pairs)
        assert sorted_stats["useful_work"] == fifo_stats["useful_work"]
        assert sorted_stats["efficiency"] > fifo_stats["efficiency"]
        assert sorted_stats["efficiency"] > 0.9  # homogeneous chunks
        assert fifo_stats["efficiency"] < 0.7  # alternating 1- and 10-window lanes

    def test_schedule_orders_by_expected_windows(self):
        engine = BatchAlignmentEngine(GenASMConfig(), max_lanes=2)
        pairs = [("A" * 300, "T"), ("A" * 10, "T"), ("A" * 700, "T"), ("A" * 64, "T")]
        order = engine.schedule(pairs)
        windows = [engine.expected_windows(len(pairs[i][0])) for i in order]
        assert windows == sorted(windows)
        fifo = BatchAlignmentEngine(GenASMConfig(), scheduling="fifo")
        assert fifo.schedule(pairs) == [0, 1, 2, 3]

    def test_expected_windows_matches_measured_window_metadata(self, rng):
        engine = BatchAlignmentEngine(GenASMConfig())
        pairs = self._mixed_pairs(rng) + [("", "ACGT")]
        for (pattern, _), alignment in zip(pairs, engine.align_pairs(pairs)):
            assert engine.expected_windows(len(pattern)) == alignment.metadata["windows"]

    def test_invalid_scheduling_rejected(self):
        with pytest.raises(ValueError):
            BatchAlignmentEngine(GenASMConfig(), scheduling="random")

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
    """Window accounting lives in one spot and survives retry sub-waves."""

    @pytest.mark.parametrize("max_lanes", WAVE_WIDTHS, ids=WAVE_WIDTH_IDS)
    def test_retry_subwave_metrics_match_scalar(self, rng, max_lanes):
        # k = 1 forces budget-doubling retries on any window with >= 2
        # edits; the engine must still count each window once and charge
        # exactly the scalar path's retry DP traffic — in shared waves and
        # in one-lane waves, whose retry sub-waves trace a single lane.
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

        assert_pairwise_identical(scalar, batch, "retry sub-waves")
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


# --------------------------------------------------------------------------- #
# Match-run skip-ahead
# --------------------------------------------------------------------------- #
class TestSkipAheadTraceback:
    """Skip-ahead consumes whole match runs yet stays byte-identical."""

    @pytest.mark.parametrize("window_size", [64, 96, 150])
    @pytest.mark.parametrize("skip_ahead", [False, True])
    def test_counter_parity_with_scalar(self, rng, window_size, skip_ahead):
        # tb_steps / dp_reads / bytes_read parity with the scalar walk,
        # with skip-ahead enabled AND disabled: skipping steps must still
        # charge the per-step reads the scalar walk would have issued.
        config = window_config(window_size, traceback_skip_ahead=skip_ahead)
        pairs = random_pairs(rng) + adversarial_pairs()
        context = f"window={window_size} skip={skip_ahead}"

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

    @pytest.mark.parametrize("priority", PRIORITIES)
    def test_toggle_invariant_across_priorities(self, rng, priority):
        # Skip-ahead is only legal when M leads the tie-break order; for
        # every priority the toggle must be a pure no-op on results and
        # accounting (it silently deactivates when another letter leads).
        pairs = random_pairs(rng) + adversarial_pairs()
        outcomes = {}
        for skip in (False, True):
            config = GenASMConfig(
                match_priority=priority, traceback_skip_ahead=skip
            )
            counter = AccessCounter()
            alignments = BatchAlignmentEngine(config).align_pairs(
                pairs, counter=counter
            )
            outcomes[skip] = (alignments, counter.as_dict())
        assert_pairwise_identical(outcomes[False][0], outcomes[True][0], priority)
        assert outcomes[False][1] == outcomes[True][1], priority

    def test_walk_steps_saved_on_matchy_workload(self, rng):
        pattern = random_dna(rng, 120)
        pairs = [(pattern, mutate(rng, pattern, 6) + "ACGT") for _ in range(4)]

        on = BatchAlignmentEngine(GenASMConfig())
        on_alignments = on.align_pairs(pairs)
        saved = sum(a.metadata["tb_walk_steps_saved"] for a in on_alignments)
        assert saved > 0
        assert on.traceback_stats["steps_saved"] == saved
        assert on.traceback_stats["match_runs"] > 0
        assert on.traceback_stats["seconds"] > 0
        for alignment in on_alignments:
            meta = alignment.metadata
            assert meta["tb_match_run_ops"] >= meta["tb_match_runs"]
            assert meta["tb_walk_steps"] > 0

        off = BatchAlignmentEngine(GenASMConfig(traceback_skip_ahead=False))
        off_alignments = off.align_pairs(pairs)
        assert all(
            a.metadata["tb_walk_steps_saved"] == 0 for a in off_alignments
        )
        assert off.traceback_stats["match_runs"] == 0
        assert_pairwise_identical(on_alignments, off_alignments, "skip on vs off")
        # Each emitted op either came from a walk iteration or was skipped.
        for on_a, off_a in zip(on_alignments, off_alignments):
            assert (
                on_a.metadata["tb_walk_steps"]
                + on_a.metadata["tb_walk_steps_saved"]
                == off_a.metadata["tb_walk_steps"]
            )

    def test_scheduling_stats_fold_traceback_counters(self, rng):
        pattern = random_dna(rng, 90)
        pairs = [(pattern, mutate(rng, pattern, 4) + "AC")] * 3
        engine = BatchAlignmentEngine(GenASMConfig())
        engine.align_pairs(pairs)
        stats = engine.scheduling_stats(pairs)
        assert stats["tb_walk_steps"] > 0
        assert stats["tb_steps_saved"] >= 0
        assert stats["tb_seconds"] >= 0

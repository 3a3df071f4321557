"""Tests for windowed alignment and the public GenASMAligner API."""

from repro.baselines.needleman_wunsch import prefix_edit_distance
from repro.core.aligner import GenASMAligner, align_pair
from repro.core.cigar import CigarOp
from repro.core.config import GenASMConfig
from repro.core.metrics import AccessCounter
from repro.core.windowing import align_window, align_windowed
from tests.conftest import mutate, random_dna


class TestAlignWindow:
    def test_identical_window(self):
        result = align_window("ACGTACGT", "ACGTACGT", GenASMConfig())
        assert result.errors == 0
        assert result.text_consumed == 8
        assert result.pattern_consumed == 8

    def test_empty_pattern(self):
        result = align_window("", "ACGT", GenASMConfig())
        assert result.ops == []

    def test_empty_text_becomes_insertions(self):
        result = align_window("ACGT", "", GenASMConfig())
        assert all(op is CigarOp.INSERTION for op in result.ops)
        assert result.errors == 4

    def test_budget_retry_eventually_succeeds(self):
        # Completely unrelated sequences force the budget-doubling path.
        config = GenASMConfig(max_errors=1)
        result = align_window("AAAAAAAA", "TTTTTTTT", config)
        assert result.errors == 8
        assert result.retries >= 1

    def test_commit_columns_limits_pattern_consumption(self):
        result = align_window("ACGTACGTACGT", "ACGTACGTACGT", GenASMConfig(), commit_columns=5)
        assert result.pattern_consumed == 5


class TestAlignWindowed:
    def test_matches_oracle_on_single_window(self, rng):
        config = GenASMConfig()
        for _ in range(30):
            pattern = random_dna(rng, rng.randint(1, 64))
            text = mutate(rng, pattern, rng.randint(0, 6)) + random_dna(rng, 6)
            result = align_windowed(pattern, text, config)
            assert result.cigar.edit_distance == prefix_edit_distance(pattern, text)

    def test_multi_window_is_close_to_oracle(self, rng):
        config = GenASMConfig()
        for _ in range(8):
            pattern = random_dna(rng, rng.randint(150, 300))
            text = mutate(rng, pattern, rng.randint(5, 25)) + random_dna(rng, 10)
            result = align_windowed(pattern, text, config)
            optimum = prefix_edit_distance(pattern, text)
            assert result.cigar.edit_distance >= optimum
            # The windowed heuristic should stay very close to optimal.
            assert result.cigar.edit_distance <= optimum + max(3, optimum // 5)

    def test_window_count(self):
        config = GenASMConfig(window_size=64, window_overlap=24)
        pattern = "ACGT" * 64  # 256 bases
        result = align_windowed(pattern, pattern, config)
        # ceil((256 - 64) / 40) + 1 windows
        assert result.windows == 6

    def test_counter_accumulates_across_windows(self):
        counter = AccessCounter()
        pattern = "ACGT" * 50
        align_windowed(pattern, pattern, GenASMConfig(), counter=counter)
        assert counter.windows > 1
        assert counter.dp_writes > 0

    def test_empty_inputs(self):
        result = align_windowed("", "ACGT", GenASMConfig())
        assert len(result.cigar) == 0
        result = align_windowed("ACGT", "", GenASMConfig())
        assert result.cigar.edit_distance == 4


class TestGenASMAligner:
    def test_align_returns_valid_alignment(self, rng):
        aligner = GenASMAligner()
        pattern = random_dna(rng, 200)
        text = mutate(rng, pattern, 20) + random_dna(rng, 10)
        alignment = aligner.align(pattern, text)
        alignment.validate()
        assert alignment.aligner == "genasm-improved"
        assert alignment.metadata["windows"] >= 1

    def test_baseline_and_improved_agree(self, rng):
        improved = GenASMAligner()
        baseline = GenASMAligner(GenASMConfig.baseline())
        for _ in range(10):
            pattern = random_dna(rng, rng.randint(30, 200))
            text = mutate(rng, pattern, rng.randint(0, 20)) + random_dna(rng, 8)
            a = improved.align(pattern, text)
            b = baseline.align(pattern, text)
            assert a.edit_distance == b.edit_distance

    def test_improved_touches_fewer_bytes(self, rng):
        improved = GenASMAligner()
        baseline = GenASMAligner(GenASMConfig.baseline())
        pattern = random_dna(rng, 500)
        text = mutate(rng, pattern, 50) + random_dna(rng, 10)
        a = improved.align(pattern, text)
        b = baseline.align(pattern, text)
        assert a.metadata["dp_bytes"] < b.metadata["dp_bytes"]
        assert a.metadata["peak_window_bytes"] < b.metadata["peak_window_bytes"]

    def test_edit_distance_shortcut(self):
        aligner = GenASMAligner()
        assert aligner.edit_distance("ACGT", "TTACGTTT") == 0
        assert aligner.edit_distance("AAAA", "TTTT", max_errors=2) is None

    def test_align_batch_shares_counter(self):
        aligner = GenASMAligner()
        counter = AccessCounter()
        pairs = [("ACGTACGT", "ACGTACGT"), ("AAAA", "AAAT")]
        results = aligner.align_batch(pairs, counter=counter)
        assert len(results) == 2
        assert counter.windows == 2

    def test_align_pair_convenience(self):
        alignment = align_pair("ACGT", "ACGT")
        assert alignment.edit_distance == 0

    def test_default_name_reflects_configuration(self):
        assert GenASMAligner().name == "genasm-improved"
        assert GenASMAligner(GenASMConfig.baseline()).name == "genasm-baseline"

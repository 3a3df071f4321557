"""Unit tests for GenASM-DC, GenASM-TB and the improvement helpers."""

import pytest

from repro.baselines.needleman_wunsch import (
    prefix_edit_distance,
    semiglobal_edit_distance,
)
from repro.core.bitvector import all_ones
from repro.core.cigar import Cigar
from repro.core.genasm_dc import genasm_dc, genasm_distance_only
from repro.core.genasm_tb import TracebackError, genasm_traceback
from repro.core.improvements import (
    band_bounds,
    band_width,
    entry_bytes,
    reachable_column_start,
    solution_found,
    vectors_per_entry,
)
from tests.conftest import mutate, random_dna


class TestImprovementHelpers:
    def test_band_bounds_at_final_column(self):
        lo, hi = band_bounds(j=72, n=72, m=64, k=10)
        assert lo == 53 and hi == 63

    def test_band_bounds_clamped(self):
        lo, hi = band_bounds(j=0, n=72, m=64, k=10)
        assert lo == 0

    def test_band_width(self):
        assert band_width(64, 10) == 22
        assert band_width(16, 10) == 16  # never wider than the pattern

    def test_vectors_per_entry(self):
        assert vectors_per_entry(True) == 1
        assert vectors_per_entry(False) == 4

    def test_solution_found_checks_msb(self):
        assert solution_found(0, m=4)
        assert not solution_found(0b1000, m=4)

    def test_reachable_column_start(self):
        assert reachable_column_start(n=72, committed_columns=40, k=10) == 21
        assert reachable_column_start(n=10, committed_columns=40, k=10) == 0

    def test_entry_bytes_band_vs_full(self):
        assert entry_bytes(64, 10, traceback_band=False) == 8
        assert entry_bytes(64, 10, traceback_band=True) == 4  # 22 bits -> uint32


def _banded_and_full(pattern: str, text: str, k: int, **toggles):
    """The same DC run stored band-packed and full-width."""
    banded = genasm_dc(pattern, text, k, traceback_band=True, **toggles)
    full = genasm_dc(pattern, text, k, traceback_band=False, **toggles)
    assert banded.rows_computed == full.rows_computed
    return banded, full


class TestBandedStorage:
    """The DC kernel stores ``(R >> lo) & all_ones(width)``; reads invert it."""

    PATTERN = "ACGTTGCAAGCTTACGGATCCATGCAGTCA"  # m = 30 > 2k + 2: a real band
    TEXT = "ACGTTGCTAGCTTACGATCCATGCAGGTCAGG"
    K = 5

    def test_stored_values_are_the_band_slice_of_the_full_vectors(self):
        banded, full = _banded_and_full(self.PATTERN, self.TEXT, self.K)
        width = band_width(len(self.PATTERN), self.K)
        assert width < len(self.PATTERN)
        for d in range(banded.rows_computed):
            for j in range(len(self.TEXT) + 1):
                lo = banded.band_lo(j)
                want = (full.stored_r[d][j] >> lo) & all_ones(width)
                assert banded.stored_r[d][j] == want, (d, j)

    def test_band_lo_follows_band_bounds(self):
        banded, full = _banded_and_full(self.PATTERN, self.TEXT, self.K)
        n, m = len(self.TEXT), len(self.PATTERN)
        los = [banded.band_lo(j) for j in range(n + 1)]
        assert los == [band_bounds(j, n, m, self.K)[0] for j in range(n + 1)]
        assert max(los) > 0
        assert all(full.band_lo(j) == 0 for j in range(n + 1))

    def test_r_bit_inside_the_band_reads_the_full_vector(self):
        banded, full = _banded_and_full(self.PATTERN, self.TEXT, self.K)
        width = band_width(len(self.PATTERN), self.K)
        for d in range(banded.rows_computed):
            for j in range(len(self.TEXT) + 1):
                lo = banded.band_lo(j)
                for bit in range(lo, min(lo + width, len(self.PATTERN))):
                    assert banded.r_bit(d, j, bit) == full.r_bit(d, j, bit), (d, j, bit)

    def test_r_bit_outside_the_band_is_inactive(self):
        banded, full = _banded_and_full(self.PATTERN, self.TEXT, self.K)
        width = band_width(len(self.PATTERN), self.K)
        outside = 0
        for d in range(banded.rows_computed):
            for j in range(len(self.TEXT) + 1):
                lo = banded.band_lo(j)
                for bit in [*range(lo), *range(lo + width, len(self.PATTERN))]:
                    assert not banded.r_bit(d, j, bit), (d, j, bit)
                    outside += full.r_bit(d, j, bit)
        # The full vectors do have active bits out there: the band drops them.
        assert outside > 0

    def test_quad_bit_inside_the_band_reads_the_full_intermediates(self):
        banded, full = _banded_and_full(
            self.PATTERN, self.TEXT, self.K, entry_compression=False
        )
        width = band_width(len(self.PATTERN), self.K)
        for d in range(banded.rows_computed):
            for j in range(1, len(self.TEXT) + 1):
                lo = banded.band_lo(j)
                for which in range(4):
                    for bit in range(len(self.PATTERN)):
                        got = banded.quad_bit(d, j, which, bit)
                        if lo <= bit < lo + width:
                            assert got == full.quad_bit(d, j, which, bit)
                        else:
                            assert not got

    @pytest.mark.parametrize("entry_compression", [True, False], ids=["r", "quad"])
    def test_negative_bit_is_active_and_reads_nothing(self, entry_compression):
        # Bit -1 models the zero a left shift brings in; no stored entry is read.
        table = genasm_dc(self.PATTERN, self.TEXT, self.K, entry_compression=entry_compression)
        before = table.counter.dp_reads
        if entry_compression:
            assert table.r_bit(0, 1, -1)
        else:
            assert all(table.quad_bit(0, 1, which, -1) for which in range(4))
        assert table.counter.dp_reads == before


class TestDistanceOnly:
    def test_exact_match_is_zero(self):
        assert genasm_distance_only("ACGT", "TTACGTTT") == 0

    def test_single_substitution(self):
        assert genasm_distance_only("ACGT", "ACAT") == 1

    def test_empty_pattern(self):
        assert genasm_distance_only("", "ACGT") == 0

    def test_bounded_search_returns_none(self):
        assert genasm_distance_only("AAAA", "TTTT", max_errors=2) is None

    def test_matches_dp_oracle_randomised(self, rng):
        for _ in range(60):
            pattern = random_dna(rng, rng.randint(1, 30))
            text = random_dna(rng, rng.randint(1, 40))
            assert genasm_distance_only(pattern, text) == semiglobal_edit_distance(
                pattern, text
            )

    def test_early_termination_flag_does_not_change_result(self, rng):
        for _ in range(20):
            pattern = random_dna(rng, rng.randint(1, 20))
            text = random_dna(rng, rng.randint(1, 25))
            assert genasm_distance_only(pattern, text, early_termination=True) == (
                genasm_distance_only(pattern, text, early_termination=False)
            )


def _window_distance(pattern: str, text: str, **toggles) -> int:
    """Distance of pattern vs. a prefix of text through one reversed window."""
    table = genasm_dc(pattern[::-1], text[::-1], max(1, len(pattern)), **toggles)
    assert table.min_errors is not None
    return table.min_errors


class TestGenasmDC:
    def test_min_errors_is_end_anchored_distance(self, rng):
        for _ in range(40):
            pattern = random_dna(rng, rng.randint(1, 24))
            text = mutate(rng, pattern, rng.randint(0, 4)) + random_dna(rng, 4)
            expected = prefix_edit_distance(pattern, text)
            assert _window_distance(pattern, text) == expected

    def test_empty_pattern_table(self):
        table = genasm_dc("", "ACGT", 2)
        assert table.min_errors == 0

    def test_early_termination_reduces_rows(self):
        pattern = "ACGTACGTAC"
        text = pattern  # distance 0
        with_et = genasm_dc(pattern, text, 8, early_termination=True)
        without_et = genasm_dc(pattern, text, 8, early_termination=False)
        assert with_et.rows_computed == 1
        assert without_et.rows_computed == 9
        assert with_et.min_errors == without_et.min_errors == 0

    def test_entry_compression_stores_single_vectors(self):
        pattern, text = "ACGTACGT", "ACGAACGT"
        compressed = genasm_dc(pattern, text, 4, entry_compression=True)
        quad = genasm_dc(pattern, text, 4, entry_compression=False)
        assert compressed.stored_r and not compressed.stored_quad
        assert quad.stored_quad and not quad.stored_r
        assert compressed.min_errors == quad.min_errors

    def test_write_counts_reflect_entry_compression(self):
        pattern, text = "ACGTACGTACGT", "ACGTACGAACGT"
        compressed = genasm_dc(
            pattern, text, 4, entry_compression=True, early_termination=False, traceback_band=False
        )
        quad = genasm_dc(
            pattern, text, 4, entry_compression=False, early_termination=False, traceback_band=False
        )
        assert quad.counter.dp_writes > 3 * compressed.counter.dp_writes

    def test_stored_bytes_smaller_with_improvements(self):
        pattern = "ACGT" * 16
        text = "ACGT" * 16 + "ACGTACGT"
        improved = genasm_dc(pattern, text, 10)
        baseline = genasm_dc(
            pattern,
            text,
            10,
            entry_compression=False,
            early_termination=False,
            traceback_band=False,
        )
        assert improved.stored_bytes() < baseline.stored_bytes()

    def test_max_errors_clamped_to_pattern_length(self):
        table = genasm_dc("ACG", "TTT", 100)
        assert table.max_errors == 3
        assert table.min_errors == 3  # replace every character


class TestGenasmTB:
    @pytest.mark.parametrize("entry_compression", [True, False])
    @pytest.mark.parametrize("traceback_band", [True, False])
    def test_traceback_reproduces_distance(self, rng, entry_compression, traceback_band):
        for _ in range(25):
            pattern = random_dna(rng, rng.randint(1, 24))
            text = mutate(rng, pattern, rng.randint(0, 4)) + random_dna(rng, 3)
            table = genasm_dc(
                pattern[::-1],
                text[::-1],
                len(pattern),
                entry_compression=entry_compression,
                traceback_band=traceback_band,
            )
            ops, stop = genasm_traceback(table)
            cigar = Cigar.from_ops(ops)
            assert cigar.edit_distance == table.min_errors
            assert cigar.pattern_length == len(pattern)
            # The emitted ops are in forward order for the reversed window.
            cigar.validate(pattern, text[: cigar.text_length], partial_text=False)

    def test_compressed_and_quad_traceback_agree(self, rng):
        for _ in range(25):
            pattern = random_dna(rng, rng.randint(4, 32))
            text = mutate(rng, pattern, rng.randint(0, 5)) + random_dna(rng, 4)
            kwargs = dict(early_termination=False, traceback_band=False)
            compressed = genasm_dc(
                pattern[::-1], text[::-1], len(pattern), entry_compression=True, **kwargs
            )
            quad = genasm_dc(
                pattern[::-1], text[::-1], len(pattern), entry_compression=False, **kwargs
            )
            ops_a, _ = genasm_traceback(compressed)
            ops_b, _ = genasm_traceback(quad)
            assert ops_a == ops_b

    def test_priority_changes_cigar_not_distance(self):
        pattern, text = "ACGTACGTA", "ACGACGTAA"
        distances = set()
        for priority in ("MSDI", "MDSI", "MISD"):
            table = genasm_dc(pattern[::-1], text[::-1], len(pattern))
            ops, _ = genasm_traceback(table, priority=priority)
            distances.add(Cigar.from_ops(ops).edit_distance)
        assert len(distances) == 1

    def test_traceback_without_solution_raises(self):
        table = genasm_dc("AAAA", "TTTT", 1)
        assert table.min_errors is None
        with pytest.raises(TracebackError):
            genasm_traceback(table)

    def test_max_pattern_columns_truncates(self):
        pattern = "ACGTACGTACGT"
        text = pattern
        table = genasm_dc(pattern[::-1], text[::-1], 4)
        ops, _ = genasm_traceback(table, max_pattern_columns=5)
        assert Cigar.from_ops(ops).pattern_length == 5

    def test_traceback_counts_reads(self):
        pattern, text = "ACGTACGT", "ACGTACGT"
        table = genasm_dc(pattern[::-1], text[::-1], 4)
        before = table.counter.dp_reads
        genasm_traceback(table)
        assert table.counter.dp_reads > before

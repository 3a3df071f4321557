"""Unit tests for the bitvector substrate."""

import pytest

from repro.core.bitvector import (
    all_ones,
    bit_is_zero,
    pattern_bitmasks,
    pattern_bitmasks_zero_match,
    popcount,
)


class TestAllOnes:
    def test_zero_length(self):
        assert all_ones(0) == 0

    def test_small(self):
        assert all_ones(3) == 0b111

    def test_word_boundary(self):
        assert all_ones(64) == (1 << 64) - 1

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            all_ones(-1)


class TestBitPredicates:
    def test_bit_is_zero(self):
        assert bit_is_zero(0b101, 1)
        assert not bit_is_zero(0b101, 0)

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b10110) == 3

    def test_zero_bit_queries_on_all_ones(self):
        # The empty GenASM bitvector has no active bit inside its length.
        assert not any(bit_is_zero(all_ones(6), bit) for bit in range(6))
        assert bit_is_zero(all_ones(6), 6)
        assert popcount(all_ones(6)) == 6


class TestPatternMasks:
    def test_one_active_polarity(self):
        masks = pattern_bitmasks("ACGA")
        assert masks["A"] == 0b1001
        assert masks["C"] == 0b0010
        assert masks["G"] == 0b0100
        assert masks["T"] == 0

    def test_zero_active_polarity_is_complement(self):
        pattern = "ACGTAC"
        ones = all_ones(len(pattern))
        one_active = pattern_bitmasks(pattern)
        zero_active = pattern_bitmasks_zero_match(pattern)
        for c in "ACGT":
            assert zero_active[c] == (ones & ~one_active[c])

    def test_unknown_characters_never_match(self):
        masks = pattern_bitmasks_zero_match("ANA")
        # Position 1 holds 'N', which is outside the alphabet: no zero bit
        # anywhere for it.
        for c in "ACGT":
            assert not bit_is_zero(masks[c], 1)

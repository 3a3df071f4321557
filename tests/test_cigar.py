"""Unit tests for CIGAR handling."""

import pytest
from hypothesis import given, strategies as st

from repro.core.cigar import Cigar, CigarOp


class TestParsing:
    def test_roundtrip(self):
        c = Cigar.from_string("10=1X3I2D")
        assert str(c) == "10=1X3I2D"

    def test_empty(self):
        assert str(Cigar.from_string("")) == "*"
        assert str(Cigar.from_string("*")) == "*"
        assert len(Cigar(())) == 0

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Cigar.from_string("10=abc")

    def test_unsupported_op_raises(self):
        with pytest.raises(ValueError):
            Cigar.from_string("5N")

    def test_merges_adjacent_runs(self):
        c = Cigar.from_runs([(2, CigarOp.MATCH), (3, CigarOp.MATCH), (1, CigarOp.DELETION)])
        assert str(c) == "5=1D"

    def test_drops_zero_runs(self):
        c = Cigar.from_runs([(0, CigarOp.MATCH), (2, CigarOp.MISMATCH)])
        assert str(c) == "2X"

    def test_negative_run_raises(self):
        with pytest.raises(ValueError):
            Cigar.from_runs([(-1, CigarOp.MATCH)])


class TestDerivedQuantities:
    def test_lengths(self):
        c = Cigar.from_string("5=2X3I4D")
        assert c.pattern_length == 10
        assert c.text_length == 11
        assert len(c) == 14

    def test_edit_distance(self):
        c = Cigar.from_string("5=2X3I4D")
        assert c.edit_distance == 9

    def test_matches_and_counts(self):
        c = Cigar.from_string("5=2X1=")
        assert c.matches == 6
        assert c.counts() == {"=": 6, "X": 2}

    def test_soft_clip_consumes_pattern_only(self):
        c = Cigar.from_string("3S5=")
        assert c.pattern_length == 8
        assert c.text_length == 5


class TestAlgebra:
    def test_concatenation_merges(self):
        a = Cigar.from_string("3=")
        b = Cigar.from_string("2=1X")
        assert str(a + b) == "5=1X"

    def test_reversed(self):
        c = Cigar.from_string("3=1D2X")
        assert str(c.reversed()) == "2X1D3="

    def test_collapse_to_m(self):
        c = Cigar.from_string("3=1X2I")
        assert str(c.collapse_to_M()) == "4M2I"


class TestValidation:
    def test_valid_alignment(self):
        Cigar.from_string("3=1X").validate("ACGT", "ACGA")

    def test_wrong_pattern_length(self):
        with pytest.raises(ValueError):
            Cigar.from_string("3=").validate("ACGT", "ACG")

    def test_match_run_over_mismatch_raises(self):
        with pytest.raises(ValueError):
            Cigar.from_string("4=").validate("ACGT", "ACGA")

    def test_mismatch_run_over_match_raises(self):
        with pytest.raises(ValueError):
            Cigar.from_string("3=1X").validate("ACGT", "ACGT")

    def test_partial_text_allowed(self):
        Cigar.from_string("4=").validate("ACGT", "ACGTAAA", partial_text=True)

    def test_partial_text_disallowed(self):
        with pytest.raises(ValueError):
            Cigar.from_string("4=").validate("ACGT", "ACGTAAA", partial_text=False)


class TestScoring:
    def test_unit_cost_score_equals_edit_distance(self):
        c = Cigar.from_string("5=2X3I4D")
        assert c.score() == c.edit_distance

    def test_affine_score(self):
        c = Cigar.from_string("2=1X3I")
        # 2*2 + (-4) + (-4 + 2*(-2)) = 4 - 4 - 8 = -8
        assert c.affine_score(2, -4, -4, -2) == -8


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5),
            st.sampled_from(list(CigarOp)),
        ),
        max_size=20,
    )
)
def test_string_roundtrip_property(runs):
    cigar = Cigar.from_runs(runs)
    assert Cigar.from_string(str(cigar)) == cigar


@given(
    st.lists(st.sampled_from([CigarOp.MATCH, CigarOp.MISMATCH, CigarOp.INSERTION, CigarOp.DELETION]), max_size=30)
)
def test_edit_distance_counts_non_matches(ops):
    cigar = Cigar.from_ops(ops)
    expected = sum(1 for op in ops if op is not CigarOp.MATCH)
    assert cigar.edit_distance == expected


class TestResolveAlignAndClips:
    def test_resolves_m_runs_against_sequences(self):
        cigar = Cigar.from_string("4M")
        resolved = cigar.resolve_align("ACGT", "ACTT")
        assert str(resolved) == "2=1X1="
        assert resolved.matches == 3 and resolved.edit_distance == 1

    def test_no_m_returns_same_object(self):
        cigar = Cigar.from_string("3=1X")
        assert cigar.resolve_align("ACGA", "ACGT") is cigar

    def test_mixed_ops_track_both_cursors(self):
        cigar = Cigar.from_string("2M1I2M")
        resolved = cigar.resolve_align("ACGTT", "ACTA")
        assert str(resolved) == "2=1I1=1X"

    def test_m_run_overrunning_sequences_raises(self):
        with pytest.raises(ValueError, match="overruns"):
            Cigar.from_string("5M").resolve_align("ACGT", "ACGT")

    def test_has_align_ops(self):
        assert Cigar.from_string("3M").has_align_ops
        assert not Cigar.from_string("3=1X1I").has_align_ops

    def test_clip_lengths(self):
        cigar = Cigar.from_string("2S3=1S")
        assert cigar.leading_clip == 2
        assert cigar.trailing_clip == 1
        assert Cigar.from_string("3=").leading_clip == 0
        assert Cigar.from_string("3=").trailing_clip == 0

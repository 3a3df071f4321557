"""Unit tests for GenASMConfig, Alignment and the memory metrics."""

import itertools

import pytest

from repro.core.alignment import Alignment, pretty_alignment
from repro.core.cigar import Cigar
from repro.core.config import GenASMConfig
from repro.core.improvements import entry_bytes
from repro.core.metrics import AccessCounter, MemoryFootprint


class TestConfig:
    def test_defaults_enable_all_improvements(self):
        cfg = GenASMConfig()
        assert cfg.entry_compression and cfg.early_termination and cfg.traceback_band
        assert cfg.improved

    def test_baseline_disables_all_improvements(self):
        cfg = GenASMConfig.baseline()
        assert not cfg.improved

    def test_derived_error_budget(self):
        cfg = GenASMConfig(window_size=64, error_rate=0.15, max_errors=None)
        assert cfg.k == 10  # ceil(64 * 0.15)

    def test_explicit_error_budget_clamped(self):
        cfg = GenASMConfig(window_size=32, max_errors=100)
        assert cfg.k == 32

    def test_window_step(self):
        cfg = GenASMConfig(window_size=64, window_overlap=24)
        assert cfg.window_step == 40

    def test_short_read_preset_single_window(self):
        cfg = GenASMConfig.short_read(150)
        assert cfg.window_size == 150
        assert cfg.window_overlap == 0

    def test_with_improvements_override(self):
        cfg = GenASMConfig.baseline().with_improvements(entry_compression=True)
        assert cfg.entry_compression
        assert not cfg.early_termination

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_size": 0},
            {"window_overlap": 64},
            {"window_overlap": -1},
            {"error_rate": 1.5},
            {"max_errors": -1},
            {"text_slack": -1},
            {"match_priority": "MMMM"},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            GenASMConfig(**kwargs)


class TestAlignment:
    def test_text_end_defaults_to_cigar_span(self):
        aln = Alignment("ACGT", "ACGTTT", Cigar.from_string("4="), 0)
        assert aln.text_span == (0, 4)

    def test_identity(self):
        aln = Alignment("ACGT", "ACGA", Cigar.from_string("3=1X"), 1)
        assert aln.identity == pytest.approx(0.75)

    def test_validate_accepts_consistent_alignment(self):
        aln = Alignment("ACGT", "ACGAC", Cigar.from_string("3=1X"), 1)
        aln.validate()

    def test_validate_rejects_wrong_distance(self):
        aln = Alignment("ACGT", "ACGA", Cigar.from_string("3=1X"), 2)
        with pytest.raises(ValueError):
            aln.validate()

    def test_pretty_alignment_renders_rows(self):
        aln = Alignment("ACGT", "ACAT", Cigar.from_string("2=1X1="), 1)
        text = pretty_alignment(aln)
        assert "ACGT" in text.replace(" ", "") or "|" in text


class TestAccessCounter:
    def test_record_and_totals(self):
        c = AccessCounter()
        c.record_write(3, 8)
        c.record_read(2, 4)
        assert c.total_accesses == 5
        assert c.total_bytes == 32

    def test_merge(self):
        a, b = AccessCounter(), AccessCounter()
        a.record_write(1, 8)
        b.record_write(2, 8)
        b.tb_steps = 5
        a.merge(b)
        assert a.dp_writes == 3
        assert a.tb_steps == 5

    def test_as_dict_keys(self):
        d = AccessCounter().as_dict()
        assert {"dp_writes", "dp_reads", "total_bytes", "tb_steps"} <= set(d)


class TestMemoryFootprint:
    def test_baseline_formula(self):
        fp = MemoryFootprint(pattern_window=64, text_window=72, max_errors=10)
        # 72 columns x 11 rows x 4 vectors x 8 bytes
        assert fp.baseline_bytes == 72 * 11 * 4 * 8

    def test_improvements_shrink_footprint(self):
        fp = MemoryFootprint(
            pattern_window=64, text_window=72, max_errors=10, rows_used=8, committed_columns=40
        )
        assert fp.improved_bytes < fp.baseline_bytes
        assert fp.reduction_factor > 4

    def test_each_improvement_individually_helps(self):
        fp = MemoryFootprint(
            pattern_window=64, text_window=72, max_errors=10, rows_used=6, committed_columns=40
        )

        def reduction(**improvements):
            alone = dict(
                entry_compression=False, early_termination=False, traceback_band=False
            )
            return fp.baseline_bytes / fp.bytes_for(**{**alone, **improvements})

        assert reduction(entry_compression=True) == pytest.approx(4.0)
        assert reduction(early_termination=True) > 1.5
        assert reduction(traceback_band=True) > 1.5
        assert reduction(
            entry_compression=True, early_termination=True, traceback_band=True
        ) == pytest.approx(fp.reduction_factor)

    def test_from_config_uses_window_parameters(self):
        cfg = GenASMConfig(window_size=64, window_overlap=24, text_slack=8)
        fp = MemoryFootprint.from_config(cfg, rows_used=7)
        assert fp.pattern_window == 64
        assert fp.text_window == 72
        assert fp.committed_columns == 40

    def test_config_footprints_bracket_the_improvement_sets(self):
        fp = MemoryFootprint.from_config(GenASMConfig(), rows_used=8)
        assert fp.bytes_for_config(GenASMConfig()) == fp.improved_bytes
        assert fp.bytes_for_config(GenASMConfig.baseline()) == fp.baseline_bytes
        assert fp.improved_bytes < fp.baseline_bytes

    def test_bytes_for_multiplies_columns_rows_vectors_and_entries(self):
        fp = MemoryFootprint(
            pattern_window=64, text_window=72, max_errors=10, rows_used=8, committed_columns=40
        )
        for ec, et, tb in itertools.product([False, True], repeat=3):
            want = (
                fp.columns(traceback_band=tb)
                * fp.rows(early_termination=et)
                * (1 if ec else 4)
                * entry_bytes(64, 10, traceback_band=tb)
            )
            got = fp.bytes_for(entry_compression=ec, early_termination=et, traceback_band=tb)
            assert got == want, (ec, et, tb)

    def test_rows_and_columns_honour_each_improvement(self):
        fp = MemoryFootprint(
            pattern_window=64, text_window=72, max_errors=10, rows_used=8, committed_columns=40
        )
        assert fp.rows(early_termination=False) == 11
        assert fp.rows(early_termination=True) == 8
        assert fp.columns(traceback_band=False) == 72
        assert fp.columns(traceback_band=True) == 40 + 10 + 2
        # rows_used past the budget is clamped; no rows_used or no
        # committed columns leaves that improvement nothing to trim.
        assert MemoryFootprint(64, 72, 10, rows_used=50).rows(early_termination=True) == 11
        assert MemoryFootprint(64, 72, 10).rows(early_termination=True) == 11
        assert MemoryFootprint(64, 72, 10).columns(traceback_band=True) == 72


class TestIdentityWithClassicM:
    def test_identity_resolves_m_runs(self):
        # A classic-M CIGAR must not report zero identity just because no
        # column is literally '='. Three of four M columns match here.
        alignment = Alignment("ACGT", "ACTT", Cigar.from_string("4M"), 1)
        assert alignment.matches == 3
        assert alignment.identity == pytest.approx(0.75)

    def test_identity_unchanged_for_eqx_cigars(self):
        alignment = Alignment("ACGT", "ACTT", Cigar.from_string("2=1X1="), 1)
        assert alignment.identity == pytest.approx(0.75)
        assert alignment.resolved_cigar is alignment.cigar

    def test_reference_coordinates_offsets_by_region(self):
        alignment = Alignment("ACGT", "GGACGT", Cigar.from_string("4="), 0, text_start=2)
        assert alignment.reference_coordinates() == (2, 6)
        assert alignment.reference_coordinates(100) == (102, 106)

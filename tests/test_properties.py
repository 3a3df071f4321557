"""Property-based tests (hypothesis) for the core alignment invariants,
plus the multi-word lane invariants of the vectorized batch engine (the
cross-word carry at pattern bits ``i % 64 == 0``) and generated waves for
its DC kernel, which runs the improved configuration only."""

from hypothesis import given, settings, strategies as st

from repro.baselines.edlib_like import myers_edit_distance
from repro.baselines.needleman_wunsch import (
    edit_distance,
    prefix_edit_distance,
    semiglobal_edit_distance,
)
from repro.batch import (
    BatchAlignmentEngine,
    build_wave_decisions,
    lockstep_stats,
    run_dc_wave_state,
)
from repro.core.aligner import GenASMAligner
from repro.core.config import GenASMConfig
from repro.core.genasm_dc import genasm_dc, genasm_distance_only
from repro.core.genasm_tb import traceback_conditions
from tests.conftest import assert_same_dc_table, lane_wave

dna = st.text(alphabet="ACGT", min_size=0, max_size=48)
dna_nonempty = st.text(alphabet="ACGT", min_size=1, max_size=48)
#: Patterns wide enough to straddle the 64-bit word boundary (2-3 words).
dna_straddling = st.text(alphabet="ACGT", min_size=60, max_size=140)

_improved = GenASMAligner()
_baseline = GenASMAligner(GenASMConfig.baseline())


@settings(deadline=None)
@given(dna_nonempty, dna_nonempty)
def test_genasm_distance_matches_dp_oracle(pattern, text):
    assert genasm_distance_only(pattern, text) == semiglobal_edit_distance(pattern, text)


@settings(deadline=None)
@given(dna_nonempty, dna_nonempty)
def test_myers_matches_dp_oracle_all_modes(pattern, text):
    assert myers_edit_distance(pattern, text, "global") == edit_distance(pattern, text)
    assert myers_edit_distance(pattern, text, "prefix") == prefix_edit_distance(pattern, text)
    assert myers_edit_distance(pattern, text, "infix") == semiglobal_edit_distance(pattern, text)


@settings(deadline=None)
@given(dna_nonempty, dna_nonempty)
def test_single_window_alignment_is_optimal(pattern, text):
    alignment = _improved.align(pattern, text)
    alignment.validate()
    assert alignment.edit_distance == prefix_edit_distance(pattern, text)


@settings(deadline=None)
@given(dna_nonempty, dna_nonempty)
def test_improved_equals_baseline(pattern, text):
    assert (
        _improved.align(pattern, text).edit_distance
        == _baseline.align(pattern, text).edit_distance
    )


@settings(deadline=None)
@given(dna_nonempty)
def test_self_alignment_is_exact(pattern):
    alignment = _improved.align(pattern, pattern)
    assert alignment.edit_distance == 0
    assert alignment.cigar.matches == len(pattern)


@settings(deadline=None)
@given(dna_nonempty, dna_nonempty)
def test_distance_symmetry_upper_bound(pattern, text):
    # Semi-global distance is at most the global distance, which is symmetric.
    semi = genasm_distance_only(pattern, text)
    assert semi <= edit_distance(pattern, text)


@settings(deadline=None)
@given(dna_nonempty, dna_nonempty, dna_nonempty)
def test_triangle_inequality_on_global_distance(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@settings(deadline=None)
@given(dna_nonempty, st.text(alphabet="ACGT", min_size=0, max_size=16))
def test_appending_text_never_increases_prefix_distance(pattern, extra):
    base = pattern
    assert prefix_edit_distance(pattern, base + extra) <= prefix_edit_distance(pattern, base)


@settings(deadline=None)
@given(dna_nonempty, dna_nonempty)
def test_cigar_consumes_whole_pattern(pattern, text):
    alignment = _improved.align(pattern, text)
    assert alignment.cigar.pattern_length == len(pattern)
    assert alignment.cigar.text_length <= len(text)


# --------------------------------------------------------------------------- #
# Multi-word lane invariants (repro.batch): the cross-word carry of the
# lockstep DC recurrence and decision planes must agree bit for bit with
# the scalar predicates, in particular at pattern bits i with i % 64 == 0
# (the stitch where bit 63 of word w carries into bit 0 of word w + 1).
# --------------------------------------------------------------------------- #
def _failing_lane(k: int):
    """A lane whose budget of ``k + 1`` fails, so it keeps ``k + 2`` rows."""
    return "A" * (k + 3), "C" * 4, k + 1


@settings(deadline=None)
@given(
    dna_straddling,
    st.text(alphabet="ACGT", min_size=0, max_size=20),
    st.integers(min_value=1, max_value=4),
)
def test_multi_word_decision_planes_equal_scalar_predicates(pattern, noise, k):
    # Text derived from the pattern so the DP has real match structure;
    # the pair straddles word boundaries by construction (m in 60..140).
    # It is lane 1, behind a lane whose budget fails with k + 2 rows, so
    # its block of row slots starts at a non-zero slot base.
    text = pattern[: len(pattern) // 2] + noise
    state = run_dc_wave_state(lane_wave([_failing_lane(k), (pattern, text, k)]))
    decisions = build_wave_decisions([(state, state.rows_computed)])
    assert list(decisions.rows) == list(state.rows_computed)
    assert decisions.rows[0] == k + 2 > decisions.rows[1]
    table = state.table(1)
    conditions = traceback_conditions(table)
    m, n = len(pattern), len(text)
    # Every word-boundary bit plus the edges and a mid-word control.
    probe_bits = {0, 1, 31, m - 1} | {
        b for b in (62, 63, 64, 65, 126, 127, 128, 129) if b < m
    }
    for d in range(table.rows_computed):
        for j in range(1, n + 1):
            for i in sorted(probe_bits):
                for letter in "MSID":
                    assert decisions.bit(letter, 1, d, j, i) == conditions[letter](
                        j, d, i
                    ), f"letter={letter} d={d} j={j} i={i}"


@settings(deadline=None)
@given(dna_straddling, st.integers(min_value=0, max_value=10))
def test_multi_word_vectorized_alignment_equals_scalar(pattern, edits):
    # End-to-end: the multi-word lockstep engine reproduces the scalar
    # windowed aligner on single-window short-read configs.
    text = (pattern[:edits] + pattern[edits:][::-1])[: len(pattern)] + "ACGT"
    config = GenASMConfig.short_read(len(pattern))
    want = GenASMAligner(config).align(pattern, text)
    got = BatchAlignmentEngine(config).align_pairs([(pattern, text)])[0]
    assert str(got.cigar) == str(want.cigar)
    assert got.edit_distance == want.edit_distance
    assert got.text_end == want.text_end
    assert got.metadata["words_per_lane"] == -(-len(pattern) // 64)


@settings(deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=32),
    st.integers(min_value=1, max_value=16),
)
def test_lockstep_scheduling_invariants_hold_for_multi_word_lanes(lengths, group):
    # scheduling_stats must stay a valid lockstep model when lanes cost
    # words × windows: conserved useful work, efficiency in (0, 1], and
    # the lockstep (padded) work never below the useful work.
    config = GenASMConfig.short_read(150)
    engine = BatchAlignmentEngine(config, max_lanes=group)
    pairs = [("A" * length, "A" * length) for length in lengths]
    stats = engine.scheduling_stats(pairs)
    assert stats["useful_work"] == sum(
        engine.expected_work(length) for length in lengths
    )
    assert 0.0 < stats["efficiency"] <= 1.0
    assert stats["lockstep_work"] >= stats["useful_work"]
    # A full 150 bp lane costs three word-steps per window; fragments of
    # at most 64 bp cost one.
    assert engine.expected_work(150) == 3 * engine.expected_windows(150)
    assert engine.expected_work(64) == engine.expected_windows(64)
    # With full groups, sorted chunking minimises the sum of group maxima
    # (rearrangement argument), so it never does worse than chunking in
    # input order.  An underfull trailing chunk breaks that guarantee:
    # ascending order puts the *largest* lanes in the full final group
    # (e.g. work [2, 2, 1] in groups of 2: sorted chunks [1, 2] + [2] cost
    # 6, input order [2, 2] + [1] costs 5), so only assert it when the
    # group size divides the batch.
    if len(lengths) % group == 0:
        in_order = lockstep_stats(
            [float(engine.expected_work(length)) for length in lengths], group
        )
        assert stats["efficiency"] >= in_order["efficiency"] - 1e-12


@settings(deadline=None)
@given(
    dna_straddling,
    st.text(alphabet="ACGT", min_size=0, max_size=20),
    st.integers(min_value=1, max_value=4),
)
def test_match_run_length_equals_bitwise_walk(pattern, noise, k):
    # The skip-ahead walk's run helper (behind match_run_length) must
    # count exactly the consecutive legal-match bits the per-step walk
    # would consume: run(j, d, i) == number of t >= 0 with M legal at
    # (j - t, d, i - t).  Patterns straddle 64-bit words by construction,
    # so runs crossing the i % 64 == 0 stitch are exercised.
    # The pair is lane 1, behind a failing lane of k + 2 rows, so the runs
    # are read from a block at a non-zero slot base.
    text = pattern[: len(pattern) // 2] + noise
    state = run_dc_wave_state(lane_wave([_failing_lane(k), (pattern, text, k)]))
    decisions = build_wave_decisions([(state, state.rows_computed)])
    assert decisions.base[1] == k + 2
    m, n = len(pattern), len(text)
    rows = int(state.rows_computed[1])
    probe_bits = sorted(
        {0, 1, m - 1} | {b for b in (62, 63, 64, 65, 127, 128, 129) if b < m}
    )
    for d in range(rows):
        for j in range(1, n + 1):
            for i in probe_bits:
                brute = 0
                while (
                    i - brute >= 0
                    and j - brute >= 1
                    and decisions.bit("M", 1, d, j - brute, i - brute)
                ):
                    brute += 1
                assert decisions.match_run_length(1, d, j, i) == brute, (d, j, i)


# --------------------------------------------------------------------------- #
# Generated waves for the DC kernel: lanes of mixed widths (straddling the
# 64- and 128-bit word boundaries), texts that end before, at or past their
# pattern, non-ACGT input, budgets from 0 to m, and any store_from column.
# --------------------------------------------------------------------------- #
@st.composite
def _dc_lane(draw, alphabet):
    """One lane ``(pattern, text, k, store_from)`` over ``alphabet``."""
    m = draw(
        st.one_of(
            st.sampled_from((63, 64, 65, 128, 129)), st.integers(min_value=1, max_value=150)
        )
    )
    pattern = draw(st.text(alphabet=alphabet, min_size=m, max_size=m))
    if draw(st.booleans()):
        # A mutated and/or truncated copy of the pattern, 1..m+20 characters.
        text = list(pattern)
        edits = st.tuples(
            st.sampled_from("sid"), st.integers(min_value=0), st.sampled_from(alphabet)
        )
        for op, position, char in draw(st.lists(edits, max_size=m // 6 + 1)):
            position %= len(text) + 1
            if op == "i" or not text:
                text.insert(position, char)
            elif op == "s":
                text[min(position, len(text) - 1)] = char
            else:
                del text[min(position, len(text) - 1)]
        text += draw(st.text(alphabet=alphabet, max_size=20))
        text = "".join(text)[: draw(st.integers(min_value=1, max_value=m + 20))]
        text = text or alphabet[0]
    else:
        text = draw(st.text(alphabet=alphabet, min_size=1, max_size=12))
    k = draw(st.integers(min_value=0, max_value=m))
    store_from = draw(st.integers(min_value=0, max_value=len(text)))
    return pattern, text, k, store_from


@st.composite
def _dc_wave(draw):
    alphabet = draw(st.sampled_from(("ACGT", "ACGTN", "ACGTacgt")))
    return draw(st.lists(_dc_lane(alphabet), min_size=1, max_size=6))


@settings(deadline=None)
@given(_dc_wave())
def test_generated_dc_waves_equal_scalar_genasm_dc(lanes):
    tables = run_dc_wave_state(lane_wave(lanes)).tables()
    for got, (pattern, text, k, store_from) in zip(tables, lanes):
        want = genasm_dc(pattern, text, k, store_from_column=store_from)
        assert_same_dc_table(got, want, (pattern, text, k, store_from))

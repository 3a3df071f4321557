"""Lockstep GenASM-TB: vectorized traceback over a whole windowing step.

The scalar traceback (:func:`repro.core.genasm_tb.genasm_traceback`) walks
one window at a time, evaluating the four decision predicates
(:func:`repro.core.genasm_tb.traceback_conditions`) with Python-int bit
queries at every step.  For a wave that cost dominates the batch engine —
profiling puts 2-3× more time in per-lane traceback than in the lockstep
DC kernel.  This module removes that scalar hot path in two moves:

1. **Decision words** (:func:`build_wave_decisions`): for every lane, error
   level ``d`` and text column ``j`` the walk can reach, the four
   predicates are evaluated for *all* pattern bits ``i`` at once and packed
   into ``W`` ``uint64`` words per (operation, d, j).  A walk that starts
   at ``min_errors = e`` only reads rows ``0..e``, so each lane gets one
   block of ``e + 1`` consecutive *row slots* and nothing else: bit
   ``i % 64`` of word ``i // 64`` of ``planes[0, ·, base[lane] + d, j]`` is
   set iff a match step is legal at ``(j, d, i)``.  A windowing step's
   lanes may have been solved by either of its two DC waves: the base
   attempt, or the budget retry, whose wave carries the budget of the
   ladder rung that solved each lane.  Each block is derived from the
   full-width rows its own wave stored, masked through that wave's
   :meth:`repro.batch.soa.SoAWave.zero_view_mask`, so it encodes exactly
   the decisions the scalar predicates would take over the scalar path's
   band-packed, reachability-pruned storage for the solving budget.  Each
   plane's ``<< 1`` is a multi-word shift: bit 63 of word ``w`` carries
   into bit 0 of word ``w + 1``, which is precisely the cross-word
   predicate stitched at pattern bits ``i`` with ``i % 64 == 0``.
2. **Lockstep walk** (:func:`lockstep_traceback`): the live lanes
   advance their traceback cursor ``(j, d, i)`` together, one NumPy step
   per *emitted run* — each step gathers the word ``i // 64`` of slot
   ``base + d`` of each lane's planes.  The walk carries cursor state for
   live lanes only and compacts it whenever a lane exhausts its pattern
   budget, so a step costs only what the lanes still walking cost; the
   finished lanes a GPU warp would idle on
   (:func:`repro.batch.soa.lockstep_stats`) are not carried.
3. **Match-run skip-ahead**: when a lane's chosen op is ``M``, the walk
   consumes the *entire* run of consecutive matches in that one step.  A
   match step moves ``(j-1, i-1)`` at fixed ``d``, so the run lies on a
   diagonal of the ``(j, i)`` grid: :func:`_match_runs` reads bit
   ``i - t`` of column ``j - t`` of the lane's own match-plane slot for
   ``t = 0, 1, …``, gathered 64 positions at a time for the lanes that
   chose ``M`` only, until each run ends (at an unset bit, at bit ``-1``,
   or at column 0, which every plane leaves zero).  Cursor, emitted
   opcode run, ``tb_steps`` and ``dp_reads`` all advance by the whole run
   at once, cutting walk steps ~4× at the 10-15 % error rates the paper
   evaluates.  ``M`` leads the ``MSDI`` tie-break order, so a legal match
   is always the chosen op and the diagonal bit run is exactly the scalar
   loop's op sequence.

The walk serves the one configuration the batch engine runs: entry
compression (one stored ``R`` word per entry, from which the four
predicates are re-derived), early termination, the traceback band and the
``MSDI`` order.  The scalar traceback keeps quad storage and every
tie-break order for the baseline and ablation alignments, which run on
:class:`repro.core.aligner.GenASMAligner`.

Equivalence contract
--------------------
The walk is byte-identical to the scalar traceback, including the E-series
accounting: ``tb_steps`` is one per emitted operation, and ``dp_reads``
replicates the short-circuit evaluation order of the scalar priority loop
(a condition evaluated but false still paid its read; a ``bit < 0`` probe
or a ``d < 1`` guard never reached the stored table).  The batch engine
charges both, with ``bytes_read`` at the solving wave's entry size, to
each pair's counter.  The differential test harness
(``tests/test_batch_traceback.py``) asserts this per-field on the default
and short-read configurations and across window widths spanning 1-3
words per lane; the cross-word carry itself is property-tested against the
scalar predicates in ``tests/test_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.batch.soa import MAX_LANE_BITS
from repro.core.cigar import CigarOp
from repro.core.genasm_tb import TracebackError

if TYPE_CHECKING:
    from repro.batch.engine import WaveDCState

__all__ = [
    "OPS_BY_CODE",
    "WaveDecisions",
    "LaneTraceback",
    "build_wave_decisions",
    "lockstep_traceback",
]

_U1 = np.uint64(1)
_U63 = np.uint64(MAX_LANE_BITS - 1)

#: Match-run positions gathered per lane and probe: a run of ``r`` matches
#: costs ``r // 64 + 1`` gathers of 64 words.
_RUN_CHUNK = 64
_RUN_OFFSETS = np.arange(_RUN_CHUNK, dtype=np.int64)

#: Fixed op codes used in the packed opcode buffer.
_CODE_BY_LETTER = {"M": 0, "S": 1, "I": 2, "D": 3}
OPS_BY_CODE = np.array(
    [CigarOp.MATCH, CigarOp.MISMATCH, CigarOp.INSERTION, CigarOp.DELETION],
    dtype=object,
)


@dataclass
class WaveDecisions:
    """Packed decision words for the rows each traced lane can reach.

    A walk that starts at error level ``e`` only ever reads rows ``0..e``,
    so each lane holds one block of ``rows[lane]`` consecutive *row slots*
    starting at slot ``base[lane]``: slot ``base[lane] + d`` carries row
    ``d`` of the DC wave that filled the block.  ``planes`` stacks one
    plane per operation in the fixed M, S, I, D order of
    :data:`OPS_BY_CODE`, shape ``(4, W, slots, n_max + 1)`` (``W`` = words
    per lane, ``slots = rows.sum()``); bit ``i % 64`` of word ``i // 64`` of
    ``planes[op, ·, base[lane] + d, j]`` says that operation (match /
    substitution / insertion / deletion) is a legal traceback step at
    ``(j, d, i)`` for that lane.  ``char_eq`` (``(W, lanes, n_max + 1)``)
    has pattern bit ``i`` set iff ``pattern[i]`` equals ``text[j - 1]``;
    the walk uses it to replicate the scalar read accounting (the match
    predicate only touches the stored table when the characters actually
    match).  Column 0 of every plane is zero — the walk handles
    ``j == 0`` as the unconditional-insertion branch, exactly like the
    scalar loop, and a match run read by :func:`_match_runs` ends there.
    """

    planes: np.ndarray
    char_eq: np.ndarray
    #: first slot and row count of each lane's block, ``(lanes,)`` int64
    base: np.ndarray
    rows: np.ndarray
    #: pattern and text length of each lane's window, ``(lanes,)`` int64
    m: np.ndarray
    n: np.ndarray

    @property
    def lanes(self) -> int:
        return self.base.size

    def plane(self, letter: str) -> np.ndarray:
        """The decision plane for one priority letter (M/S/I/D)."""
        return self.planes["MSID".index(letter)]

    def slot(self, lane: int, d: int) -> int:
        """Slot of row ``d`` of ``lane``; a row the lane does not hold raises."""
        if not 0 <= d < self.rows[lane]:
            raise IndexError(
                f"lane {lane} holds rows 0..{int(self.rows[lane]) - 1}, not row {d}"
            )
        return int(self.base[lane]) + d

    def bit(self, letter: str, lane: int, d: int, j: int, i: int) -> bool:
        """Scalar probe of one decision bit (used by the differential tests)."""
        word = int(self.plane(letter)[i // MAX_LANE_BITS, self.slot(lane, d), j])
        return bool((word >> (i % MAX_LANE_BITS)) & 1)

    def match_run_length(self, lane: int, d: int, j: int, i: int) -> int:
        """Scalar probe: legal-match run length starting at ``(j, d, i)``.

        The number of match steps ``(j, i), (j-1, i-1), …`` at row ``d``
        that are all legal, counted by :func:`_match_runs` — the helper
        the skip-ahead walk calls — for this one cursor; the property
        tests compare it with a bit-by-bit walk.
        """
        slot = np.array([self.slot(lane, d)])
        return int(_match_runs(self.planes[0], slot, np.array([j]), np.array([i]))[0])


def _match_runs(
    match: np.ndarray, slot: np.ndarray, j: np.ndarray, i: np.ndarray
) -> np.ndarray:
    """Legal-match run length from each cursor ``(j[k], slot[k], i[k])``.

    ``match`` is a ``(W, slots, cols)`` match plane.  Counts, per cursor,
    the ``t = 0, 1, …`` for which bit ``i - t`` of column ``j - t`` of its
    slot is set — the diagonal a run of match steps follows, crossing a
    word boundary wherever ``i - t`` does.  A bit ``i - t < 0`` counts as
    unset, and column 0 of every plane is zero, so no run passes
    ``j = 1``; gathers clamp to column 0 there.  Positions are gathered
    :data:`_RUN_CHUNK` at a time, and only cursors whose run filled the
    whole chunk read the next one.
    """
    _words, slots, cols = match.shape
    flat = match.reshape(-1)
    word_stride = slots * cols
    run = np.zeros(slot.size, dtype=np.int64)
    open_ = np.arange(slot.size)
    row = slot * cols
    while open_.size:
        bit = (i[open_] - run[open_])[:, None] - _RUN_OFFSETS
        col = np.maximum((j[open_] - run[open_])[:, None] - _RUN_OFFSETS, 0)
        words = flat[(np.maximum(bit, 0) >> 6) * word_stride + row[open_, None] + col]
        set_ = ((words >> (bit & 63).astype(np.uint64)) & _U1).astype(bool) & (bit >= 0)
        # The first unset position ends the run; argmin finds it, and
        # lands on a set position only when the whole chunk is set.
        first = set_.argmin(axis=1)
        full = set_[np.arange(open_.size), first]
        run[open_] += np.where(full, _RUN_CHUNK, first)
        open_ = open_[full]
    return run


def _shl1_or1(zero: np.ndarray) -> np.ndarray:
    """Multi-word ``(zero << 1) | 1`` with cross-word carry.

    The "bit ``i - 1``, with bit ``-1`` always active" indexing of the
    predicates over compressed storage: logical bit 63 of word ``w`` carries
    into bit 0 of word ``w + 1`` (the ``i % 64 == 0`` stitch), and bit 0
    of word 0 is forced on (a ``bit < 0`` probe is always active).
    """
    out = zero << _U1
    if out.shape[0] > 1:
        out[1:] |= zero[:-1] >> _U63
    out[0] |= _U1
    return out


def build_wave_decisions(
    blocks: Sequence[Tuple[WaveDCState, np.ndarray]],
) -> WaveDecisions:
    """Lay out the decision words of the rows a lockstep walk can reach.

    ``blocks`` pairs each DC wave's state with a per-lane row count: lane
    ``l`` of that wave gets a block of its stored rows ``0 .. rows[l] - 1``
    (``min_errors + 1`` rows for a lane walked from ``min_errors``), and a
    lane with no rows — one whose budget failed — gets none.  The decision
    lanes are the lanes with rows, in block order and then lane order.
    Each block is masked through its own wave's
    :meth:`~repro.batch.soa.SoAWave.zero_view_mask`, so the band packing
    and reachability pruning are that wave's budget's, and the block
    reproduces, for every ``(d, j, i)``, the verdicts of
    :func:`repro.core.genasm_tb.traceback_conditions` over the scalar
    path's stored state.
    """
    parts = []
    for state, rows in blocks:
        rows = np.asarray(rows, dtype=np.int64)
        traced = np.nonzero(rows > 0)[0]
        if traced.size:
            parts.append((state, traced, rows[traced]))
    lane_rows = np.concatenate([rows for _state, _traced, rows in parts])
    base = np.cumsum(lane_rows) - lane_rows
    L, slots = lane_rows.size, int(lane_rows.sum())
    W = max(state.wave.words for state, _traced, _rows in parts)
    cols = max(state.wave.n_max for state, _traced, _rows in parts) + 1
    # Slot s holds row slot_row[s] of decision lane slot_lane[s].
    slot_lane = np.repeat(np.arange(L), lane_rows)
    slot_row = np.arange(slots) - base[slot_lane]

    planes = np.zeros((4, W, slots, cols), dtype=np.uint64)
    char_eq = np.zeros((W, L, cols), dtype=np.uint64)
    # The zero-bit view of each slot's stored R.
    zero = np.zeros((W, slots, cols), dtype=np.uint64)
    lane_end = slot_end = 0
    for state, traced, rows in parts:
        wave = state.wave
        words, wave_cols = wave.words, wave.n_max + 1
        # One wave's blocks are consecutive lanes and consecutive slots.
        lanes = slice(lane_end, lane_end + traced.size)
        block = slice(slot_end, slot_end + int(rows.sum()))
        lane_end, slot_end = lanes.stop, block.stop
        char_eq[:words, lanes, 1:wave_cols] = (~wave.masks[:, traced]) & wave.ones[
            :, traced, None
        ]
        row, source = slot_row[block], np.repeat(traced, rows)
        # Bits the scalar accessors could ever report as active: inside the
        # lane's pattern, a persisted column, and the band this wave's
        # budget stores.
        active = wave.zero_view_mask()[:, source]
        # Row row[s] of lane source[s], word axis first: (W, slots, cols).
        stored = np.moveaxis(state.stored_rows, 0, -3)[..., row, source, :]
        zero[:words, block, :wave_cols] = ~stored & active

    # One stored R word per entry; the four conditions re-derive their
    # verdicts from neighbouring R entries, shifted so bit i of the
    # plane asks about bit i-1 of R (with bit -1 always active).  Past
    # a block's first slot, slot s - 1 holds row d - 1 of the same lane.
    cm, cs, ci, cd = planes
    shifted = _shl1_or1(zero)
    np.bitwise_and(char_eq[:, slot_lane, 1:], shifted[:, :, :-1], out=cm[:, :, 1:])
    cs[:, 1:, 1:] = shifted[:, :-1, :-1]
    ci[:, 1:, 1:] = shifted[:, :-1, 1:]
    cd[:, 1:, 1:] = zero[:, :-1, :-1]
    # A block's row 0 has no subst/ins/del steps (d < 1).
    planes[1:, :, base] = 0

    return WaveDecisions(
        planes=planes,
        char_eq=char_eq,
        base=base,
        rows=lane_rows,
        m=np.concatenate([state.wave.m[traced] for state, traced, _rows in parts]),
        n=np.concatenate([state.wave.n[traced] for state, traced, _rows in parts]),
    )


@dataclass
class LaneTraceback:
    """Traceback of one lane: CIGAR op codes plus the consumed window spans.

    ``codes`` holds one entry of :data:`OPS_BY_CODE` indices per emitted
    operation, in traceback order; :meth:`ops` materialises
    :class:`~repro.core.cigar.CigarOp` objects when a caller needs them
    (the batch engine instead run-length encodes the raw codes).  The
    scalar traceback would charge ``codes.size`` ``tb_steps`` and
    ``dp_reads`` stored-entry reads for the same window.
    """

    codes: np.ndarray
    text_stop: int
    pattern_consumed: int
    dp_reads: int
    #: lockstep iterations this lane stayed live for — equals the emitted
    #: op count without skip-ahead, fewer with it (``tb_steps`` minus
    #: ``walk_steps`` is the walk-steps-saved stat)
    walk_steps: int = 0
    #: match runs consumed whole by skip-ahead, and the ops they covered
    match_runs: int = 0
    match_run_ops: int = 0

    def ops(self) -> List[CigarOp]:
        """The emitted operations as ``CigarOp`` objects."""
        return OPS_BY_CODE[self.codes].tolist()


def _probe_reads(pos: int, gates: int) -> int:
    """DP reads of the scalar ``MSDI`` loop evaluating positions ``0..pos``.

    ``gates = char * 4 + (d >= 1) * 2 + (i >= 1)``: the match probe reads
    the stored table only when the characters match and ``i >= 1``, the
    substitution and insertion probes need ``d >= 1`` and ``i >= 1``, and
    the deletion probe ``d >= 1``.
    """
    char, d_ge1, i_ge1 = gates >> 2 & 1, gates >> 1 & 1, gates & 1
    by_position = (char & i_ge1, d_ge1 & i_ge1, d_ge1, d_ge1 & i_ge1)  # M, S, D, I
    return sum(by_position[: min(pos, 3) + 1])


#: The walk's step tables, which fold the scalar ``MSDI`` loop (first true
#: condition wins) and its short-circuit read accounting into three tiny
#: gathers per step.  ``key = b0*8 + b1*4 + b2*2 + b3`` packs the four
#: condition bits in priority order (plane p of the fixed M, S, I, D
#: storage order weighs ``_KEY_WEIGHTS[p]``); ``_POS[key]`` is the first
#: true position (4 if none), ``_CODE[key]`` the fixed op code of its
#: letter (an insertion if none) and ``_READS[pos * 8 + gates]`` the reads
#: of :func:`_probe_reads`.
_KEY_WEIGHTS = np.array([8, 4, 1, 2], dtype=np.uint64)[:, None]
_POS = np.array([4 - key.bit_length() for key in range(16)], dtype=np.uint64)
_CODE = np.array([_CODE_BY_LETTER[letter] for letter in "MSDII"], dtype=np.int64)[_POS]
_READS = np.array(
    [_probe_reads(pos, gates) for pos in range(5) for gates in range(8)], dtype=np.int64
)


#: Cursor deltas per op code (M, S, I, D): text column, error level,
#: pattern bit/consumed columns.
_DELTA_J = np.array([1, 1, 0, 1], dtype=np.int64)
_DELTA_D = np.array([0, 1, 1, 1], dtype=np.int64)
_DELTA_I = np.array([1, 1, 1, 0], dtype=np.int64)


def lockstep_traceback(
    decisions: WaveDecisions,
    *,
    budgets: np.ndarray,
) -> List[LaneTraceback]:
    """Walk every lane of ``decisions`` back in lockstep NumPy steps.

    Each lane starts at its last text column and pattern bit, on the top
    row of its block (``rows - 1``, the ``min_errors`` of the DC wave that
    solved it), and every read goes to its own block's slots.  Only lanes
    still walking are carried: their cursor state is compacted whenever
    one finishes (module docstring item 2).

    Parameters
    ----------
    budgets:
        Per-lane ``max_pattern_columns`` (the committed window columns);
        clamped to the lane's pattern length, as the scalar traceback does.

    Ties break in the ``MSDI`` order, and the walk consumes whole match
    runs per step (module docstring item 3).

    Each result carries exactly the ``tb_steps`` (one per emitted op) and
    ``dp_reads`` the scalar traceback would have charged for the same
    window — skipped match steps included (each skipped step re-charges
    the match probe's read under the same gate the scalar loop applies).
    """
    L = decisions.lanes
    m, n = decisions.m, decisions.n
    budget = np.minimum(m, np.asarray(budgets, dtype=np.int64))
    # Any valid traceback is shorter than this (the scalar loop's guard).
    max_steps = int((2 * (m + n) + 4).max()) if L else 0
    # One opcode row per iteration plus a parallel run-length row, each
    # step scattering into the columns of the lanes still walking: with
    # skip-ahead lanes desynchronize (one lane's iteration may emit a
    # 12-op match run while another emits a single deletion), so a lane's
    # traceback is its opcode column expanded by its count column (zero
    # counts — iterations after the lane finished — contribute nothing).
    opcodes = np.zeros((max_steps + 1, L), dtype=np.int8)
    opcounts = np.zeros((max_steps + 1, L), dtype=np.int64)
    # Where each lane stopped, written as it finishes; a lane that never
    # starts (empty pattern or zero budget) keeps these.
    text_stop = n.copy()
    pattern_consumed = np.zeros(L, dtype=np.int64)
    dp_reads = np.zeros(L, dtype=np.int64)

    # Flat-index views of the planes (no copies).  A lane's cursor bit i
    # selects word i // 64 of its entries (the multi-word lane layout),
    # and its error level d the slot base + d of its block.
    slots, cols = decisions.planes.shape[2:]
    planes_flat = decisions.planes.reshape(4, -1)
    char_flat = decisions.char_eq.reshape(-1)
    word_stride = slots * cols
    char_word_stride = L * cols

    # Cursor state of the live lanes only, one row per field, compacted
    # together whenever lanes finish; the names below are views of its rows.
    start = np.nonzero((m > 0) & (budget > 0))[0]
    state = np.stack(
        [
            start,
            n[start],
            m[start] - 1,
            decisions.rows[start] - 1,
            np.zeros(start.size, dtype=np.int64),
            budget[start],
            decisions.base[start],
            np.zeros(start.size, dtype=np.int64),
            start * cols,
        ]
    )
    lanes, j, i, d, consumed, lane_budget, base, reads, lane_cols = state
    step = 0

    while lanes.size:
        if step > max_steps:
            raise TracebackError("traceback did not terminate (internal error)")

        # Clamped plane coordinates: j == 0 lanes (whose verdict is
        # overridden below) read a harmless word.
        jq = np.maximum(j, 1)
        slot = base + np.maximum(d, 0)
        wq = i >> 6
        shift = (i & 63).astype(np.uint64)

        words = planes_flat[:, wq * word_stride + slot * cols + jq]  # (4, live)
        bits = (words >> shift) & _U1
        char_bit = (char_flat[wq * char_word_stride + lane_cols + jq] >> shift) & _U1
        key = (bits * _KEY_WEIGHTS).sum(axis=0)

        at0 = j == 0
        bad = ~at0 & (key == 0)
        if bad.any():
            k = int(np.argmax(bad))
            raise TracebackError(
                f"no traceback step possible at text={int(j[k])}, "
                f"errors={int(d[k])}, bit={int(i[k])}"
            )

        # Read accounting for the scalar priority loop, via the LUT over
        # (first-true position, gate bits).
        gates = char_bit * np.uint64(4) + (d >= 1) * np.uint64(2) + (i >= 1) * _U1
        reads += np.where(at0, 0, _READS[_POS[key] * np.uint64(8) + gates])

        # j == 0 lanes take the unconditional-insertion branch, which is
        # the same cursor update as a chosen "I" step.
        code = np.where(at0, _CODE_BY_LETTER["I"], _CODE[key])

        # M leads the priority, so a legal match is always the chosen op
        # and the diagonal bit run is exactly the op sequence the scalar
        # first-true loop would emit.
        run = np.ones(lanes.size, dtype=np.int64)
        mk = np.nonzero(code == _CODE_BY_LETTER["M"])[0]
        if mk.size:
            # The scalar loop stops mid-run when the pattern budget runs
            # out; clamping replicates its early exit.
            run[mk] = np.minimum(
                _match_runs(decisions.planes[0], slot[mk], j[mk], i[mk]),
                lane_budget[mk] - consumed[mk],
            )
            # Each skipped step re-runs only the match probe (M is first
            # and true); it reads the stored table under the same gate
            # the LUT applies: the step's own i >= 1 (run steps at
            # i-1 .. i-run+1).
            reads[mk] += np.minimum(run[mk] - 1, np.maximum(i[mk] - 1, 0))

        opcodes[step, lanes] = code
        opcounts[step, lanes] = run
        step += 1

        delta_i = _DELTA_I[code] * run
        j -= _DELTA_J[code] * run
        d -= _DELTA_D[code] * run
        i -= delta_i
        consumed += delta_i
        done = (i < 0) | (consumed >= lane_budget)
        if done.any():
            finished = lanes[done]
            text_stop[finished] = j[done]
            pattern_consumed[finished] = consumed[done]
            dp_reads[finished] = reads[done]
            state = state[:, ~done]
            lanes, j, i, d, consumed, lane_budget, base, reads, lane_cols = state

    opcodes, opcounts = opcodes[:step], opcounts[:step]
    walked = opcounts > 0
    # Every M iteration took a match run.
    runs = walked & (opcodes == _CODE_BY_LETTER["M"])
    # Lane-major, one lane's iterations after another: one repeat expands
    # every lane's codes, split at the lanes' op totals.
    ops = opcounts.sum(axis=0)
    codes = np.split(
        np.repeat(opcodes.T.ravel(), opcounts.T.ravel()), np.cumsum(ops)[:-1]
    )
    return [
        LaneTraceback(
            codes=lane_codes,
            text_stop=stop,
            pattern_consumed=consumed_i,
            dp_reads=reads_i,
            walk_steps=steps_i,
            match_runs=runs_i,
            match_run_ops=run_ops_i,
        )
        for lane_codes, stop, consumed_i, reads_i, steps_i, runs_i, run_ops_i in zip(
            codes,
            text_stop.tolist(),
            pattern_consumed.tolist(),
            dp_reads.tolist(),
            walked.sum(axis=0).tolist(),
            runs.sum(axis=0).tolist(),
            (opcounts * runs).sum(axis=0).tolist(),
        )
    ]

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
   lanes may have been solved by different DC waves (the budget ladder's
   attempts); each block is derived from the full-width rows its own wave
   stored, masked through that wave's
   :meth:`repro.batch.soa.SoAWave.zero_view_mask`, so it encodes exactly
   the decisions the scalar predicates would take over the scalar path's
   band-packed, reachability-pruned storage for that budget.  Each plane's
   ``<< 1`` is a multi-word shift: bit 63 of word ``w`` carries into bit 0
   of word ``w + 1``, which is precisely the cross-word predicate stitched
   at pattern bits ``i`` with ``i % 64 == 0``.
2. **Lockstep walk** (:func:`lockstep_traceback`): all live lanes advance
   their traceback cursor ``(j, d, i)`` together, one NumPy step per
   *emitted run* — each step gathers the word ``i // 64`` of slot
   ``base + d`` of each lane's planes — and a lane that exhausts its
   pattern budget drops out of the active mask, mirroring the warp model
   of :func:`repro.batch.soa.lockstep_stats`.
3. **Match-run skip-ahead**: when a lane's chosen op is ``M`` and ``M``
   leads the priority order, the walk consumes the *entire* run of
   consecutive matches in that one step.  A match step moves ``(j-1,
   i-1)`` at fixed ``d``, so the run lies on a diagonal of the ``(j, i)``
   grid; :func:`_diagonal_pack` shears the match plane — its reachable
   slots only — so each diagonal becomes one column of packed words
   (``c = j - i + 64·W - 1``), and the run length is a multi-word
   countdown of consecutive set bits walking down from bit ``i`` —
   crossing the ``i % 64 == 0`` word boundary into bit 63 of the word
   below.  Cursor, emitted opcode run, ``tb_steps`` and ``dp_reads`` all
   advance by the whole run at once, cutting walk steps ~4× at the
   10-15 % error rates the paper evaluates.  Runs are only taken when
   ``M`` is the *first* priority letter (the GenASM default): a legal
   match then is always the chosen op, so the diagonal bit run is exactly
   the scalar loop's op sequence; any other priority degrades to one
   column per step, byte-identically.

Equivalence contract
--------------------
The walk is byte-identical to the scalar traceback, including the E-series
accounting: ``tb_steps`` is one per emitted operation, and ``dp_reads``
replicates the short-circuit evaluation order of the scalar priority loop
(a condition evaluated but false still paid its read; a ``bit < 0`` probe
or a ``d < 1`` guard never reached the stored table).  The batch engine
charges both, with ``bytes_read`` at the solving wave's entry size, to
each pair's counter.  The differential test harness
(``tests/test_batch_traceback.py``) asserts this per-field across every
improvement-toggle combination and across window widths spanning 1-3
words per lane; the cross-word carry itself is property-tested against the
scalar predicates in ``tests/test_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

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

_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U63 = np.uint64(MAX_LANE_BITS - 1)

#: ``_LOW_ONES[c]`` has the ``c`` low bits set (``c`` in 0..64).
_LOW_ONES = np.array(
    [(1 << c) - 1 for c in range(MAX_LANE_BITS + 1)], dtype=np.uint64
)

#: Shear stages of :func:`_diagonal_pack`: at stage ``s`` every bit whose
#: index has the ``s`` component set moves ``s`` columns left, so a bit at
#: index ``b`` moves ``b`` columns in total.
_SHEAR_STAGES = [
    (
        s,
        np.uint64(sum(1 << b for b in range(MAX_LANE_BITS) if b & s)),
        np.uint64(sum(1 << b for b in range(MAX_LANE_BITS) if not b & s)),
    )
    for s in (1, 2, 4, 8, 16, 32)
]

if hasattr(np, "bitwise_count"):

    def _popcount(values: np.ndarray) -> np.ndarray:
        return np.bitwise_count(values)

else:  # NumPy < 2.0: SWAR popcount over uint64

    def _popcount(values: np.ndarray) -> np.ndarray:
        v = values - ((values >> _U1) & np.uint64(0x5555555555555555))
        v = (v & np.uint64(0x3333333333333333)) + (
            (v >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return (v * np.uint64(0x0101010101010101)) >> np.uint64(56)


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Per-element ``int.bit_length`` of a uint64 array (0 for 0)."""
    v = values.copy()
    for s in (1, 2, 4, 8, 16, 32):
        v |= v >> np.uint64(s)
    return _popcount(v).astype(np.int64)

#: Fixed op codes used in the packed opcode buffer (independent of priority).
_CODE_BY_LETTER = {"M": 0, "S": 1, "I": 2, "D": 3}
OPS_BY_CODE = np.array(
    [CigarOp.MATCH, CigarOp.MISMATCH, CigarOp.INSERTION, CigarOp.DELETION],
    dtype=object,
)


def _diagonal_pack(plane: np.ndarray) -> np.ndarray:
    """Shear a ``(W, slots, cols)`` plane into diagonal-packed words.

    In the output, bit ``b`` of word ``w`` at column ``c`` equals bit ``b``
    of word ``w`` at text column ``j = c - (64·W - 1) + 64·w + b`` of the
    input — i.e. column ``c = j - g + 64·W - 1`` collects, at bit position
    ``g``, the plane bit for cursor ``(j, i=g)``.  A match step moves the
    cursor ``(j-1, i-1)``, keeping ``c`` fixed, so a run of legal matches
    is a run of consecutive set bits walking *down* one diagonal column,
    crossing word boundaries at ``i % 64 == 0``.

    Built as a base placement (per-word constant column offset for the
    ``64·w`` part) plus six shear stages (bits whose index has the ``s``
    component move ``s`` columns), so the transform costs O(log₂ 64) full
    array passes rather than one pass per bit.
    """
    W, slots, cols = plane.shape
    total_bits = W * MAX_LANE_BITS
    out = np.zeros((W, slots, cols + total_bits - 1), dtype=np.uint64)
    for w in range(W):
        off = total_bits - 1 - MAX_LANE_BITS * w
        out[w, :, off : off + cols] = plane[w]
    for s, mask, inv_mask in _SHEAR_STAGES:
        moved = out & mask
        out &= inv_mask
        out[..., :-s] |= moved[..., s:]
    return out


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
    match).  Column 0 of every plane is unused — the walk handles
    ``j == 0`` as the unconditional-insertion branch, exactly like the
    scalar loop.
    """

    planes: np.ndarray
    char_eq: np.ndarray
    #: first slot and row count of each lane's block, ``(lanes,)`` int64
    base: np.ndarray
    rows: np.ndarray
    #: pattern and text length of each lane's window, ``(lanes,)`` int64
    m: np.ndarray
    n: np.ndarray
    compressed: bool
    #: lazily built diagonal-packed match plane in the same slot layout
    #: (see :func:`_diagonal_pack`); built on the first skip-ahead walk or
    #: :meth:`match_run_length` probe and reused by later probes
    _match_diag: Optional[np.ndarray] = None

    @property
    def lanes(self) -> int:
        return self.base.size

    @property
    def words(self) -> int:
        return self.planes.shape[1]

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

    def match_diag(self) -> np.ndarray:
        """The diagonal-packed match plane, built lazily and cached."""
        if self._match_diag is None:
            self._match_diag = _diagonal_pack(self.planes[0])
        return self._match_diag

    def match_run_length(self, lane: int, d: int, j: int, i: int) -> int:
        """Scalar probe: legal-match run length starting at ``(j, d, i)``.

        Counts consecutive set bits of the diagonal-packed match plane
        walking down from bit ``i`` (crossing ``i % 64 == 0`` word
        boundaries), i.e. the number of match steps ``(j, i), (j-1, i-1),
        …`` that are all legal.  Reference implementation for the
        vectorized countdown inside :func:`lockstep_traceback`; the
        property tests compare the two.
        """
        slot = self.slot(lane, d)
        diag = self.match_diag()
        c = j - i + self.words * MAX_LANE_BITS - 1
        run = 0
        w, b = i // MAX_LANE_BITS, i % MAX_LANE_BITS
        while w >= 0:
            word = int(diag[w, slot, c])
            unset = (~word) & ((1 << (b + 1)) - 1)
            if unset:
                return run + (b - unset.bit_length() + 1)
            run += b + 1
            w -= 1
            b = MAX_LANE_BITS - 1
        return run


def _shl1_or1(zero: np.ndarray) -> np.ndarray:
    """Multi-word ``(zero << 1) | 1`` with cross-word carry.

    The "bit ``i - 1``, with bit ``-1`` always active" indexing of the
    compressed-storage predicates: logical bit 63 of word ``w`` carries
    into bit 0 of word ``w + 1`` (the ``i % 64 == 0`` stitch), and bit 0
    of word 0 is forced on (a ``bit < 0`` probe is always active).
    """
    out = zero << _U1
    if out.shape[0] > 1:
        out[1:] |= zero[:-1] >> _U63
    out[0] |= _U1
    return out


def _gather(
    rows: Sequence[np.ndarray], row: np.ndarray, lane: np.ndarray
) -> np.ndarray:
    """Slot ``s`` holds ``rows[row[s]][:, lane[s]]``: ``(W, slots, cols)``
    out of per-row ``(W, lanes, cols)`` arrays."""
    return np.stack(rows)[row, :, lane].transpose(1, 0, 2)


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
    path's stored state.  Every state must share one storage mode.
    """
    modes = {state.entry_compression for state, _rows in blocks}
    if len(modes) != 1:
        raise ValueError("decision blocks need exactly one storage mode")
    (compressed,) = modes
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
    # With entry compression, the zero-bit view of each slot's stored R.
    zero = np.zeros((W, slots, cols), dtype=np.uint64) if compressed else None
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
        # lane's pattern, a persisted column, and (with banding) the band
        # this wave's budget stores.
        active = wave.zero_view_mask()[:, source]
        stored = state.stored_rows[: int(rows.max())]
        if compressed:
            zero[:words, block, :wave_cols] = ~_gather(stored, row, source) & active
            continue
        # Quad storage keeps the four already-shifted intermediates of row d
        # at column j, so each plane is a direct zero-bit view of one
        # stored vector.
        for plane, component in zip(planes, zip(*stored)):
            plane[:words, block, 1:wave_cols] = (
                ~_gather(component, row, source) & active[..., 1:]
            )

    if compressed:
        # One stored R word per entry; the four conditions re-derive their
        # verdicts from neighbouring R entries, shifted so bit i of the
        # plane asks about bit i-1 of R (with bit -1 always active).  Past
        # a block's first slot, slot s - 1 holds row d - 1 of the same lane.
        cm, cs, ci, cd = planes
        shifted = _shl1_or1(zero)
        np.bitwise_and(
            char_eq[:, slot_lane, 1:], shifted[:, :, :-1], out=cm[:, :, 1:]
        )
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
        compressed=compressed,
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


#: Cache of per-(priority, compressed) step lookup tables; the walk folds
#: the scalar priority loop (first true condition wins) and its
#: short-circuit read accounting into three tiny gathers per step.
_STEP_LUTS: dict = {}


def _step_luts(priority: str, compressed: bool):
    """(POS, CODE, READS) lookup tables for one priority/storage mode.

    ``key = b0*8 + b1*4 + b2*2 + b3`` packs the four condition bits in
    priority order; ``POS[key]`` is the first true position (4 if none) and
    ``CODE[key]`` the fixed op code of that letter.  ``READS[pos * 8 + g]``
    — with gate bits ``g = char*4 + (d>=1)*2 + (i>=1)`` — counts the DP
    reads the scalar loop performs evaluating positions ``0..pos``:
    a compressed match probe reads only when the characters match and
    ``i >= 1``; compressed subst/ins probes need ``d >= 1`` and ``i >= 1``;
    deletion (and every quad-mode probe) needs only ``d >= 1``; quad-mode
    match always reads.
    """
    cached = _STEP_LUTS.get((priority, compressed))
    if cached is not None:
        return cached

    pos_lut = np.full(16, 4, dtype=np.uint64)
    code_lut = np.full(16, _CODE_BY_LETTER["I"], dtype=np.int64)
    for key in range(16):
        for pos in range(4):
            if key & (8 >> pos):
                pos_lut[key] = pos
                code_lut[key] = _CODE_BY_LETTER[priority[pos]]
                break

    def gate(letter: str, char: bool, dge1: bool, ige1: bool) -> bool:
        if compressed:
            if letter == "M":
                return char and ige1
            if letter == "D":
                return dge1
            return dge1 and ige1
        return True if letter == "M" else dge1

    reads_lut = np.zeros(5 * 8, dtype=np.int64)
    for pos in range(5):
        for g in range(8):
            char, dge1, ige1 = bool(g & 4), bool(g & 2), bool(g & 1)
            evaluated = priority[: min(pos, 3) + 1]
            reads_lut[pos * 8 + g] = sum(
                gate(letter, char, dge1, ige1) for letter in evaluated
            )

    luts = (pos_lut, code_lut, reads_lut)
    _STEP_LUTS[(priority, compressed)] = luts
    return luts


#: Cursor deltas per op code (M, S, I, D): text column, error level,
#: pattern bit/consumed columns.
_DELTA_J = np.array([1, 1, 0, 1], dtype=np.int64)
_DELTA_D = np.array([0, 1, 1, 1], dtype=np.int64)
_DELTA_I = np.array([1, 1, 1, 0], dtype=np.int64)


def lockstep_traceback(
    decisions: WaveDecisions,
    *,
    budgets: np.ndarray,
    priority: str = "MSDI",
) -> List[LaneTraceback]:
    """Walk every lane of ``decisions`` back in lockstep NumPy steps.

    Each lane starts at its last text column and pattern bit, on the top
    row of its block (``rows - 1``, the ``min_errors`` of the DC wave that
    solved it), and every read goes to its own block's slots.

    Parameters
    ----------
    budgets:
        Per-lane ``max_pattern_columns`` (the committed window columns);
        clamped to the lane's pattern length, as the scalar traceback does.
    priority:
        Tie-break order over {M, S, D, I}, shared by the whole walk.

    When ``M`` leads ``priority`` the walk consumes whole match runs per
    step (module docstring item 3); otherwise a legal match need not be
    the chosen op and the walk takes one column per step.

    Each result carries exactly the ``tb_steps`` (one per emitted op) and
    ``dp_reads`` the scalar traceback would have charged for the same
    window — skipped match steps included (each skipped step re-charges
    the match probe's read under the same gate the scalar loop applies).
    """
    L = decisions.lanes
    m, n = decisions.m, decisions.n
    j = n.copy()
    i = m - 1
    d = decisions.rows - 1
    budget = np.minimum(m, np.asarray(budgets, dtype=np.int64))
    consumed = np.zeros(L, dtype=np.int64)

    live = (i >= 0) & (consumed < budget)
    # Any valid traceback is shorter than this (the scalar loop's guard).
    max_steps = int((2 * (m + n) + 4).max()) if L else 0
    # One opcode row per iteration (plain row writes beat per-lane
    # scatters) plus a parallel run-length row: with skip-ahead lanes
    # desynchronize (one lane's iteration may emit a 12-op match run while
    # another emits a single deletion), so a lane's traceback is its
    # opcode column expanded by its count column (zero counts — dead or
    # not-yet-started lanes — contribute nothing).
    opcodes = np.zeros((max_steps + 1, L), dtype=np.int8)
    opcounts = np.zeros((max_steps + 1, L), dtype=np.int64)
    niters = np.zeros(L, dtype=np.int64)
    reads = np.zeros(L, dtype=np.int64)
    runs_taken = np.zeros(L, dtype=np.int64)
    run_ops = np.zeros(L, dtype=np.int64)

    pos_lut, code_lut, reads_lut = _step_luts(priority, decisions.compressed)
    # Flat-index views of the planes (no copies).  Plane p (fixed M,S,I,D
    # storage order) contributes key weight 8 >> its-position-in-priority,
    # so `key` packs the condition bits in priority order for the LUTs.
    # A lane's cursor bit i selects word i // 64 of its entries (the
    # multi-word lane layout), and its error level d the slot base + d of
    # its block; for single-word walks the word index is constant zero.
    slots, cols = decisions.planes.shape[2:]
    planes_flat = decisions.planes.reshape(4, -1)
    char_flat = decisions.char_eq.reshape(-1)
    weights = np.array(
        [8 >> priority.index(letter) for letter in "MSID"], dtype=np.uint64
    )[:, None]
    base = decisions.base
    lane_cols = np.arange(L) * cols
    word_stride = slots * cols
    char_word_stride = L * cols

    # Skip-ahead is sound only when M leads the priority: then a legal
    # match is always the chosen op, so the diagonal bit run is exactly
    # the op sequence the scalar first-true loop would emit.
    skip = priority[0] == "M"
    if skip:
        diag = decisions.match_diag()
        diag_cols = diag.shape[-1]
        diag_flat = diag.reshape(-1)
        diag_hi = decisions.words * MAX_LANE_BITS - 1
        dword_stride = slots * diag_cols
    step = 0

    while live.any():
        if step > max_steps:
            raise TracebackError("traceback did not terminate (internal error)")

        # Clamped plane coordinates: j == 0 lanes (whose verdict is
        # overridden below) and finished lanes read a harmless word.
        jq = np.maximum(j, 1)
        slot = base + np.maximum(d, 0)
        bit = np.maximum(i, 0)
        wq = bit >> 6
        shift = (bit & 63).astype(np.uint64)

        words = planes_flat[:, wq * word_stride + slot * cols + jq]  # (4, L)
        bits = (words >> shift) & _U1
        char_bit = (char_flat[wq * char_word_stride + lane_cols + jq] >> shift) & _U1
        key = (bits * weights).sum(axis=0)

        at0 = j == 0
        considered = live & ~at0
        bad = considered & (key == 0)
        if bad.any():
            lane = int(np.nonzero(bad)[0][0])
            raise TracebackError(
                f"no traceback step possible at text={int(j[lane])}, "
                f"errors={int(d[lane])}, bit={int(i[lane])}"
            )

        # Read accounting for the scalar priority loop, via the LUT over
        # (first-true position, gate bits).
        gates = char_bit * np.uint64(4) + (d >= 1) * np.uint64(2) + (i >= 1) * _U1
        step_reads = reads_lut[pos_lut[key] * np.uint64(8) + gates]
        reads += step_reads * considered

        # j == 0 lanes take the unconditional-insertion branch, which is
        # the same cursor update as a chosen "I" step.
        code = np.where(at0, _CODE_BY_LETTER["I"], code_lut[key])

        run = np.ones(L, dtype=np.int64)
        if skip:
            is_m = considered & (code == 0)
            if is_m.any():
                # Multi-word countdown of consecutive set diagonal bits
                # walking down from bit i: a word whose low rb+1 bits are
                # all set continues into bit 63 of the word below (the
                # i % 64 == 0 stitch); otherwise the highest unset bit
                # ends the run.  At most W probes per lane, all gathered.
                cq = jq - bit + diag_hi
                total = np.zeros(L, dtype=np.int64)
                counting = is_m.copy()
                rw = wq.copy()
                rb = bit & 63
                while True:
                    dflat = np.maximum(rw, 0) * dword_stride + slot * diag_cols + cq
                    unset = (~diag_flat[dflat]) & _LOW_ONES[rb + 1]
                    full = unset == _U0
                    add = np.where(full, rb + 1, rb - _bit_length(unset) + 1)
                    total += np.where(counting, add, 0)
                    counting &= full & (rw > 0)
                    if not counting.any():
                        break
                    rw -= 1
                    rb = np.full(L, MAX_LANE_BITS - 1, dtype=np.int64)
                # The scalar loop stops mid-run when the pattern budget
                # runs out; clamping replicates its early exit.
                run = np.where(is_m, np.minimum(total, budget - consumed), run)
                # Each skipped step re-runs only the match probe (M is
                # first and true); it reads the stored table under the
                # same gate the LUT applies — compressed probes need the
                # step's own i >= 1 (run steps at i-1 .. i-run+1), quad
                # probes always read.
                extra = np.maximum(run - 1, 0)
                if decisions.compressed:
                    extra = np.minimum(extra, np.maximum(i - 1, 0))
                reads += np.where(is_m, extra, 0)
                runs_taken += is_m
                run_ops += np.where(is_m, run, 0)

        counts = run * live
        opcodes[step] = code
        opcounts[step] = counts
        niters += live
        step += 1

        delta_i = _DELTA_I[code] * counts
        j -= _DELTA_J[code] * counts
        d -= _DELTA_D[code] * counts
        i -= delta_i
        consumed += delta_i
        live &= i >= 0
        live &= consumed < budget

    return [
        LaneTraceback(
            codes=np.repeat(opcodes[:step, lane], opcounts[:step, lane]),
            text_stop=int(j[lane]),
            pattern_consumed=int(consumed[lane]),
            dp_reads=int(reads[lane]),
            walk_steps=int(niters[lane]),
            match_runs=int(runs_taken[lane]),
            match_run_ops=int(run_ops[lane]),
        )
        for lane in range(L)
    ]

"""Lockstep GenASM-TB: vectorized traceback over a whole wave of lanes.

The scalar traceback (:func:`repro.core.genasm_tb.genasm_traceback`) walks
one window at a time, evaluating the four decision predicates
(:func:`repro.core.genasm_tb.traceback_conditions`) with Python-int bit
queries at every step.  For a wave that cost dominates the batch engine —
profiling puts 2-3× more time in per-lane traceback than in the lockstep
DC kernel.  This module removes that scalar hot path in two moves:

1. **Decision words** (:func:`build_wave_decisions`): for every lane, error
   level ``d`` and text column ``j``, the four predicates are evaluated for
   *all* pattern bits ``i`` at once and packed into ``W`` ``uint64`` words
   per (operation, d, j) — bit ``i % 64`` of word ``i // 64`` of
   ``cm[d, ·, lane, j]`` is set iff a match step is legal at ``(j, d, i)``.
   The words are derived from the full-width rows the DC wave stored,
   masked through :meth:`repro.batch.soa.SoAWave.zero_view_mask` so they
   encode exactly the decisions the scalar predicates would take over the
   scalar path's band-packed, reachability-pruned storage.  Each plane's
   ``<< 1`` is a multi-word shift: bit 63 of word ``w`` carries into bit 0
   of word ``w + 1``, which is precisely the cross-word predicate stitched
   at pattern bits ``i`` with ``i % 64 == 0``.
2. **Lockstep walk** (:func:`lockstep_traceback`): all live lanes advance
   their traceback cursor ``(j, d, i)`` together, one NumPy step per
   *emitted run* — each step gathers the word ``i // 64`` of each lane's
   planes — and a lane that exhausts its pattern budget drops out of the
   active mask, mirroring the warp model of
   :func:`repro.batch.soa.lockstep_stats`.
3. **Match-run skip-ahead**: when a lane's chosen op is ``M`` and ``M``
   leads the priority order, the walk consumes the *entire* run of
   consecutive matches in that one step.  A match step moves ``(j-1,
   i-1)`` at fixed ``d``, so the run lies on a diagonal of the ``(j, i)``
   grid; :func:`_diagonal_pack` shears the match plane so each diagonal
   becomes one column of packed words (``c = j - i + 64·W - 1``), and the
   run length is a multi-word countdown of consecutive set bits walking
   down from bit ``i`` — crossing the ``i % 64 == 0`` word boundary into
   bit 63 of the word below.  Cursor, emitted opcode run, ``tb_steps``,
   ``dp_reads`` and ``bytes_read`` all advance by the whole run at once,
   cutting walk steps ~4× at the 10-15 % error rates the paper evaluates.
   Runs are only taken when ``M`` is the *first* priority letter (the
   GenASM default): a legal match then is always the chosen op, so the
   diagonal bit run is exactly the scalar loop's op sequence; any other
   priority degrades to one column per step, byte-identically.

Equivalence contract
--------------------
The walk is byte-identical to the scalar traceback, including the E-series
accounting: ``tb_steps`` is charged per emitted operation, and ``dp_reads``
/ ``bytes_read`` replicate the short-circuit evaluation order of the scalar
priority loop (a condition evaluated but false still paid its read; a
``bit < 0`` probe or a ``d < 1`` guard never reached the stored table).
The differential test harness (``tests/test_batch_traceback.py``) asserts
this per-field across every improvement-toggle combination and across
window widths spanning 1-3 words per lane; the cross-word carry itself is
property-tested against the scalar predicates in ``tests/test_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.batch.soa import MAX_LANE_BITS, SoAWave
from repro.core.cigar import CigarOp
from repro.core.genasm_tb import TracebackError

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
    """Shear a ``(rows, W, L, cols)`` plane into diagonal-packed words.

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
    rows, W, L, cols = plane.shape
    total_bits = W * MAX_LANE_BITS
    diag_cols = cols + total_bits - 1
    out = np.zeros((rows, W, L, diag_cols), dtype=np.uint64)
    for w in range(W):
        off = total_bits - 1 - MAX_LANE_BITS * w
        out[:, w, :, off : off + cols] = plane[:, w]
    for s, mask, inv_mask in _SHEAR_STAGES:
        moved = out & mask
        out &= inv_mask
        out[..., :-s] |= moved[..., s:]
    return out


@dataclass
class WaveDecisions:
    """Packed decision words for every lane of one wave.

    ``cm``/``cs``/``ci``/``cd`` are ``uint64`` arrays of shape
    ``(rows, W, lanes, n_max + 1)`` (``W`` = words per lane); bit ``i % 64``
    of word ``i // 64`` of ``cX[d, ·, lane, j]`` says the corresponding
    operation (match / substitution / insertion / deletion) is a legal
    traceback step at ``(j, d, i)`` for that lane.  ``char_eq``
    (``(W, lanes, n_max + 1)``) has pattern bit ``i`` set iff
    ``pattern[i]`` equals ``text[j - 1]``; the walk uses it to replicate
    the scalar read accounting (the match predicate only touches the stored
    table when the characters actually match).  Column 0 of every plane is
    unused — the walk handles ``j == 0`` as the unconditional-insertion
    branch, exactly like the scalar loop.
    """

    #: one (rows, W, lanes, n_max + 1) uint64 plane per operation, stacked
    #: in the fixed M, S, I, D order of :data:`OPS_BY_CODE` — ``cm`` etc.
    #: are views into this single allocation
    planes: np.ndarray
    char_eq: np.ndarray
    compressed: bool
    #: lazily built diagonal-packed match plane (see :func:`_diagonal_pack`);
    #: built on the first skip-ahead walk and reused across retry walks of
    #: the same wave
    _match_diag: Optional[np.ndarray] = None

    @property
    def rows(self) -> int:
        return self.planes.shape[1]

    @property
    def words(self) -> int:
        return self.planes.shape[2]

    @property
    def cm(self) -> np.ndarray:
        return self.planes[0]

    @property
    def cs(self) -> np.ndarray:
        return self.planes[1]

    @property
    def ci(self) -> np.ndarray:
        return self.planes[2]

    @property
    def cd(self) -> np.ndarray:
        return self.planes[3]

    def plane(self, letter: str) -> np.ndarray:
        """The decision plane for one priority letter (M/S/I/D)."""
        return self.planes["MSID".index(letter)]

    def bit(self, letter: str, lane: int, d: int, j: int, i: int) -> bool:
        """Scalar probe of one decision bit (used by the differential tests)."""
        word = int(
            self.plane(letter)[d, i // MAX_LANE_BITS, lane, j]
        )
        return bool((word >> (i % MAX_LANE_BITS)) & 1)

    def match_diag(self) -> np.ndarray:
        """The diagonal-packed match plane, built lazily and cached."""
        if self._match_diag is None:
            self._match_diag = _diagonal_pack(self.cm)
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
        diag = self.match_diag()
        total_bits = self.words * MAX_LANE_BITS
        c = j - i + total_bits - 1
        run = 0
        w, b = i // MAX_LANE_BITS, i % MAX_LANE_BITS
        while w >= 0:
            word = int(diag[d, w, lane, c])
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


def build_wave_decisions(
    wave: SoAWave,
    stored_rows: Sequence[object],
    *,
    entry_compression: bool,
) -> WaveDecisions:
    """Precompute the lockstep decision words for one DC wave.

    ``stored_rows`` is the per-row storage exactly as the DC wave kept it:
    with entry compression one full-width ``(W, lanes, n_max + 1)`` array
    of ``R`` values per row, otherwise a 4-tuple of ``(W, lanes, n_max)``
    arrays holding the match/subst/ins/del intermediates for columns
    ``1..n``.  Callers whose walk only starts from error levels below
    ``len(stored_rows)`` may pass a row-sliced prefix.  Band packing and
    reachability pruning are imposed here via
    :meth:`~repro.batch.soa.SoAWave.zero_view_mask`, so the returned planes
    reproduce, for every ``(d, j, i)``, the verdicts of
    :func:`repro.core.genasm_tb.traceback_conditions` over the scalar
    path's stored state.
    """
    L = wave.lanes
    W = wave.words
    cols = wave.n_max + 1
    rows = len(stored_rows)
    planes = np.zeros((4, rows, W, L, cols), dtype=np.uint64)
    cm, cs, ci, cd = planes

    char_eq = np.zeros((W, L, cols), dtype=np.uint64)
    char_eq[:, :, 1:] = (~wave.masks) & wave.ones[:, :, None]

    # Bits the scalar accessors could ever report as active: inside the
    # lane's pattern, a persisted column, and (with banding) the stored
    # band window.
    active = wave.zero_view_mask()

    if entry_compression:
        # One stored R word per entry; the four conditions re-derive their
        # verdicts from neighbouring R entries, shifted so bit i of the
        # plane asks about bit i-1 of R (with bit -1 always active).
        zero = [(~stored_rows[d]) & active for d in range(rows)]
        for d in range(rows):
            z_d = zero[d]
            cm[d, :, :, 1:] = char_eq[:, :, 1:] & _shl1_or1(z_d[:, :, :-1])
            if d >= 1:
                z_prev = zero[d - 1]
                cs[d, :, :, 1:] = _shl1_or1(z_prev[:, :, :-1])
                ci[d, :, :, 1:] = _shl1_or1(z_prev[:, :, 1:])
                cd[d, :, :, 1:] = z_prev[:, :, :-1]
    else:
        # Quad storage keeps the four already-shifted intermediates of row
        # d at column j, so each plane is a direct zero-bit view of one
        # stored vector.  Row 0 has no subst/ins/del steps (d < 1).
        active_q = active[:, :, 1:]
        for d in range(rows):
            match_row, subst_row, ins_row, del_row = stored_rows[d]
            cm[d, :, :, 1:] = (~match_row) & active_q
            if d >= 1:
                cs[d, :, :, 1:] = (~subst_row) & active_q
                ci[d, :, :, 1:] = (~ins_row) & active_q
                cd[d, :, :, 1:] = (~del_row) & active_q

    return WaveDecisions(planes=planes, char_eq=char_eq, compressed=entry_compression)


@dataclass
class LaneTraceback:
    """Traceback of one lane: CIGAR op codes plus the consumed window spans.

    ``codes`` holds one entry of :data:`OPS_BY_CODE` indices per emitted
    operation, in traceback order; :meth:`ops` materialises
    :class:`~repro.core.cigar.CigarOp` objects when a caller needs them
    (the batch engine instead run-length encodes the raw codes).
    """

    codes: np.ndarray
    text_stop: int
    pattern_consumed: int
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
    wave: SoAWave,
    decisions: WaveDecisions,
    *,
    start_errors: np.ndarray,
    budgets: np.ndarray,
    priority: str = "MSDI",
    active: Optional[np.ndarray] = None,
    skip_ahead: bool = True,
) -> List[Optional[LaneTraceback]]:
    """Walk every live lane's traceback in lockstep NumPy steps.

    Parameters
    ----------
    start_errors:
        Per-lane error level to start from (``min_errors`` of the DC wave);
        lanes excluded via ``active`` may hold any value.
    budgets:
        Per-lane ``max_pattern_columns`` (the committed window columns);
        clamped to the lane's pattern length, as the scalar traceback does.
    priority:
        Tie-break order over {M, S, D, I}, shared by the whole wave.
    active:
        Boolean lane mask; lanes outside it (e.g. retry candidates whose
        budget failed) are skipped and reported as ``None``.
    skip_ahead:
        Consume whole match runs per step (module docstring item 3).  Only
        takes effect when ``M`` leads ``priority`` — otherwise a legal
        match need not be the chosen op and the walk degrades to one
        column per step, byte-identically.

    Each lane's :class:`~repro.core.metrics.AccessCounter` receives exactly
    the ``tb_steps`` / ``dp_reads`` / ``bytes_read`` the scalar traceback
    would have charged for the same window — skipped match steps included
    (each emitted run op is one ``tb_steps`` tick, and each skipped step
    re-charges the match probe's read under the same gate the scalar loop
    applies).
    """
    L = wave.lanes
    m, n = wave.m, wave.n
    walk = np.ones(L, dtype=bool) if active is None else active.astype(bool).copy()

    j = np.where(walk, n, 0).astype(np.int64)
    i = np.where(walk, m - 1, -1).astype(np.int64)
    d = np.where(walk, start_errors, 0).astype(np.int64)
    budget = np.minimum(m, np.asarray(budgets, dtype=np.int64))
    consumed = np.zeros(L, dtype=np.int64)

    live = walk & (i >= 0) & (consumed < budget)
    # Any valid traceback is shorter than this (the scalar loop's guard).
    max_steps = int((2 * (m + n) + 4).max()) if L else 0
    # One opcode row per iteration (plain row writes beat per-lane
    # scatters) plus a parallel run-length row: with skip-ahead lanes
    # desynchronize (one lane's iteration may emit a 12-op match run while
    # another emits a single deletion), so a lane's traceback is its
    # opcode column expanded by its count column (zero counts — dead or
    # not-yet-started lanes — contribute nothing).  nsteps stays the
    # per-lane tb_steps tally: the scalar loop emits one op per count.
    opcodes = np.zeros((max_steps + 1, L), dtype=np.int8)
    opcounts = np.zeros((max_steps + 1, L), dtype=np.int64)
    nsteps = np.zeros(L, dtype=np.int64)
    niters = np.zeros(L, dtype=np.int64)
    reads = np.zeros(L, dtype=np.int64)
    runs_taken = np.zeros(L, dtype=np.int64)
    run_ops = np.zeros(L, dtype=np.int64)

    pos_lut, code_lut, reads_lut = _step_luts(priority, decisions.compressed)
    # Flat-index views of the planes (no copies).  Plane p (fixed M,S,I,D
    # storage order) contributes key weight 8 >> its-position-in-priority,
    # so `key` packs the condition bits in priority order for the LUTs.
    # A lane's cursor bit i selects word i // 64 of its plane entries (the
    # multi-word lane layout); for single-word waves the word index is
    # constant zero.
    cols = decisions.char_eq.shape[-1]
    planes_flat = decisions.planes.reshape(4, -1)
    char_flat = decisions.char_eq.reshape(-1)
    weights = np.array(
        [8 >> priority.index(letter) for letter in "MSID"], dtype=np.uint64
    )[:, None]
    lanes = np.arange(L)
    lane_cols = lanes * cols
    word_stride = L * cols
    plane_stride = decisions.words * word_stride

    # Skip-ahead is sound only when M leads the priority: then a legal
    # match is always the chosen op, so the diagonal bit run is exactly
    # the op sequence the scalar first-true loop would emit.
    skip = skip_ahead and priority[0] == "M"
    if skip:
        diag = decisions.match_diag()
        diag_cols = diag.shape[-1]
        diag_flat = diag.reshape(-1)
        diag_hi = decisions.words * MAX_LANE_BITS - 1
        lane_dcols = lanes * diag_cols
        dword_stride = L * diag_cols
        dplane_stride = decisions.words * dword_stride
    step = 0

    while live.any():
        if step > max_steps:
            raise TracebackError("traceback did not terminate (internal error)")

        # Clamped plane coordinates: j == 0 lanes (whose verdict is
        # overridden below) and finished lanes read a harmless word.
        jq = np.maximum(j, 1)
        dq = np.maximum(d, 0)
        bit = np.maximum(i, 0)
        wq = bit >> 6
        shift = (bit & 63).astype(np.uint64)

        word_at = wq * word_stride + lane_cols + jq
        flat = dq * plane_stride + word_at
        words = planes_flat[:, flat]  # (4, L) condition words
        bits = (words >> shift) & _U1
        char_bit = (char_flat[word_at] >> shift) & _U1
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
                    dflat = (
                        dq * dplane_stride
                        + np.maximum(rw, 0) * dword_stride
                        + lane_dcols
                        + cq
                    )
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
        nsteps += counts
        niters += live
        step += 1

        delta_i = _DELTA_I[code] * counts
        j -= _DELTA_J[code] * counts
        d -= _DELTA_D[code] * counts
        i -= delta_i
        consumed += delta_i
        live &= i >= 0
        live &= consumed < budget

    results: List[Optional[LaneTraceback]] = [None] * L
    for lane in np.nonzero(walk)[0]:
        lane = int(lane)
        counter = wave.jobs[lane].counter
        counter.tb_steps += int(nsteps[lane])
        lane_reads = int(reads[lane])
        counter.dp_reads += lane_reads
        counter.bytes_read += lane_reads * int(wave.entry_store[lane])
        results[lane] = LaneTraceback(
            codes=np.repeat(opcodes[:step, lane], opcounts[:step, lane]),
            text_stop=int(j[lane]),
            pattern_consumed=int(consumed[lane]),
            walk_steps=int(niters[lane]),
            match_runs=int(runs_taken[lane]),
            match_run_ops=int(run_ops[lane]),
        )
    return results

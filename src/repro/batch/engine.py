"""Vectorized batched-alignment engine (lockstep GenASM over NumPy lanes).

The scalar pipeline (:mod:`repro.core.windowing`) aligns one window at a
time with a Python-int hot loop.  For batch workloads the per-step work is
identical across pairs — the GenASM recurrence is the same five bitvector
operations regardless of the sequences — so this engine evaluates **many
window pairs in lockstep**: one multi-word lane per pair
(``W = ceil(window_size / 64)`` ``uint64`` words, see
:mod:`repro.batch.soa`), with the DP applied to all lanes at once as
NumPy array operations.  The DC scan walks the anti-diagonals of the
``(d, j)`` grid, one NumPy step per diagonal over every row and lane, so
the Python interpreter executes ``n_max + rows`` steps per *wave* instead
of ``rows × n`` steps per *pair*, amortising interpreter overhead across
the wave width and the error levels.

Equivalence contract
--------------------
The engine is not an approximation: it persists exactly the rows the
scalar :func:`repro.core.genasm_dc.genasm_dc` would store (kept full-width
in SoA layout; band packing and the traceback-reachability placeholders
are applied lazily, see :meth:`WaveDCState.table` and
:meth:`repro.batch.soa.SoAWave.zero_view_mask`) and traces every lane back
over that state with the lockstep decision-word traceback of
:mod:`repro.batch.traceback`, which replicates the scalar
:func:`repro.core.genasm_tb.genasm_traceback` bit for bit — decisions *and*
read accounting.  Alignments (CIGAR, edit distance, consumed text span) and
the E-series accounting (DP accesses, stored bytes, windows, rows) are
therefore identical to the scalar path — the differential test harness
(``tests/test_batch_traceback.py``) asserts this per field across every
improvement-toggle combination and over single- and multi-word window
widths (32..150).

Structure
---------
* :func:`run_dc_wave_state` — the lockstep GenASM-DC kernel over a
  :class:`repro.batch.soa.SoAWave`, scanned by anti-diagonals; returns a
  :class:`WaveDCState` keeping the stored rows in SoA layout (what the
  lockstep traceback consumes).
  The recurrence carries the shifted bit across lane words, so windows
  wider than 64 characters (short-read configs) vectorize too.
* :func:`run_dc_wave` — compatibility wrapper materialising one scalar
  :class:`~repro.core.genasm_dc.DCTable` per lane from the wave state.
* :class:`BatchAlignmentEngine` — the windowed aligner: all pairs advance
  their current window together (one wave per windowing step), lanes whose
  error budget fails are retried in doubling sub-waves, and finished pairs
  drop out of subsequent waves.  Mixed-length batches are scheduled into
  waves by expected lockstep work — window count × words per lane (see
  :meth:`BatchAlignmentEngine.schedule`) — so chunked lanes run in
  lockstep with similarly-sized neighbours.

Every configuration takes this lockstep path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.batch.soa import MAX_LANE_BITS, LaneJob, SoAWave, lane_words, lockstep_stats
from repro.batch.traceback import (
    OPS_BY_CODE,
    build_wave_decisions,
    lockstep_traceback,
)
from repro.core.alignment import Alignment
from repro.core.cigar import Cigar, CigarOp
from repro.core.config import GenASMConfig
from repro.core.genasm_dc import DCTable
from repro.core.improvements import reachable_column_start
from repro.core.metrics import AccessCounter, MemoryFootprint

__all__ = [
    "BatchAlignmentEngine",
    "WaveDCState",
    "run_dc_wave",
    "run_dc_wave_state",
]

_U1 = np.uint64(1)
_U0 = np.uint64(0)
_U63 = np.uint64(MAX_LANE_BITS - 1)

#: Packed op code of an insertion (see repro.batch.traceback.OPS_BY_CODE).
_INSERTION_CODE = list(OPS_BY_CODE).index(CigarOp.INSERTION)

#: ``_CLEAR_LOW[c]`` clears the ``c`` low bits (``c`` in 0..64); used to
#: build row 0 (``(ones << d) & ones``) without undefined 64-bit shifts.
_CLEAR_LOW = np.array(
    [(~((1 << c) - 1)) & ((1 << 64) - 1) for c in range(MAX_LANE_BITS + 1)],
    dtype=np.uint64,
)


def _shl1(value: np.ndarray) -> np.ndarray:
    """Multi-word ``value << 1`` with cross-word carry.

    ``value`` has the word axis second (``(rows, W, ...)``); bit 63 of word
    ``w`` shifts into bit 0 of word ``w + 1``.  Bits shifted past a lane's
    pattern are kept: callers clear them by ANDing the lane's ``ones`` or
    a term that is already clean.
    """
    out = value << _U1
    if out.shape[1] > 1:
        out[:, 1:] |= value[:, :-1] >> _U63
    return out


@dataclass
class WaveDCState:
    """Raw SoA outcome of one lockstep GenASM-DC wave.

    Keeps the stored rows exactly as the wave computed them — full-width
    multi-word ``uint64`` arrays ``(W, L, n_max + 1)`` (or quad tuples of
    ``(W, L, n_max)`` without entry compression) — so the lockstep
    traceback can derive its decision words without ever materialising
    per-lane Python lists.  Band packing and traceback-reachability
    placeholders are applied lazily: :meth:`table` reproduces the scalar
    path's packed storage value for value, and
    :meth:`repro.batch.soa.SoAWave.zero_view_mask` imposes the same
    semantics on the decision planes.  Per-lane DP accounting has already
    been charged to each :class:`~repro.batch.soa.LaneJob` counter when
    this object exists; :meth:`tables` only reshapes state.
    """

    wave: SoAWave
    entry_compression: bool
    early_termination: bool
    #: per row up to ``rows_computed.max()``: full-width R
    #: ``(W, L, n_max + 1)`` (a view of the scan's one table) or 4-tuple of
    #: ``(W, L, n_max)`` intermediates, in SoA layout
    stored_rows: List[object]
    #: final-column value per evaluated row, ``(W, L)`` each
    final_cols: List[np.ndarray]
    rows_computed: np.ndarray
    #: minimum error level per lane, ``-1`` when the budget failed
    min_errors: np.ndarray

    def stored_bytes(self) -> np.ndarray:
        """Per-lane bytes of retained traceback state (E3 accounting)."""
        wave = self.wave
        per_entry = wave.entry_store * (1 if self.entry_compression else 4)
        columns = wave.n + 1 - wave.store_from
        if self.entry_compression:
            entries = self.rows_computed * np.maximum(0, columns)
        else:
            entries = self.rows_computed * np.maximum(0, np.minimum(columns, wave.n))
        return entries * per_entry

    @staticmethod
    def _lane_ints(words: np.ndarray) -> List[int]:
        """Combine a ``(W, cols)`` word slice into per-column Python ints."""
        if words.shape[0] == 1:
            return words[0].tolist()
        out = words[-1].tolist()
        for w in range(words.shape[0] - 2, -1, -1):
            low = words[w].tolist()
            out = [(high << MAX_LANE_BITS) | value for high, value in zip(out, low)]
        return out

    def table(self, lane: int) -> DCTable:
        """Materialise the scalar :class:`DCTable` of one lane.

        Used by the compat wrapper (:meth:`tables`) and the differential
        tests, never by the engine's hot path.  The full-width wave rows
        are band-packed and placeholder-substituted here, reproducing the
        scalar storage exactly (``tests/test_batch_engine.py`` pins this
        state for state).
        """
        wave = self.wave
        job = wave.jobs[lane]
        rows_i = int(self.rows_computed[lane])
        n_i = int(wave.n[lane])
        m_i = int(wave.m[lane])
        found = int(self.min_errors[lane])
        store_from = int(wave.store_from[lane])
        band = wave.traceback_band
        ones_int = (1 << m_i) - 1
        band_lo = [int(x) for x in wave.band_lo[lane, : n_i + 1]]
        band_mask_int = (1 << int(wave.band_width[lane])) - 1

        table = DCTable(
            pattern=job.pattern,
            text=job.text,
            max_errors=int(wave.k[lane]),
            entry_compression=self.entry_compression,
            early_termination=self.early_termination,
            traceback_band=band,
            store_from_column=store_from,
            counter=job.counter,
        )
        table.rows_computed = rows_i
        table.min_errors = found if found >= 0 else None
        table.final_column = [
            sum(
                int(self.final_cols[d][w, lane]) << (MAX_LANE_BITS * w)
                for w in range(wave.words)
            )
            for d in range(rows_i)
        ]
        if self.entry_compression:
            stored_r: List[List[int]] = []
            for d in range(rows_i):
                values = self._lane_ints(self.stored_rows[d][:, lane, : n_i + 1])
                if band:
                    values = [
                        ((value >> band_lo[j]) & band_mask_int)
                        if j >= store_from
                        else ones_int
                        for j, value in enumerate(values)
                    ]
                stored_r.append(values)
            table.stored_r = stored_r
        else:
            stored_quad: List[List[Tuple[int, int, int, int]]] = []
            for d in range(rows_i):
                quads = [
                    self._lane_ints(component[:, lane, :n_i])
                    for component in self.stored_rows[d]
                ]
                row = []
                for j in range(1, n_i + 1):
                    if j < store_from:
                        row.append((ones_int,) * 4)
                    elif band:
                        lo = band_lo[j]
                        row.append(
                            tuple(
                                (component[j - 1] >> lo) & band_mask_int
                                for component in quads
                            )
                        )
                    else:
                        row.append(tuple(component[j - 1] for component in quads))
                stored_quad.append(row)
            table.stored_quad = stored_quad
        table._band_lo = band_lo
        table._band_width = None  # lazily derived; identical to scalar
        return table

    def tables(self) -> List[DCTable]:
        """Materialise one scalar :class:`DCTable` per lane (compat path)."""
        return [self.table(lane) for lane in range(self.wave.lanes)]


def run_dc_wave(
    wave: SoAWave,
    *,
    entry_compression: bool = True,
    early_termination: bool = True,
) -> List[DCTable]:
    """Run GenASM-DC over every lane of ``wave`` in lockstep.

    Returns one :class:`DCTable` per lane with exactly the stored state,
    ``min_errors``, ``rows_computed`` and access accounting the scalar
    :func:`repro.core.genasm_dc.genasm_dc` produces for the same inputs.
    Each lane keeps its own budget and, with early termination, its own
    stopping row; the wave itself is one anti-diagonal scan (see
    :func:`run_dc_wave_state`).
    """
    return run_dc_wave_state(
        wave,
        entry_compression=entry_compression,
        early_termination=early_termination,
    ).tables()


def run_dc_wave_state(
    wave: SoAWave,
    *,
    entry_compression: bool = True,
    early_termination: bool = True,
) -> WaveDCState:
    """Run GenASM-DC over every lane of ``wave``, keeping the SoA state.

    This is the batch engine's hot path: the returned
    :class:`WaveDCState` feeds the lockstep traceback directly (via
    :func:`repro.batch.traceback.build_wave_decisions`), avoiding the
    per-lane Python-list materialisation :func:`run_dc_wave` performs.
    Row ``d`` depends only on row ``d - 1``, so the scan walks
    anti-diagonals: one NumPy step evaluates cell ``(d, t - d)`` of every
    row and lane from diagonals ``t - 1`` and ``t - 2``, ``n_max + k_max``
    steps per wave.  Shifts carry bit 63 of word ``w`` into bit 0 of word
    ``w + 1`` (:func:`_shl1`).  All ``k_max + 1`` rows are evaluated; each
    lane's ``min_errors``, ``rows_computed`` (early termination included)
    and stored rows are read off the finished table, exactly where a
    row-by-row scan would have stopped.  Per-lane DP accounting (entries,
    rows, writes, skipped rows) is charged to each lane's counter before
    returning.
    """
    L = wave.lanes
    W = wave.words
    n_max = wave.n_max
    rows = wave.k_max + 1
    n, k, ones, masks = wave.n, wave.k, wave.ones, wave.masks
    lane_idx = np.arange(L)
    row_idx = np.arange(rows)

    # Column 0: pattern prefixes alignable against the empty text suffix —
    # (ones << d) & ones, i.e. ones with the d low bits cleared; per word w
    # that clears clamp(d - 64 w, 0, 64) bits (rows at or past a lane's
    # pattern length come out all zero).
    cleared = np.clip(row_idx[:, None] - np.arange(W) * MAX_LANE_BITS, 0, MAX_LANE_BITS)
    column0 = ones & _CLEAR_LOW[cleared][:, :, None]  # (rows, W, L)

    table = np.empty((rows, W, L, n_max + 1), dtype=np.uint64)
    table[..., 0] = column0
    # diagonal[t, d] is table[d, :, :, t - d], touched only for 0 <= t - d <= n_max.
    s_row, s_word, s_lane, s_col = table.strides
    diagonal = as_strided(
        table, (n_max + rows, rows, W, L), (s_col, s_row - s_col, s_word, s_lane)
    )
    # masks_rev[n_max - j] is the mask of text column j: a diagonal reads a
    # forward slice.
    masks_rev = np.ascontiguousarray(masks.transpose(2, 0, 1)[::-1])

    # Diagonals t - 1 and t by row, and (R << 1) & R of diagonal t - 1:
    # the subst & del term of the next step.
    prev, cur, subst_del = np.empty((3, rows, W, L), dtype=np.uint64)
    prev[0] = column0[0]
    for t in range(1, n_max + rows):
        lo, hi = max(0, t - n_max), min(rows - 1, t - 1)  # rows with 1 <= t - d <= n_max
        first = max(0, lo - 1)  # diagonal t - 1 holds rows first..hi
        before = prev[first : hi + 1]
        shifted = _shl1(before)
        # match = (R[d][j-1] << 1) | mask[j-1]; rows past 0 AND in ins
        # (R[d-1][j] << 1) and subst & del.  Every other term is clean, so
        # they clear the bits shifted past a lane's pattern (ones does, in
        # row 0).
        value = cur[lo : hi + 1]
        column_masks = masks_rev[n_max - t + lo : n_max - t + hi + 1]
        np.bitwise_or(shifted[lo - first :], column_masks, out=value)
        if lo == 0:
            value[0] &= ones
        value[first + 1 - lo :] &= shifted[:-1] & subst_del[first:hi]
        np.bitwise_and(shifted, before, out=subst_del[first : hi + 1])
        diagonal[t, lo : hi + 1] = value
        if t < rows:
            cur[t] = column0[t]
        prev, cur = cur, prev

    # Where a row-by-row scan stops, read off the finished table: the first
    # row within each lane's budget whose final column holds the pattern.
    final = table[:, :, lane_idx, n]  # (rows, W, L)
    solution = ((final[:, wave.msb_word, lane_idx] >> wave.msb_shift) & _U1) == _U0
    solution &= row_idx[:, None] <= k
    found = solution.any(axis=0)
    min_errors = np.where(found, solution.argmax(axis=0), -1)
    rows_computed = np.where(found & early_termination, min_errors + 1, k + 1)
    evaluated = int(rows_computed.max())

    # Persist the rows full-width; the band packing and pruned-column
    # placeholders of the scalar storage are applied lazily (table(),
    # zero_view_mask), so the scan never pays per-column packing.
    if entry_compression:
        stored_rows: List[object] = list(table[:evaluated])
    else:
        # Row 0 is the match term alone; ones stand in for the other three.
        shifted = _shl1(table[:evaluated]) & ones[:, :, None]
        match = shifted[..., :-1] | masks
        placeholder = np.broadcast_to(ones[:, :, None], (W, L, n_max))
        stored_rows = [(match[0], placeholder, placeholder, placeholder)]
        subst, ins = shifted[:-1, ..., :-1], shifted[:-1, ..., 1:]
        stored_rows.extend(zip(match[1:], subst, ins, table[: evaluated - 1, ..., :-1]))

    # Bulk per-lane accounting, identical in total to the scalar per-row
    # updates (per-row quantities are constant per lane).
    stored_columns = n - np.maximum(0, wave.store_from - 1)
    if entry_compression:
        writes_per_row = stored_columns + (wave.store_from == 0)
    else:
        writes_per_row = 4 * stored_columns

    for i, job in enumerate(wave.jobs):
        rows_i = int(rows_computed[i])
        counter = job.counter
        counter.entries_computed += rows_i * int(n[i])
        counter.rows_computed += rows_i
        counter.record_write(rows_i * int(writes_per_row[i]), int(wave.entry_store[i]))
        found = int(min_errors[i])
        if early_termination and found >= 0:
            counter.rows_skipped += int(k[i]) - found

    return WaveDCState(
        wave=wave,
        entry_compression=entry_compression,
        early_termination=early_termination,
        stored_rows=stored_rows,
        final_cols=list(final[:evaluated]),
        rows_computed=rows_computed,
        min_errors=min_errors,
    )


class _PairState:
    """Mutable per-pair cursor of the lockstep windowing loop."""

    __slots__ = (
        "pattern",
        "text",
        "p",
        "t",
        "code_chunks",
        "windows",
        "peak_bytes",
        "total_bytes",
        "rows_total",
        "counter",
        "done",
        "tb_walk_steps",
        "tb_steps_saved",
        "tb_match_runs",
        "tb_match_run_ops",
    )

    def __init__(self, pattern: str, text: str) -> None:
        self.pattern = pattern
        self.text = text
        self.p = 0
        self.t = 0
        #: per-window packed op codes (see repro.batch.traceback.OPS_BY_CODE)
        self.code_chunks: List[np.ndarray] = []
        self.windows = 0
        self.peak_bytes = 0
        self.total_bytes = 0
        self.rows_total = 0
        self.counter = AccessCounter()
        self.done = len(pattern) == 0
        #: traceback walk iterations vs emitted ops (skip-ahead savings),
        #: and the match runs the skip-ahead consumed whole
        self.tb_walk_steps = 0
        self.tb_steps_saved = 0
        self.tb_match_runs = 0
        self.tb_match_run_ops = 0

    def cigar(self) -> Cigar:
        """Run-length encode the accumulated op codes into a CIGAR."""
        if not self.code_chunks:
            return Cigar.from_runs([])
        codes = (
            self.code_chunks[0]
            if len(self.code_chunks) == 1
            else np.concatenate(self.code_chunks)
        )
        boundaries = np.nonzero(np.diff(codes))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [codes.size]))
        return Cigar.from_runs(
            (int(end - start), OPS_BY_CODE[codes[start]])
            for start, end in zip(starts, ends)
        )


class BatchAlignmentEngine:
    """Vectorized windowed GenASM aligner for batches of pairs.

    All pairs advance through their windows together: each iteration of the
    outer loop assembles one :class:`SoAWave` from every unfinished pair's
    current window, runs the lockstep DC kernel (with per-lane
    budget-doubling retry sub-waves), traces the solved lanes back with
    the lockstep decision-word walk, and advances the per-pair cursors exactly as
    :func:`repro.core.windowing.align_windowed` would.

    Parameters
    ----------
    config:
        Aligner configuration.  Windows of any width vectorize — a window
        of ``W`` characters occupies ``ceil(W / 64)`` ``uint64`` words per
        lane (:attr:`words_per_lane`), so ``GenASMConfig.short_read``
        workloads take the lockstep path too.
    name:
        Label attached to produced alignments.
    max_lanes:
        Optional cap on concurrent lanes; larger batches are processed in
        chunks of this many pairs (bounds wave memory).  Lanes are ordered
        by expected lockstep work — window count × words per lane
        (:meth:`expected_work`) — before chunking, so each
        ``max_lanes``-wide chunk runs lanes of similar lifetime in lockstep
        (returned alignments are always restored to input order).  The
        order never changes any alignment — only the lockstep efficiency
        of mixed-length batches (see :meth:`scheduling_stats`).
    """

    def __init__(
        self,
        config: Optional[GenASMConfig] = None,
        *,
        name: str = "genasm-vectorized",
        max_lanes: Optional[int] = None,
    ) -> None:
        self.config = config if config is not None else GenASMConfig()
        self.name = name
        if max_lanes is not None and max_lanes < 1:
            raise ValueError("max_lanes must be at least 1")
        self.max_lanes = max_lanes

    @property
    def words_per_lane(self) -> int:
        """``uint64`` words per full-width lane: ``ceil(window_size / 64)``."""
        return lane_words(self.config.window_size)

    # ------------------------------------------------------------------ #
    def expected_windows(self, pattern_length: int) -> int:
        """Number of windowing steps a pattern of this length will take.

        Exact for this engine and for :func:`repro.core.windowing.align_windowed`:
        each non-final window commits ``window_step`` pattern columns and the
        final window consumes the rest, so the count depends only on the
        pattern length.
        """
        if pattern_length <= 0:
            return 0
        window = self.config.window_size
        if pattern_length <= window:
            return 1
        return 1 + math.ceil((pattern_length - window) / self.config.window_step)

    def expected_work(self, pattern_length: int) -> int:
        """Expected lockstep work of one lane: window count × words/lane.

        This is the per-lane quantity the wave scheduler equalises within
        chunks.  A pattern shorter than the window occupies only
        ``ceil(len / 64)`` words, so with wide-window (short-read) configs
        a 40 bp fragment costs one word-step per window while a 150 bp
        read costs three — sorting by window count alone would let narrow
        lanes pad three-word waves.
        """
        if pattern_length <= 0:
            return 0
        return self.expected_windows(pattern_length) * lane_words(
            min(self.config.window_size, pattern_length)
        )

    def schedule(self, pairs: Sequence[Tuple[str, str]]) -> List[int]:
        """Lane order used when chunking ``pairs`` into waves.

        Indices are stably ordered by expected lockstep work
        (:meth:`expected_work`) so lanes of similar lifetime share a chunk
        — lanes of dissimilar window counts or word widths pad each
        other's waves (the SIMT warp-divergence cost
        :func:`repro.batch.soa.lockstep_stats` models).
        """
        return sorted(
            range(len(pairs)),
            key=lambda index: self.expected_work(len(pairs[index][0])),
        )

    def scheduling_stats(self, pairs: Sequence[Tuple[str, str]]) -> Dict[str, float]:
        """Lockstep efficiency of this engine's wave schedule over ``pairs``.

        Applies :func:`repro.batch.soa.lockstep_stats` to the scheduled
        per-lane expected work (window count × words/lane) with
        ``max_lanes``-wide groups — the same model
        :meth:`repro.gpu.simulator.GpuSimulator.warp_divergence` uses for
        warps.
        """
        group = self.max_lanes if self.max_lanes is not None else max(1, len(pairs))
        work = [
            float(self.expected_work(len(pairs[index][0])))
            for index in self.schedule(pairs)
        ]
        return lockstep_stats(work, group)

    # ------------------------------------------------------------------ #
    def align_pairs(
        self,
        pairs: Sequence[Tuple[str, str]],
        *,
        counter: Optional[AccessCounter] = None,
    ) -> List[Alignment]:
        """Align a batch of (pattern, text) pairs; results match the scalar path.

        A shared :class:`AccessCounter` may be supplied; it receives the
        whole batch's aggregate DP traffic, equal to what
        :meth:`repro.core.aligner.GenASMAligner.align_batch` accumulates.
        Each alignment's ``metadata`` always describes that pair alone
        (``align_batch`` instead snapshots the shared counter's running
        totals into per-alignment metadata, which this engine does not
        replicate), and records ``words_per_lane``.
        """
        pairs = list(pairs)
        out: List[Optional[Alignment]] = [None] * len(pairs)
        order = self.schedule(pairs)
        step = self.max_lanes if self.max_lanes is not None else max(1, len(pairs))
        for start in range(0, len(order), step):
            chunk_indices = order[start : start + step]
            chunk = [pairs[index] for index in chunk_indices]
            for index, alignment in zip(chunk_indices, self._align_chunk(chunk, counter)):
                out[index] = alignment
        if any(a is None for a in out):
            raise AssertionError("batch engine produced fewer alignments than pairs")
        return out

    # ------------------------------------------------------------------ #
    def _align_chunk(
        self, pairs: Sequence[Tuple[str, str]], shared: Optional[AccessCounter]
    ) -> List[Alignment]:
        config = self.config
        states = [_PairState(p, t) for p, t in pairs]

        while True:
            active = [s for s in states if not s.done]
            if not active:
                break
            wave_members: List[Tuple[_PairState, str, str, int, int]] = []
            for s in active:
                remaining = len(s.pattern) - s.p
                w = min(config.window_size, remaining)
                text_budget = min(len(s.text) - s.t, w + config.text_slack)
                window_pattern = s.pattern[s.p : s.p + w]
                window_text = s.text[s.t : s.t + max(0, text_budget)]
                last_window = w >= remaining
                commit = w if last_window else max(1, min(w, min(config.window_step, w)))

                if len(window_text) == 0:
                    # No DP to run: the committed pattern prefix is emitted
                    # as insertions (align_window's empty-text early return,
                    # inlined so _apply_window owns all window accounting).
                    self._apply_window(
                        s,
                        codes=np.full(commit, _INSERTION_CODE, dtype=np.int8),
                        pattern_consumed=commit,
                        text_consumed=0,
                        rows=0,
                        stored=0,
                    )
                    continue
                wave_members.append((s, window_pattern, window_text, commit, w))

            if wave_members:
                self._run_wave(wave_members)

            for s in states:
                if not s.done and s.p >= len(s.pattern):
                    s.done = True

        footprint = MemoryFootprint.from_config(config)
        model_bytes = footprint.bytes_for_config(config)
        alignments: List[Alignment] = []
        for s in states:
            cigar = s.cigar()
            metadata = {
                "windows": s.windows,
                "rows_computed": s.rows_total,
                "peak_window_bytes": s.peak_bytes,
                "total_stored_bytes": s.total_bytes,
                "dp_accesses": s.counter.total_accesses,
                "dp_bytes": s.counter.total_bytes,
                "model_window_bytes": model_bytes,
                "words_per_lane": self.words_per_lane,
                "tb_walk_steps": s.tb_walk_steps,
                "tb_walk_steps_saved": s.tb_steps_saved,
                "tb_match_runs": s.tb_match_runs,
                "tb_match_run_ops": s.tb_match_run_ops,
            }
            alignments.append(
                Alignment(
                    pattern=s.pattern,
                    text=s.text,
                    cigar=cigar,
                    edit_distance=cigar.edit_distance,
                    text_start=0,
                    text_end=s.t,
                    aligner=self.name,
                    metadata=metadata,
                )
            )
            if shared is not None:
                shared.merge(s.counter)
        return alignments

    # ------------------------------------------------------------------ #
    def _run_wave(
        self, members: Sequence[Tuple[_PairState, str, str, int, int]]
    ) -> None:
        """Run one windowing step for every member, with retry sub-waves.

        Both phases of the window are lockstep over the whole wave: the DC
        kernel (:func:`run_dc_wave_state`) and the decision-word traceback
        (:func:`repro.batch.traceback.lockstep_traceback`).  Lanes whose
        error budget failed skip the traceback and retry with a doubled
        budget in the next sub-wave.
        """
        config = self.config
        # (state, rev_pattern, rev_text, commit, window_text_len, budget)
        pending = [
            (s, wp[::-1], wt[::-1], commit, len(wt), max(1, min(w, config.k)))
            for s, wp, wt, commit, w in members
        ]
        while pending:
            jobs = []
            for s, rev_p, rev_t, commit, _wt_len, budget in pending:
                store_from = 0
                if config.traceback_band:
                    store_from = reachable_column_start(len(rev_t), commit, budget)
                jobs.append(
                    LaneJob(
                        pattern=rev_p,
                        text=rev_t,
                        max_errors=budget,
                        store_from=store_from,
                        counter=s.counter,
                    )
                )
            wave = SoAWave(jobs, traceback_band=config.traceback_band)
            state = run_dc_wave_state(
                wave,
                entry_compression=config.entry_compression,
                early_termination=config.early_termination,
            )

            solved = state.min_errors >= 0
            retries = []
            for lane, (s, rev_p, rev_t, commit, wt_len, budget) in enumerate(pending):
                if not solved[lane]:
                    m = len(rev_p)
                    if budget >= m:
                        raise AssertionError(
                            "GenASM window failed with a full error budget (internal error)"
                        )
                    retries.append((s, rev_p, rev_t, commit, wt_len, min(m, budget * 2)))

            if solved.any():
                self._traceback_solved_lanes(state, wave, pending, solved)
            pending = retries

    def _traceback_solved_lanes(
        self,
        state: WaveDCState,
        wave: SoAWave,
        pending: Sequence[Tuple["_PairState", str, str, int, int, int]],
        solved: np.ndarray,
    ) -> None:
        """Trace all solved lanes with the lockstep decision-word walk."""
        config = self.config
        # The walk only descends from solved lanes' min_errors, so rows
        # above that (computed for still-retrying lanes) need no decision
        # words.
        rows_needed = int(state.min_errors[solved].max()) + 1
        decisions = build_wave_decisions(
            wave,
            state.stored_rows[:rows_needed],
            entry_compression=config.entry_compression,
        )
        tracebacks = lockstep_traceback(
            wave,
            decisions,
            start_errors=state.min_errors,
            budgets=np.array([p[3] for p in pending], dtype=np.int64),
            priority=config.match_priority,
            active=solved,
        )
        stored = state.stored_bytes()
        for lane, (s, _rev_p, _rev_t, _commit, wt_len, _budget) in enumerate(pending):
            tb = tracebacks[lane]
            if tb is None:
                continue
            self._apply_window(
                s,
                codes=tb.codes,
                pattern_consumed=tb.pattern_consumed,
                text_consumed=wt_len - tb.text_stop,
                rows=int(state.rows_computed[lane]),
                stored=int(stored[lane]),
                walk_steps=tb.walk_steps,
                match_runs=tb.match_runs,
                match_run_ops=tb.match_run_ops,
            )

    def _apply_window(
        self,
        s: _PairState,
        *,
        codes: np.ndarray,
        pattern_consumed: int,
        text_consumed: int,
        rows: int,
        stored: int,
        walk_steps: Optional[int] = None,
        match_runs: int = 0,
        match_run_ops: int = 0,
    ) -> None:
        # Single home of window accounting: the E-series counter and the
        # per-pair metadata tally advance together, once per committed
        # window (never per retry sub-wave).  Untraced insert-only windows
        # count one walk step per op and save nothing.
        if walk_steps is None:
            walk_steps = int(codes.size)
        saved = int(codes.size) - walk_steps
        s.tb_walk_steps += walk_steps
        s.tb_steps_saved += saved
        s.tb_match_runs += match_runs
        s.tb_match_run_ops += match_run_ops
        s.windows += 1
        s.counter.windows += 1
        s.peak_bytes = max(s.peak_bytes, stored)
        s.total_bytes += stored
        s.rows_total += rows
        s.code_chunks.append(codes)
        s.p += pattern_consumed
        s.t += text_consumed
        if pattern_consumed == 0:
            # Defensive: mirror align_windowed's forward-progress guard.
            s.done = True


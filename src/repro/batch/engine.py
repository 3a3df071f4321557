"""Vectorized batched-alignment engine (lockstep GenASM over NumPy lanes).

The scalar pipeline (:mod:`repro.core.windowing`) aligns one window at a
time with a Python-int hot loop.  For batch workloads the per-step work is
identical across pairs — the GenASM recurrence is the same five bitvector
operations regardless of the sequences — so this engine evaluates **many
window pairs in lockstep**: one multi-word lane per pair
(``W = ceil(window_size / 64)`` ``uint64`` words, see
:mod:`repro.batch.soa`), with the DP applied to all lanes at once as
NumPy array operations.  The DC scan walks the anti-diagonals of the
``(d, j)`` grid, one NumPy step per diagonal over every row and lane, and
stops once every lane has the rows it needs, so the Python interpreter
executes at most ``n_max + rows`` steps per *wave* instead of
``rows × n`` steps per *pair*, amortising interpreter overhead across the
wave width and the error levels.

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
* :class:`BatchAlignmentEngine` — the windowed aligner: all pairs advance
  their current window together, and finished pairs drop out of
  subsequent steps.  Each pair's cursors, DP accounting and metadata
  tallies are int64 arrays over the chunk, updated once per windowing
  step for the lanes it ran.  A windowing step runs at most two DC scans:
  one wave over every lane at its base budget, then, if some lane failed,
  one budget retry over the failed lanes at the window's full budget,
  which stops once every lane has found its solution row; every rung of
  the scalar budget ladder is charged from that row, by the one formula
  every attempt is charged with (:func:`_attempt_charges`).  It then
  traces every lane at once: one decision build over only the rows each
  lane can reach and one lockstep walk.  Each pair's CIGAR is built once
  per chunk, from one run-length encoding of every op the steps emitted.
  Mixed-length batches are scheduled into waves by expected lockstep work
  — window count × words per lane (see
  :meth:`BatchAlignmentEngine.schedule`) — so chunked lanes run in
  lockstep with similarly-sized neighbours.

Every configuration takes this lockstep path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.batch.soa import (
    MAX_LANE_BITS,
    SoAWave,
    entry_bytes,
    lane_words,
    lockstep_stats,
)
from repro.batch.traceback import (
    OPS_BY_CODE,
    LaneTraceback,
    build_wave_decisions,
    lockstep_traceback,
)
from repro.core.alignment import Alignment
from repro.core.cigar import Cigar, CigarOp
from repro.core.config import GenASMConfig
from repro.core.genasm_dc import DCTable
from repro.core.metrics import AccessCounter, MemoryFootprint

__all__ = [
    "BatchAlignmentEngine",
    "WaveDCState",
    "run_dc_wave_state",
]

_U1 = np.uint64(1)
_U0 = np.uint64(0)
_U63 = np.uint64(MAX_LANE_BITS - 1)

#: Packed op code of an insertion (see repro.batch.traceback.OPS_BY_CODE).
_INSERTION_CODE = list(OPS_BY_CODE).index(CigarOp.INSERTION)

#: The AccessCounter fields, then the per-pair window tallies the windowing
#: loop keeps beside them as arrays over a chunk.
_COUNTER_FIELDS = tuple(field.name for field in fields(AccessCounter))
_TALLIES = _COUNTER_FIELDS + (
    "window_rows",
    "peak_window_bytes",
    "total_stored_bytes",
    "tb_walk_steps",
    "tb_walk_steps_saved",
    "tb_match_runs",
    "tb_match_run_ops",
)

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


def _attempt_charges(
    budget: np.ndarray,
    rows: np.ndarray,
    n: np.ndarray,
    store_from: np.ndarray,
    entry_store: np.ndarray,
    entry_compression: bool,
) -> Dict[str, np.ndarray]:
    """Per-lane DP accounting of one GenASM-DC attempt, by counter field.

    Exactly what :func:`repro.core.genasm_dc.genasm_dc` charges an attempt
    at ``budget`` that evaluates ``rows`` of its ``budget + 1`` rows (early
    termination skips the rest) over an ``n``-column text, storing the
    columns from ``store_from`` at ``entry_store`` bytes per entry; its
    per-row updates are constant per attempt.  Takes ints or per-lane
    arrays alike.
    """
    stored_columns = n - np.maximum(0, store_from - 1)
    if entry_compression:
        writes = rows * (stored_columns + (store_from == 0))
    else:
        writes = rows * 4 * stored_columns
    return {
        "entries_computed": rows * n,
        "rows_computed": rows,
        "dp_writes": writes,
        "bytes_written": writes * entry_store,
        "rows_skipped": budget + 1 - rows,
    }


@dataclass
class WaveDCState:
    """Raw SoA outcome of one lockstep GenASM-DC wave.

    Keeps the stored rows exactly as the wave computed them, as one
    full-width multi-word ``uint64`` array — ``(rows, W, L, n_max + 1)``,
    a slice of the scan's table, or ``(rows, 4, W, L, n_max)`` of quad
    intermediates without entry compression — so the lockstep traceback
    can derive its decision words without ever materialising per-lane
    Python lists.  Band packing and traceback-reachability placeholders
    are applied lazily: :meth:`table` reproduces the scalar path's packed
    storage value for value, and
    :meth:`repro.batch.soa.SoAWave.zero_view_mask` imposes the same
    semantics on the decision planes.  The scan charges no DP accounting:
    the engine charges each attempt from :func:`_attempt_charges`.
    """

    wave: SoAWave
    entry_compression: bool
    early_termination: bool
    #: rows ``0 .. rows_computed.max() - 1``, in SoA layout
    stored_rows: np.ndarray
    #: final-column value per evaluated row, ``(rows, W, L)``
    final_cols: np.ndarray
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

        Used by :meth:`tables` and the differential tests, never by the
        engine's hot path.  The full-width wave rows
        are band-packed and placeholder-substituted here, reproducing the
        scalar storage exactly (``tests/test_batch_engine.py`` pins this
        state for state), and the table's counter holds the lane's
        attempt at the wave's budget, as :func:`_attempt_charges` charges it.
        """
        wave = self.wave
        rows_i = int(self.rows_computed[lane])
        n_i = int(wave.n[lane])
        m_i = int(wave.m[lane])
        found = int(self.min_errors[lane])
        store_from = int(wave.store_from[lane])
        band = wave.traceback_band
        ones_int = (1 << m_i) - 1
        band_lo = [int(x) for x in wave.band_lo[lane, : n_i + 1]]
        band_mask_int = (1 << int(wave.band_width[lane])) - 1

        charges = _attempt_charges(
            int(wave.k[lane]),
            rows_i,
            n_i,
            store_from,
            int(wave.entry_store[lane]),
            self.entry_compression,
        )
        table = DCTable(
            pattern=wave.patterns[lane],
            text=wave.texts[lane],
            max_errors=int(wave.k[lane]),
            entry_compression=self.entry_compression,
            early_termination=self.early_termination,
            traceback_band=band,
            store_from_column=store_from,
            counter=AccessCounter(**{name: int(v) for name, v in charges.items()}),
        )
        table.rows_computed = rows_i
        table.min_errors = found if found >= 0 else None
        table.final_column = self._lane_ints(self.final_cols[:rows_i, :, lane].T)
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
        """Materialise one scalar :class:`DCTable` per lane."""
        return [self.table(lane) for lane in range(self.wave.lanes)]


def _ladder(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Each lane's budget ladder, one rung per row: ``(rungs, L)``.

    The ladder of :func:`repro.core.windowing.align_window` doubles its
    budget from ``first`` up to ``last`` (``min(last, 2 b)``; a rung of 0
    climbs to 1); a lane whose ladder is shorter than the longest repeats
    its last rung.
    """
    rungs = [np.asarray(first, dtype=np.int64)]
    while (rungs[-1] < last).any():
        rungs.append(np.minimum(last, np.maximum(1, 2 * rungs[-1])))
    return np.stack(rungs)


def _store_from(
    n: np.ndarray, commit: np.ndarray, budget: np.ndarray, band: bool
) -> np.ndarray:
    """First stored text column of attempts that commit ``commit`` columns.

    :func:`repro.core.improvements.reachable_column_start` per lane, as
    :func:`repro.core.windowing.align_window` applies it: 0 without the
    band improvement.
    """
    return np.maximum(0, n - commit - budget - 1) if band else np.zeros_like(n)


def run_dc_wave_state(
    wave: SoAWave,
    *,
    entry_compression: bool = True,
    early_termination: bool = True,
    ladder_from: Optional[np.ndarray] = None,
) -> WaveDCState:
    """Run GenASM-DC over every lane of ``wave``, keeping the SoA state.

    This is the batch engine's hot path: the returned
    :class:`WaveDCState` feeds the lockstep traceback directly (via
    :func:`repro.batch.traceback.build_wave_decisions`).  Row ``d``
    depends only on row ``d - 1``, so the scan walks anti-diagonals: one
    NumPy step evaluates cell ``(d, t - d)`` of every row and lane from
    diagonals ``t - 1`` and ``t - 2``, ``n_max + k_max`` steps per wave.
    Shifts carry bit 63 of word ``w`` into bit 0 of word ``w + 1``
    (:func:`_shl1`).  Each lane's ``min_errors``, ``rows_computed`` (early
    termination included) and stored rows are read off the finished
    table, exactly where a row-by-row scan would have stopped.

    ``ladder_from`` marks a budget retry.  Each lane's budget ``wave.k``
    is then the last rung of the doubling ladder
    ``ladder_from -> 2 ladder_from -> ...`` (``ladder_from`` is the budget
    its first attempt failed at), and without early termination the model
    keeps a lane the rows of the first rung at or above its solution
    row.  A retry stops at the first anti-diagonal where every lane has
    those rows: from diagonal ``t = n_max`` on, row ``d = t - n_max`` is
    complete in every lane's final column, so each step tests the
    solution bits that settle row ``d``, and the scan takes ``n_max + d``
    steps for the deepest row ``d`` a lane needs instead of
    ``n_max + k_max``.  Any other scan evaluates every row (testing the
    rows would cost more than the few rows early termination leaves
    unread).  No scan charges DP accounting: its caller charges every
    attempt it models (:func:`_attempt_charges`).
    """
    L = wave.lanes
    W = wave.words
    n_max = wave.n_max
    rows = wave.k_max + 1
    n, k, ones, masks = wave.n, wave.k, wave.ones, wave.masks
    ladder = _ladder(k if ladder_from is None else ladder_from, k)
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

    if ladder_from is not None:
        # Row d settles lane l once the solution bit is zero in row
        # checkpoint[d, l]: row d itself with early termination, else the
        # deepest rung <= d.  Rows only gain solutions as d grows, so that
        # bit is zero iff the row the lane needs is at most d.  A lane
        # with no rung <= d yet probes row 0 at column 0, which holds its
        # ones and so no solution.
        depth = np.broadcast_to(row_idx[:, None], (rows, L))
        if early_termination:
            checkpoint = depth
        else:
            reached = ladder[:, None, :] <= depth
            checkpoint = np.where(reached, ladder[:, None, :], -1).max(axis=0)
        probes = (
            np.maximum(checkpoint, 0) * s_row
            + wave.msb_word * s_word
            + lane_idx * s_lane
            + np.where(checkpoint >= 0, n, 0) * s_col
        ) // table.itemsize
        flat = table.reshape(-1)
        solution_bit = _U1 << wave.msb_shift

    # Diagonals t - 1 and t by row, and (R << 1) & R of diagonal t - 1:
    # the subst & del term of the next step.
    prev, cur, subst_del = np.empty((3, rows, W, L), dtype=np.uint64)
    prev[0] = column0[0]
    scanned = rows  # rows complete in every lane's final column
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
        # Row t - n_max is complete in every final column: cell (d, n) was
        # written on diagonal d + n <= t.
        if (
            ladder_from is not None
            and t >= n_max
            and not (flat.take(probes[t - n_max]) & solution_bit).any()
        ):
            scanned = t - n_max + 1
            break

    # Where a row-by-row scan stops, read off the table: the first row
    # within each lane's budget whose final column holds the pattern.
    final = table[:scanned, :, lane_idx, n]  # (scanned, W, L)
    solution = ((final[:, wave.msb_word, lane_idx] >> wave.msb_shift) & _U1) == _U0
    solution &= row_idx[:scanned, None] <= k
    found = solution.any(axis=0)
    min_errors = np.where(found, solution.argmax(axis=0), -1)
    if early_termination:
        last_row = min_errors
    else:  # the first rung at or above the solution row
        last_row = np.where(ladder >= min_errors, ladder, k).min(axis=0)
    rows_computed = np.where(found, last_row, k) + 1
    evaluated = int(rows_computed.max())

    # Persist the rows full-width; the band packing and pruned-column
    # placeholders of the scalar storage are applied lazily (table(),
    # zero_view_mask), so the scan never pays per-column packing.
    if entry_compression:
        stored_rows = table[:evaluated]
    else:
        # Row 0 is the match term alone; ones stand in for the other three.
        shifted = _shl1(table[:evaluated]) & ones[:, :, None]
        stored_rows = np.empty((evaluated, 4, W, L, n_max), dtype=np.uint64)
        stored_rows[:, 0] = shifted[..., :-1] | masks
        stored_rows[0, 1:] = ones[:, :, None]
        stored_rows[1:, 1] = shifted[:-1, ..., :-1]
        stored_rows[1:, 2] = shifted[:-1, ..., 1:]
        stored_rows[1:, 3] = table[: evaluated - 1, ..., :-1]

    return WaveDCState(
        wave=wave,
        entry_compression=entry_compression,
        early_termination=early_termination,
        stored_rows=stored_rows,
        final_cols=final[:evaluated],
        rows_computed=rows_computed,
        min_errors=min_errors,
    )


def _cigars(
    owners: np.ndarray, codes: np.ndarray, pairs: int
) -> Tuple[List[Cigar], np.ndarray]:
    """Each pair's CIGAR and edit distance from a chunk's op codes.

    ``codes[i]`` is an op code (:data:`repro.batch.traceback.OPS_BY_CODE`)
    of pair ``owners[i]``; each pair's ops appear in emission order.  One
    run-length encoding over the ops sorted stably by pair splits wherever
    the op or the pair changes, so every run is maximal.
    """
    order = np.argsort(owners, kind="stable")
    owners, codes = owners[order], codes[order]
    new_run = np.ones(codes.size, dtype=bool)
    new_run[1:] = (owners[1:] != owners[:-1]) | (codes[1:] != codes[:-1])
    starts = np.flatnonzero(new_run)
    runs = list(
        zip(
            np.diff(np.append(starts, codes.size)).tolist(),
            OPS_BY_CODE[codes[starts]].tolist(),
        )
    )
    ends = np.cumsum(np.bincount(owners[starts], minlength=pairs)).tolist()
    cigars = [Cigar(tuple(runs[a:b])) for a, b in zip([0] + ends[:-1], ends)]
    # Every op but a match (code 0) is an edit.
    return cigars, np.bincount(owners[codes != 0], minlength=pairs)


class BatchAlignmentEngine:
    """Vectorized windowed GenASM aligner for batches of pairs.

    All pairs advance through their windows together: each iteration of the
    outer loop assembles one :class:`SoAWave` from every unfinished pair's
    current window and runs the lockstep DC kernel, then one budget retry
    over the lanes whose budget failed, at the window's full budget; it
    charges every rung of the scalar budget ladder, traces every lane back
    in one lockstep decision-word walk and advances the chunk's cursor
    arrays exactly as :func:`repro.core.windowing.align_windowed` would.

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
        """Align one chunk, every pair's cursors and tallies held as arrays.

        Each windowing step windows every live pair, emits a window with no
        text left as insertions, runs the rest through :meth:`_run_wave`
        and commits each walked window with one indexed add per tally;
        the CIGARs are built once, at the end (:func:`_cigars`).
        """
        config = self.config
        patterns = [pattern for pattern, _text in pairs]
        texts = [text for _pattern, text in pairs]
        m = np.array([len(pattern) for pattern in patterns], dtype=np.int64)
        n = np.array([len(text) for text in texts], dtype=np.int64)
        p, t = np.zeros_like(m), np.zeros_like(m)  # pattern and text cursors
        live = m > 0
        tally = {name: np.zeros(len(pairs), dtype=np.int64) for name in _TALLIES}
        # Every op code each windowing step emits, and the pair it belongs to.
        owners, codes = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int8)]

        while live.any():
            lanes = np.flatnonzero(live)
            remaining = m[lanes] - p[lanes]
            w = np.minimum(config.window_size, remaining)
            text_w = np.maximum(
                0, np.minimum(n[lanes] - t[lanes], w + config.text_slack)
            )
            commit = np.where(
                w >= remaining, w, np.maximum(1, np.minimum(w, config.window_step))
            )

            # No text left: the committed pattern prefix is emitted as
            # insertions without DP (align_window's empty-text return), one
            # walk step per op.
            empty = text_w == 0
            idle, inserted = lanes[empty], commit[empty]
            tally["windows"][idle] += 1
            tally["tb_walk_steps"][idle] += inserted
            p[idle] += inserted
            owners.append(np.repeat(idle, inserted))
            codes.append(np.full(int(inserted.sum()), _INSERTION_CODE, dtype=np.int8))

            if not empty.all():
                run = ~empty
                lanes, w, text_w, commit = lanes[run], w[run], text_w[run], commit[run]
                ids = lanes.tolist()
                order, tracebacks, rows, stored, entry = self._run_wave(
                    lanes,
                    [
                        patterns[i][a : a + b][::-1]
                        for i, a, b in zip(ids, p[lanes].tolist(), w.tolist())
                    ],
                    [
                        texts[i][a : a + b][::-1]
                        for i, a, b in zip(ids, t[lanes].tolist(), text_w.tolist())
                    ],
                    commit,
                    tally,
                )
                walked = lanes[order]
                ops, consumed, stop, reads, steps, runs, run_ops = np.array(
                    [
                        (
                            tb.codes.size,
                            tb.pattern_consumed,
                            tb.text_stop,
                            tb.dp_reads,
                            tb.walk_steps,
                            tb.match_runs,
                            tb.match_run_ops,
                        )
                        for tb in tracebacks
                    ],
                    dtype=np.int64,
                ).reshape(-1, 7).T
                p[walked] += consumed
                t[walked] += text_w[order] - stop
                # align_windowed's forward-progress guard.
                live[walked[consumed == 0]] = False
                tally["peak_window_bytes"][walked] = np.maximum(
                    tally["peak_window_bytes"][walked], stored
                )
                for name, value in (
                    ("tb_steps", ops),
                    ("dp_reads", reads),
                    ("bytes_read", reads * entry),
                    ("windows", 1),
                    ("window_rows", rows),
                    ("total_stored_bytes", stored),
                    ("tb_walk_steps", steps),
                    ("tb_walk_steps_saved", ops - steps),
                    ("tb_match_runs", runs),
                    ("tb_match_run_ops", run_ops),
                ):
                    tally[name][walked] += value
                owners.append(np.repeat(walked, ops))
                codes.append(np.concatenate([tb.codes for tb in tracebacks]))
            live &= p < m

        cigars, edits = _cigars(
            np.concatenate(owners), np.concatenate(codes), len(pairs)
        )
        if shared is not None:
            totals = {name: int(tally[name].sum()) for name in _COUNTER_FIELDS}
            shared.merge(AccessCounter(**totals))
        model_bytes = MemoryFootprint.from_config(config).bytes_for_config(config)
        columns = {
            "windows": tally["windows"],
            "rows_computed": tally["window_rows"],
            "peak_window_bytes": tally["peak_window_bytes"],
            "total_stored_bytes": tally["total_stored_bytes"],
            "dp_accesses": tally["dp_reads"] + tally["dp_writes"],
            "dp_bytes": tally["bytes_read"] + tally["bytes_written"],
            "model_window_bytes": np.full(len(pairs), model_bytes),
            "words_per_lane": np.full(len(pairs), self.words_per_lane),
            "tb_walk_steps": tally["tb_walk_steps"],
            "tb_walk_steps_saved": tally["tb_walk_steps_saved"],
            "tb_match_runs": tally["tb_match_runs"],
            "tb_match_run_ops": tally["tb_match_run_ops"],
        }
        per_pair = zip(*(values.tolist() for values in columns.values()))
        return [
            Alignment(
                pattern=pattern,
                text=text,
                cigar=cigar,
                edit_distance=edit,
                text_start=0,
                text_end=end,
                aligner=self.name,
                metadata=dict(zip(columns, row)),
            )
            for pattern, text, cigar, edit, end, row in zip(
                patterns, texts, cigars, edits.tolist(), t.tolist(), per_pair
            )
        ]

    # ------------------------------------------------------------------ #
    def _run_wave(
        self,
        pairs: np.ndarray,
        patterns: List[str],
        texts: List[str],
        commit: np.ndarray,
        tally: Dict[str, np.ndarray],
    ) -> Tuple[np.ndarray, List[LaneTraceback], np.ndarray, np.ndarray, np.ndarray]:
        """Run one windowing step for every lane: at most two DC scans, one walk.

        Lane ``l`` aligns the reversed windows ``patterns[l]`` and
        ``texts[l]`` of the chunk's pair ``pairs[l]`` and commits
        ``commit[l]`` pattern columns.  The base attempt is one
        :class:`SoAWave` and one DC scan (:func:`run_dc_wave_state`) over
        every lane at its base budget.  If some lane failed, one retry scan
        runs the failed lanes at the window's full budget — the last rung
        of the doubling ladder of :func:`repro.core.windowing.align_window`,
        which always solves — and stops at the first anti-diagonal where
        every lane has found its solution row ``e``.  GenASM-DC's rows do
        not depend on the budget, so ``e`` names the rung that would have
        solved the lane: the first attempt, each failed rung and the
        solving rung are charged exactly the DP accounting the scalar
        ladder charges (:func:`_attempt_charges`), and the retry wave is
        masked with each lane's solving rung (:meth:`SoAWave.set_budgets`).
        Then one decision build lays out, per lane, rows ``0..min_errors``
        of the scan that solved it
        (:func:`repro.batch.traceback.build_wave_decisions`), and one
        lockstep walk traces every lane
        (:func:`repro.batch.traceback.lockstep_traceback`).

        Adds every attempt's DP accounting to the pairs' columns of
        ``tally`` and returns the lanes in walk order, the walk's records
        and, per walked lane, the rows, stored bytes and entry size of the
        scan that solved it; the caller commits the windows.
        """
        config = self.config
        band = config.traceback_band
        m = np.array([len(pattern) for pattern in patterns], dtype=np.int64)
        n = np.array([len(text) for text in texts], dtype=np.int64)

        def charge(lanes: np.ndarray, values: Dict[str, np.ndarray]) -> None:
            for name, value in values.items():
                tally[name][pairs[lanes]] += value

        def scan(lanes: np.ndarray, budgets: np.ndarray, ladder_from=None):
            wave = SoAWave(
                [patterns[lane] for lane in lanes.tolist()],
                [texts[lane] for lane in lanes.tolist()],
                budgets,
                _store_from(n[lanes], commit[lanes], budgets, band),
                traceback_band=band,
            )
            return run_dc_wave_state(
                wave,
                entry_compression=config.entry_compression,
                early_termination=config.early_termination,
                ladder_from=ladder_from,
            )

        every = np.arange(pairs.size)
        budgets = np.maximum(1, np.minimum(m, config.k))
        state = scan(every, budgets)
        wave = state.wave
        charge(
            every,
            _attempt_charges(
                wave.k,
                state.rows_computed,
                wave.n,
                wave.store_from,
                wave.entry_store,
                config.entry_compression,
            ),
        )
        solved = state.min_errors >= 0
        blocks = [(state, np.where(solved, state.min_errors + 1, 0))]
        rows = state.rows_computed.copy()
        stored = state.stored_bytes()
        entry = wave.entry_store.copy()
        failed = np.flatnonzero(~solved)
        if failed.size:
            first, full = budgets[failed], m[failed]
            retry = scan(failed, full, ladder_from=first)
            e = retry.min_errors
            if (e < 0).any():
                raise AssertionError(
                    "GenASM window failed with a full error budget (internal error)"
                )
            # Each rung past the first up to the first at or above e is an
            # attempt align_window would have run: a failed rung b evaluates
            # b + 1 rows, the solving rung e + 1 with early termination.
            ladder = _ladder(first, full)
            for below, rung in zip(ladder[:-1], ladder[1:]):
                climbed = np.flatnonzero(below < e)
                if not climbed.size:
                    break
                lanes, budget = failed[climbed], rung[climbed]
                evaluated = budget + 1
                if config.early_termination:
                    evaluated = np.minimum(budget, e[climbed]) + 1
                charge(
                    lanes,
                    _attempt_charges(
                        budget,
                        evaluated,
                        n[lanes],
                        _store_from(n[lanes], commit[lanes], budget, band),
                        entry_bytes(m[lanes], budget, band),
                        config.entry_compression,
                    ),
                )
            solving = np.where(ladder >= e, ladder, full).min(axis=0)
            retry.wave.set_budgets(
                solving, _store_from(n[failed], commit[failed], solving, band)
            )
            blocks.append((retry, e + 1))
            rows[failed] = retry.rows_computed
            stored[failed] = retry.stored_bytes()
            entry[failed] = retry.wave.entry_store

        decisions = build_wave_decisions(blocks)
        order = np.concatenate([np.flatnonzero(solved), failed])
        tracebacks = lockstep_traceback(
            decisions, budgets=commit[order], priority=config.match_priority
        )
        return order, tracebacks, rows[order], stored[order], entry[order]

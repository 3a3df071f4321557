"""Vectorized batched-alignment engine (lockstep GenASM over NumPy lanes).

The scalar pipeline (:mod:`repro.core.windowing`) aligns one window at a
time with a Python-int hot loop.  For batch workloads the per-step work is
identical across pairs — the GenASM recurrence is the same five bitvector
operations regardless of the sequences — so this engine evaluates **many
window pairs in lockstep**: one multi-word lane per pair
(``W = ceil(window_size / 64)`` ``uint64`` words, see
:mod:`repro.batch.soa`), with the DP step ``(d, j)`` applied to all lanes
at once as NumPy array operations.  The Python interpreter then executes
``rows × n_max`` steps per *wave* instead of ``rows × n`` steps per
*pair*, amortising interpreter overhead across the wave width.

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
  :class:`repro.batch.soa.SoAWave`; returns a :class:`WaveDCState` keeping
  the stored rows in SoA layout (what the lockstep traceback consumes).
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

Only configurations with ``word_bits != 64`` fall back to the scalar
aligner (the SoA layout is built from ``uint64`` words); the fallback is
recorded in each alignment's ``metadata["vectorized"]`` and warned about
once per process per reason (see :data:`_FALLBACK_WARNED` and
:attr:`BatchAlignmentEngine.vectorizable`).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    "align_pairs_vectorized",
    "SCHEDULING_POLICIES",
]

#: Wave-scheduling policies accepted by :class:`BatchAlignmentEngine`.
SCHEDULING_POLICIES = ("sorted", "fifo")

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

#: Fallback reasons already warned about in this process, keyed by the
#: reason string.  Module-level on purpose: services construct engines per
#: worker or per request, so a per-instance flag would re-emit the same
#: ``RuntimeWarning`` endlessly for one configuration problem.  Tests
#: clear this set to re-arm the warning.
_FALLBACK_WARNED: set = set()


def _shl1(value: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """Multi-word ``(value << 1) & ones`` with cross-word carry.

    ``value`` has the word axis first; bit 63 of word ``w`` shifts into bit
    0 of word ``w + 1``.  ``ones`` must broadcast against ``value``.
    """
    out = value << _U1
    if out.shape[0] > 1:
        out[1:] |= value[:-1] >> _U63
    out &= ones
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
    #: per evaluated row: full-width R ``(W, L, n_max + 1)`` or 4-tuple of
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
            word_bits=wave.word_bits,
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
    Lanes terminate independently (budget exhausted, or solution found when
    early termination is on); the wave stops once every lane is done.
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
    Lanes are ``wave.words`` ``uint64`` words wide; every shift in the
    recurrence carries bit 63 of word ``w`` into bit 0 of word ``w + 1``
    (:func:`_shl1`), and the solution test probes each lane's
    ``(msb_word, msb_shift)``.  Per-lane DP accounting (entries, rows,
    writes, skipped rows) is charged to each lane's counter before
    returning.
    """
    L = wave.lanes
    W = wave.words
    n_max = wave.n_max
    m, n, k, ones, masks = wave.m, wave.n, wave.k, wave.ones, wave.masks
    lane_idx = np.arange(L)
    msb_word, msb_shift = wave.msb_word, wave.msb_shift
    ones_cols = ones[:, :, None]
    word_base = (np.arange(W, dtype=np.int64) * MAX_LANE_BITS)[:, None]
    multi_word = W > 1

    R_prev = np.zeros((W, L, n_max + 1), dtype=np.uint64)
    R_cur = np.zeros((W, L, n_max + 1), dtype=np.uint64)

    rows_computed = np.zeros(L, dtype=np.int64)
    min_errors = np.full(L, -1, dtype=np.int64)
    done = np.zeros(L, dtype=bool)

    stored_rows: List[object] = []  # per row: R (W, L, n_max+1) or 4-tuple of (W, L, n_max)
    final_cols: List[np.ndarray] = []

    for d in range(wave.k_max + 1):
        computing = (~done) & (d <= k)
        if not computing.any():
            break

        # Column 0: pattern prefixes alignable against the empty text
        # suffix — (ones << d) & ones, i.e. ones with the d low bits
        # cleared; per word w that clears clamp(d - 64 w, 0, 64) bits
        # (rows at or past a lane's pattern length come out all zero).
        row0 = ones & _CLEAR_LOW[np.clip(d - word_base, 0, MAX_LANE_BITS)]
        R_cur[:, :, 0] = row0

        # Lockstep scan along the text.  The match chain is a sequential
        # dependency (value[j] needs value[j-1]), so j stays a Python loop;
        # everything without that dependency is hoisted out and vectorized
        # over all columns at once.
        partial = None
        if d > 0:
            subst_all = _shl1(R_prev[:, :, :-1], ones_cols)
            ins_all = _shl1(R_prev[:, :, 1:], ones_cols)
            partial = subst_all & ins_all & R_prev[:, :, :-1]
        prev_value = row0
        for j in range(1, n_max + 1):
            shifted = prev_value << _U1
            if multi_word:
                shifted[1:] |= prev_value[:-1] >> _U63
            value = (shifted & ones) | masks[:, :, j - 1]
            if partial is not None:
                value &= partial[:, :, j - 1]
            R_cur[:, :, j] = value
            prev_value = value

        # Persist the row full-width; the band packing and pruned-column
        # placeholders of the scalar storage are applied lazily (table(),
        # zero_view_mask), so the hot loop never pays per-column packing.
        if entry_compression:
            stored_rows.append(R_cur.copy())
        else:
            if d == 0:
                match_row = R_cur[:, :, 1:].copy()
                placeholder = np.broadcast_to(ones_cols, (W, L, n_max))
                subst_row = ins_row = del_row = placeholder
            else:
                match_row = _shl1(R_cur[:, :, :-1], ones_cols) | masks
                subst_row, ins_row = subst_all, ins_all
                del_row = R_prev[:, :, :-1].copy()
            stored_rows.append((match_row, subst_row, ins_row, del_row))

        final_val = R_cur[:, lane_idx, n]  # (W, L)
        final_cols.append(final_val)
        rows_computed[computing] += 1

        solution = ((final_val[msb_word, lane_idx] >> msb_shift) & _U1) == _U0
        newly = computing & solution & (min_errors < 0)
        min_errors[newly] = d
        if early_termination:
            done |= newly
        done |= computing & (d >= k)

        R_prev, R_cur = R_cur, R_prev

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
        final_cols=final_cols,
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
        workloads take the lockstep path too.  Only ``word_bits != 64``
        falls back to the scalar aligner (the SoA layout is built from
        64-bit words); the fallback is observable via
        ``metadata["vectorized"]`` and a one-time :class:`RuntimeWarning`.
    name:
        Label attached to produced alignments.
    max_lanes:
        Optional cap on concurrent lanes; larger batches are processed in
        chunks of this many pairs (bounds wave memory).
    scheduling:
        Wave-scheduling policy: ``"sorted"`` (default) orders lanes by
        expected lockstep work — window count × words per lane
        (:meth:`expected_work`) — before chunking, so each
        ``max_lanes``-wide chunk runs lanes of similar lifetime in lockstep
        (returned alignments are always restored to input order);
        ``"fifo"`` chunks in input order.  The policy never changes any
        alignment — only the lockstep efficiency of mixed-length batches
        (see :meth:`scheduling_stats`).
    """

    def __init__(
        self,
        config: Optional[GenASMConfig] = None,
        *,
        name: str = "genasm-vectorized",
        max_lanes: Optional[int] = None,
        scheduling: str = "sorted",
    ) -> None:
        self.config = config if config is not None else GenASMConfig()
        self.name = name
        if max_lanes is not None and max_lanes < 1:
            raise ValueError("max_lanes must be at least 1")
        if scheduling not in SCHEDULING_POLICIES:
            raise ValueError(
                f"scheduling must be one of {SCHEDULING_POLICIES}, got {scheduling!r}"
            )
        self.max_lanes = max_lanes
        self.scheduling = scheduling
        #: running traceback observability across every wave this engine
        #: ran: lockstep iterations, ops the skip-ahead saved over them,
        #: match runs consumed whole (and their op total), wall-clock
        #: seconds in the traceback phase
        self.traceback_stats: Dict[str, float] = {
            "walk_steps": 0,
            "steps_saved": 0,
            "match_runs": 0,
            "match_run_ops": 0,
            "seconds": 0.0,
        }

    @property
    def vectorizable(self) -> bool:
        """Whether this configuration fits the multi-word uint64 lane layout.

        Any ``window_size`` vectorizes (wide windows just use more words
        per lane); only a non-64 ``word_bits`` — which changes the scalar
        path's modelled entry sizes — forces the scalar fallback.
        """
        return self.config.word_bits == 64

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

        With ``"sorted"`` scheduling, indices are stably ordered by
        expected lockstep work (:meth:`expected_work`) so lanes of similar
        lifetime share a chunk — lanes of dissimilar window counts or word
        widths pad each other's waves (the SIMT warp-divergence cost
        :func:`repro.batch.soa.lockstep_stats` models).  ``"fifo"`` returns
        the identity order.
        """
        if self.scheduling == "fifo":
            return list(range(len(pairs)))
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
        stats = lockstep_stats(work, group)
        # Fold in the engine's running traceback observability (zeros
        # until this engine has aligned something) so one call reports
        # both the schedule model and the realised walk savings.
        for key, value in self.traceback_stats.items():
            stats[f"tb_{key}"] = value
        return stats

    def publish_metrics(self, registry) -> None:
        """Publish this engine's counters into a telemetry ``MetricsRegistry``.

        Names live under ``engine_*`` (see :mod:`repro.telemetry.metrics`):
        the running :attr:`traceback_stats` become ``set_total``'d counters
        (idempotent — re-publishing never double-counts).
        """
        stats = self.traceback_stats
        for field, name in (
            ("walk_steps", "engine_tb_walk_steps_total"),
            ("steps_saved", "engine_tb_steps_saved_total"),
            ("match_runs", "engine_tb_match_runs_total"),
            ("match_run_ops", "engine_tb_match_run_ops_total"),
        ):
            registry.counter(name).set_total(stats[field])
        registry.gauge("engine_tb_seconds").set(stats["seconds"])

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
        replicate), and always records ``vectorized`` / ``words_per_lane``
        so a scalar fallback is observable.
        """
        if not self.vectorizable:
            reason = f"word_bits={self.config.word_bits}"
            if reason not in _FALLBACK_WARNED:
                _FALLBACK_WARNED.add(reason)
                warnings.warn(
                    f"BatchAlignmentEngine({self.name!r}): config with "
                    f"{reason} does not fit the uint64 lane layout; "
                    "falling back to the scalar per-pair aligner for "
                    "every batch (warned once per process per reason)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            from repro.core.aligner import GenASMAligner

            aligner = GenASMAligner(self.config, name=self.name)
            alignments = [aligner.align(p, t, counter=counter) for p, t in pairs]
            for alignment in alignments:
                alignment.metadata["vectorized"] = False
                alignment.metadata["words_per_lane"] = self.words_per_lane
            return alignments

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
                "vectorized": True,
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
            wave = SoAWave(
                jobs, traceback_band=config.traceback_band, word_bits=config.word_bits
            )
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
                start = time.perf_counter()
                self._traceback_solved_lanes(state, wave, pending, solved)
                self.traceback_stats["seconds"] += time.perf_counter() - start
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
            skip_ahead=config.traceback_skip_ahead,
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
        stats = self.traceback_stats
        stats["walk_steps"] += walk_steps
        stats["steps_saved"] += saved
        stats["match_runs"] += match_runs
        stats["match_run_ops"] += match_run_ops
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


def align_pairs_vectorized(
    pairs: Sequence[Tuple[str, str]],
    config: Optional[GenASMConfig] = None,
    *,
    counter: Optional[AccessCounter] = None,
) -> List[Alignment]:
    """One-shot convenience wrapper over :class:`BatchAlignmentEngine`."""
    return BatchAlignmentEngine(config).align_pairs(pairs, counter=counter)

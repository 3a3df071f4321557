"""Structure-of-arrays (SoA) lane layout for batched GenASM windows.

The vectorized batch engine evaluates many window pairs *in lockstep*: at
DP step ``(d, j)`` every lane (one lane = one window pair) performs the same
bitvector operation on its own machine words.  This module owns the lane
layout — the transposition from a list of per-window Python objects into
NumPy ``uint64`` arrays indexed ``[word, lane]`` or ``[word, lane, column]``
— so the engine's hot loop touches only contiguous arrays.

A lane is **multi-word**: a window of ``m`` pattern characters occupies
``W = ceil(m / 64)`` ``uint64`` words, with word 0 holding logical bits
0..63 (the least-significant part of the pattern, matching
:mod:`repro.core.bitvector`'s word-array convention).  Every wave-wide
array therefore carries a leading word axis of length
:attr:`SoAWave.words` — the maximum word count over the wave's lanes —
and the DC recurrence propagates the shifted bit across words (see
:func:`repro.batch.engine.run_dc_wave_state`).  ``W == 1`` reproduces the
original single-word layout exactly.

The same layout is what a GPU implementation would use: one warp lane per
window pair (W words per lane in registers), pattern masks staged in shared
memory, per-lane band offsets in registers.  :func:`lockstep_stats`
quantifies the cost of that lockstep execution (lanes in a group wait for
the slowest member), which :class:`repro.gpu.simulator.GpuSimulator` uses
to model warp divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.bitvector import DNA_ALPHABET
from repro.core.metrics import AccessCounter

__all__ = [
    "LaneJob",
    "SoAWave",
    "lockstep_stats",
    "lane_words",
]

#: Bits per lane word (one ``uint64`` per word of a lane).
MAX_LANE_BITS = 64

#: ``_LOW_ONES[c]`` has the ``c`` low bits set (``c`` in 0..64); the
#: shift-free way to build width masks per word, since ``uint64 << 64`` is
#: undefined in NumPy.
_LOW_ONES = np.array([(1 << c) - 1 for c in range(MAX_LANE_BITS + 1)], dtype=np.uint64)
_U0 = np.uint64(0)

#: ``bytes.translate`` tables for :meth:`SoAWave._build_masks`: every byte
#: outside the DNA alphabet (``N``, lowercase, ``U``, padding) becomes a
#: pattern-side and a different text-side sentinel, so it matches nothing —
#: the rule of :func:`pattern_bitmasks_zero_match`.
_PATTERN_BYTES = bytes(c if chr(c) in DNA_ALPHABET else 1 for c in range(256))
_TEXT_BYTES = bytes(c if chr(c) in DNA_ALPHABET else 2 for c in range(256))


def lane_words(pattern_bits: int) -> int:
    """Number of ``uint64`` words a lane of ``pattern_bits`` bits occupies."""
    return max(1, -(-max(pattern_bits, 1) // MAX_LANE_BITS))


def _per_word_ones(m: np.ndarray, words: int) -> np.ndarray:
    """All-ones words for per-lane bit widths ``m``: shape ``(words, L)``.

    Word ``w`` of lane ``i`` has its low ``clamp(m[i] - 64 w, 0, 64)`` bits
    set — the multi-word generalisation of
    :func:`repro.core.bitvector.all_ones`.  The differential tests pin this
    (and the other vectorized re-derivations below) to the scalar helpers
    in :mod:`repro.core.improvements`.
    """
    word_base = (np.arange(words, dtype=np.int64) * MAX_LANE_BITS)[:, None]
    width = np.clip(m[None, :] - word_base, 0, MAX_LANE_BITS)
    return _LOW_ONES[width]


@dataclass
class LaneJob:
    """One window pair occupying one (possibly multi-word) lane of a wave.

    ``pattern`` and ``text`` are the *reversed* window sequences (the same
    anchoring trick :mod:`repro.core.windowing` uses), ``max_errors`` the
    clamped per-lane error budget, and ``store_from`` the first text column
    whose entries are persisted (traceback-reachability pruning).  Patterns
    wider than 64 characters simply occupy more words per lane.
    """

    pattern: str
    text: str
    max_errors: int
    store_from: int = 0
    counter: AccessCounter = field(default_factory=AccessCounter)

    def __post_init__(self) -> None:
        if len(self.pattern) == 0:
            raise ValueError("lane pattern must be non-empty")
        if len(self.text) == 0:
            raise ValueError("lane text must be non-empty (empty windows are handled scalar-side)")


class SoAWave:
    """SoA arrays for one wave of lanes, ready for the lockstep DP.

    Attributes (``L`` lanes, ``W`` words/lane, ``n_max`` = longest lane text):

    ``words``
        ``W = max(ceil(m / 64))`` over the wave's lanes — every lane's
        bitvectors are carried in this many ``uint64`` words.
    ``m``, ``n``, ``k``
        int64 ``(L,)`` — pattern length, text length, error budget.
    ``ones``
        uint64 ``(W, L)`` — per-lane all-ones bitvector, word-sliced.
    ``masks``
        uint64 ``(W, L, n_max)`` — GenASM zero-match pattern mask for each
        lane's text character; columns beyond a lane's text are padded with
        that lane's ``ones`` (never consumed).
    ``msb_word``, ``msb_shift``
        int64 / uint64 ``(L,)`` — word index and in-word shift of each
        lane's most significant pattern bit (``m - 1``), for the
        solution-found test.
    ``band_lo``
        int64 ``(L, n_max + 1)`` — *logical* band offset per column (all
        zeros when the band improvement is off), clamped to ``[0, m - 1]``.
        Unlike the stored-row layout of the scalar path, wave rows are kept
        full-width; banding is applied lazily via :meth:`zero_view_mask`
        and :meth:`repro.batch.engine.WaveDCState.table`.
    ``band_width``
        int64 ``(L,)`` — stored band width ``min(m, 2k + 2)`` per lane.
    ``store_from``, ``entry_store``
        int64 ``(L,)`` — first persisted column and bytes per stored entry
        (multi-word entries store ``ceil(width / unit)`` units).

    ``k``, ``k_max``, the band fields, ``store_from``, ``store_col`` and
    ``entry_store`` depend on the budgets; :meth:`set_budgets` derives
    them, and can derive them again for other budgets.
    """

    def __init__(self, jobs: Sequence[LaneJob], *, traceback_band: bool) -> None:
        if not jobs:
            raise ValueError("a wave needs at least one lane")
        self.jobs = list(jobs)
        L = len(self.jobs)
        self.lanes = L
        self.traceback_band = traceback_band

        self.m = np.array([len(j.pattern) for j in self.jobs], dtype=np.int64)
        self.n = np.array([len(j.text) for j in self.jobs], dtype=np.int64)
        self.n_max = int(self.n.max())
        self.words = lane_words(int(self.m.max()))
        self.ones = _per_word_ones(self.m, self.words)  # m >= 1 per LaneJob
        self.msb_word = (self.m - 1) // MAX_LANE_BITS
        self.msb_shift = ((self.m - 1) % MAX_LANE_BITS).astype(np.uint64)
        self.masks = self._build_masks()
        self.set_budgets(
            np.array([j.max_errors for j in self.jobs], dtype=np.int64),
            np.array([j.store_from for j in self.jobs], dtype=np.int64),
        )

    def set_budgets(self, max_errors: np.ndarray, store_from: np.ndarray) -> None:
        """Derive every field that depends on the lanes' error budgets.

        ``max_errors`` and ``store_from`` are per-lane ``(L,)`` arrays,
        clamped as the scalar :func:`repro.core.genasm_dc.genasm_dc`
        clamps them.  Sets ``k``, ``k_max``, ``store_from``, ``band_lo``,
        ``band_width``, ``store_col`` and ``entry_store``, and drops the
        cached :meth:`zero_view_mask`.  The constructor calls it with the
        jobs' budgets; the batch engine calls it again on a budget retry's
        wave with the rung that solved each lane, so the lane's stored
        state is masked as that rung's attempt would have stored it.  The
        text masks do not depend on the budget and are kept.
        """
        L = self.lanes
        self.k = np.clip(np.asarray(max_errors, dtype=np.int64), 0, self.m)
        self.k_max = int(self.k.max())
        if self.traceback_band:
            self.store_from = np.clip(np.asarray(store_from, dtype=np.int64), 0, self.n)
        else:
            self.store_from = np.zeros(L, dtype=np.int64)
        self._zero_view_mask: Optional[np.ndarray] = None

        cols = np.arange(self.n_max + 1, dtype=np.int64)
        if self.traceback_band:
            lo = (self.m[:, None] - 1) - (self.n[:, None] - cols[None, :]) - self.k[:, None]
            self.band_lo = np.clip(lo, 0, np.maximum(self.m - 1, 0)[:, None])
        else:
            self.band_lo = np.zeros((L, self.n_max + 1), dtype=np.int64)
        # band_width(m, k), vectorized; never zero because m >= 1.
        self.band_width = np.minimum(self.m, 2 * self.k + 2)
        #: columns that are persisted per lane (inside the lane's text and
        #: at/after its store_from column)
        self.store_col = (cols[None, :] >= self.store_from[:, None]) & (
            cols[None, :] <= self.n[:, None]
        )
        # entry_bytes, vectorized: full words without the band improvement,
        # else the smallest power-of-two unit (8..64 bits), taken
        # ceil(width / unit) times when the band is wider than a word.
        if not self.traceback_band:
            self.entry_store = np.maximum(1, -(-self.m // MAX_LANE_BITS)) * 8
        else:
            target = np.minimum(self.band_width, MAX_LANE_BITS)
            unit = np.full(L, 8, dtype=np.int64)
            while (unit < target).any():  # 8 -> 16 -> 32 -> 64
                unit = np.where(unit < target, unit * 2, unit)
            self.entry_store = (
                (unit // 8) * np.maximum(1, -(-self.band_width // unit))
            ).astype(np.int64)

    # ------------------------------------------------------------------ #
    def zero_view_mask(self) -> np.ndarray:
        """Word mask of bits that may read as *active* through the scalar accessors.

        Shape ``(W, L, n_max + 1)``.  Bit ``b`` of word ``w`` is set iff the
        scalar band-aware accessors (:meth:`repro.core.genasm_dc.DCTable.r_bit`
        / ``quad_bit``) could report logical bit ``64 w + b`` of that
        (lane, column) entry as zero-active: the bit lies inside the lane's
        pattern, the column is persisted (``store_col``), and — with the
        band improvement — the bit falls inside the stored band
        ``[band_lo, band_lo + band_width)``.  The decision-plane builder
        ANDs this into its zero views, which is what lets wave rows stay
        full-width (no store-time band packing) while remaining
        bit-identical to the scalar packed storage.
        """
        if self._zero_view_mask is None:
            mask = np.where(self.store_col[None, :, :], self.ones[:, :, None], _U0)
            if self.traceback_band:
                word_base = (np.arange(self.words, dtype=np.int64) * MAX_LANE_BITS)[
                    :, None, None
                ]
                lo = self.band_lo[None, :, :]
                hi = lo + self.band_width[:, None][None, :, :]
                window = _LOW_ONES[np.clip(hi - word_base, 0, MAX_LANE_BITS)] & ~_LOW_ONES[
                    np.clip(lo - word_base, 0, MAX_LANE_BITS)
                ]
                mask &= window
            self._zero_view_mask = mask
        return self._zero_view_mask

    # ------------------------------------------------------------------ #
    def _build_masks(self) -> np.ndarray:
        """GenASM zero-match text masks for every lane, built in bulk.

        Equivalent to ``pattern_bitmasks_zero_match`` per lane and text
        character, but computed as one boolean character-equality tensor
        packed into ``uint64`` words (``np.packbits``), so wave setup stays
        O(array ops) instead of O(lanes × window) Python-dict lookups.
        Returns ``(W, L, n_max)``; word ``w`` holds pattern bits
        ``64 w .. 64 w + 63``.  A character outside Latin-1 encodes as one
        ``?``, which the translate tables turn into a sentinel like any
        other non-ACGT character.
        """
        L = self.lanes
        W = self.words
        pad = W * MAX_LANE_BITS
        pattern_buffer = b"".join(
            job.pattern.encode("latin-1", "replace").ljust(pad, b"\x00")
            for job in self.jobs
        ).translate(_PATTERN_BYTES)
        text_buffer = b"".join(
            job.text.encode("latin-1", "replace").ljust(self.n_max, b"\x00")
            for job in self.jobs
        ).translate(_TEXT_BYTES)

        patterns = np.frombuffer(pattern_buffer, dtype=np.uint8).reshape(L, pad)
        texts = np.frombuffer(text_buffer, dtype=np.uint8).reshape(L, self.n_max)
        # match[lane, j, i]: does pattern bit i match text character j?
        # (Non-ACGT bytes and padding became sentinels that never match.)
        match = patterns[:, None, :] == texts[:, :, None]
        # Explicit little-endian view: packbits(bitorder="little") fills
        # logical bits 8k..8k+7 into byte k, which only matches a native
        # uint64 view on little-endian hosts.
        match_words = (
            np.ascontiguousarray(np.packbits(match, axis=2, bitorder="little"))
            .view("<u8")
            .astype(np.uint64)
        )
        match_words = np.moveaxis(match_words, 2, 0)  # (W, L, n_max)
        # Zero-active semantics: bit i is 0 iff the characters match;
        # padded columns read as "matches nowhere" (the lane's ones).
        return self.ones[:, :, None] & ~match_words


def lockstep_stats(work: Sequence[float], group_size: int) -> Dict[str, float]:
    """Efficiency of executing ``work`` units in lockstep groups.

    Lanes are packed into groups of ``group_size``; a group's lanes run in
    lockstep, so every lane occupies its slot for as long as the group's
    slowest member (this is exactly SIMT warp divergence, and also the
    wave-padding cost of the SoA batch engine).  Returns the useful work,
    the slot-time actually consumed, and their ratio (``efficiency``).
    """
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    items = [float(w) for w in work]
    if not items:
        return {"groups": 0, "useful_work": 0.0, "lockstep_work": 0.0, "efficiency": 1.0}
    useful = sum(items)
    lockstep = 0.0
    groups = 0
    for start in range(0, len(items), group_size):
        group = items[start : start + group_size]
        lockstep += max(group) * len(group)
        groups += 1
    return {
        "groups": groups,
        "useful_work": useful,
        "lockstep_work": lockstep,
        "efficiency": useful / lockstep if lockstep > 0 else 1.0,
    }

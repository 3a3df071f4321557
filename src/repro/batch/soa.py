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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitvector import DNA_ALPHABET, pattern_bitmasks_zero_match
from repro.core.metrics import AccessCounter

__all__ = [
    "LaneJob",
    "SoAWave",
    "WaveDescriptor",
    "SharedWave",
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


def _unregister_attachment(shm) -> None:
    """Stop the resource tracker from adopting an *attached* segment.

    On Python ≤ 3.12, ``SharedMemory(name=...)`` registers the segment with
    the attaching process's resource tracker, which then unlinks it when
    that process exits — destroying a segment the creating process still
    owns (bpo-39959).  Attachments therefore unregister immediately;
    unlinking stays the creator's sole responsibility.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker layout is CPython detail
        pass


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


#: The array fields a wave descriptor lays out, in buffer order:
#: ``name -> (dtype, shape builder)``.  Widest dtypes first keeps every
#: offset naturally aligned without padding games; the two ``*_data``
#: blobs (latin-1/utf-8 encoded lane sequences) close the buffer because
#: their byte alignment is 1.
_WAVE_ARRAY_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("masks", np.uint64),
    ("ones", np.uint64),
    ("msb_shift", np.uint64),
    ("m", np.int64),
    ("n", np.int64),
    ("k", np.int64),
    ("msb_word", np.int64),
    ("store_from", np.int64),
    ("band_lo", np.int64),
    ("band_width", np.int64),
    ("entry_store", np.int64),
    ("pattern_off", np.int64),
    ("text_off", np.int64),
    ("store_col", np.bool_),
    ("pattern_data", np.uint8),
    ("text_data", np.uint8),
)

#: Buffer alignment of every non-blob field offset (bytes).
_ALIGN = 8


@dataclass(frozen=True)
class WaveDescriptor:
    """Plain-buffer layout of one :class:`SoAWave` — metadata, no arrays.

    A descriptor plus the buffer it describes is everything needed to
    materialise a wave: ``arrays`` maps each SoA field to its
    ``(dtype, shape, offset)`` inside a contiguous ``nbytes`` buffer, and
    the scalar fields carry the wave geometry.  Descriptors are tiny and
    picklable, which is what lets the shared-memory execution layer ship
    *descriptors* across process boundaries while the arrays stay put in a
    :mod:`multiprocessing.shared_memory` segment (``segment`` names it).

    Lane sequences travel inside the same buffer (``pattern_data`` /
    ``text_data`` blobs with ``pattern_off`` / ``text_off`` offset arrays,
    utf-8 encoded), so a rebuilt wave can materialise per-lane
    :class:`~repro.core.genasm_dc.DCTable` objects without any side
    channel.  Rebuilt lanes get *fresh* access counters:
    DP accounting belongs to whichever process executes the wave.
    """

    lanes: int
    words: int
    n_max: int
    k_max: int
    traceback_band: bool
    word_bits: int
    nbytes: int
    #: ``(name, dtype string, shape, byte offset)`` per packed array.
    arrays: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    #: Shared-memory segment name holding the buffer (``None`` = caller
    #: supplies the buffer).
    segment: Optional[str] = None

    def with_segment(self, segment: Optional[str]) -> "WaveDescriptor":
        """Copy of this descriptor pointing at a named shared segment."""
        return WaveDescriptor(
            lanes=self.lanes,
            words=self.words,
            n_max=self.n_max,
            k_max=self.k_max,
            traceback_band=self.traceback_band,
            word_bits=self.word_bits,
            nbytes=self.nbytes,
            arrays=self.arrays,
            segment=segment,
        )

    def views(self, buffer) -> Dict[str, np.ndarray]:
        """Materialise every packed array as a view over ``buffer``.

        No bytes are copied: each returned array aliases ``buffer`` at its
        recorded offset (read-only if the buffer is).
        """
        out: Dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in self.arrays:
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            out[name] = np.frombuffer(
                buffer, dtype=np.dtype(dtype), count=count, offset=offset
            ).reshape(shape)
        return out


@dataclass
class SharedWave:
    """Owned handle of one wave exported to a shared-memory segment.

    The creating process keeps this handle and is responsible for the
    segment's end of life: :meth:`unlink` (or the context-manager exit)
    removes the segment from the system once every attached consumer is
    done with it.  Consumers attach with :meth:`SoAWave.from_shared` and
    only ever :meth:`~SoAWave.close` their attachment.
    """

    descriptor: WaveDescriptor
    shm: object  # multiprocessing.shared_memory.SharedMemory

    @property
    def name(self) -> str:
        return self.shm.name

    def close(self) -> None:
        """Detach the creator's mapping (the segment stays alive)."""
        try:
            self.shm.close()
        except BufferError:  # arrays still alias the mapping
            pass

    def unlink(self) -> None:
        """Detach and remove the segment (idempotent)."""
        self.close()
        try:
            # Re-register first: if this process also attached the segment,
            # the attach-side tracker workaround unregistered the name and
            # unlink()'s unregister would log a KeyError in the tracker.
            from multiprocessing import resource_tracker

            resource_tracker.register(self.shm._name, "shared_memory")
            self.shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedWave":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


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
    """

    def __init__(
        self, jobs: Sequence[LaneJob], *, traceback_band: bool, word_bits: int = 64
    ) -> None:
        if not jobs:
            raise ValueError("a wave needs at least one lane")
        self.jobs = list(jobs)
        L = len(self.jobs)
        self.lanes = L
        self.traceback_band = traceback_band
        self.word_bits = word_bits

        self.m = np.array([len(j.pattern) for j in self.jobs], dtype=np.int64)
        self.n = np.array([len(j.text) for j in self.jobs], dtype=np.int64)
        self.k = np.array(
            [max(0, min(j.max_errors, len(j.pattern))) for j in self.jobs],
            dtype=np.int64,
        )
        self.n_max = int(self.n.max())
        self.k_max = int(self.k.max())
        self.words = lane_words(int(self.m.max()))
        self.ones = _per_word_ones(self.m, self.words)  # m >= 1 per LaneJob
        self.msb_word = (self.m - 1) // MAX_LANE_BITS
        self.msb_shift = ((self.m - 1) % MAX_LANE_BITS).astype(np.uint64)
        self.masks = self._build_masks()
        self._zero_view_mask: Optional[np.ndarray] = None
        self._shm = None  # set when this wave is an attachment (from_shared)
        self._blobs: Optional[Tuple[np.ndarray, ...]] = None

        if traceback_band:
            self.store_from = np.array(
                [max(0, min(j.store_from, len(j.text))) for j in self.jobs],
                dtype=np.int64,
            )
        else:
            self.store_from = np.zeros(L, dtype=np.int64)

        cols = np.arange(self.n_max + 1, dtype=np.int64)
        if traceback_band:
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
        # else the smallest power-of-two unit (8..word_bits bits), taken
        # ceil(width / unit) times when the band is wider than a word.
        if not traceback_band:
            full_words = np.maximum(1, -(-self.m // word_bits))
            self.entry_store = (full_words * (word_bits // 8)).astype(np.int64)
        else:
            target = np.minimum(self.band_width, word_bits)
            unit = np.full(L, 8, dtype=np.int64)
            while (unit < target).any():  # 8 -> 16 -> ... -> word_bits
                unit = np.where(unit < target, unit * 2, unit)
            unit = np.minimum(unit, word_bits)
            self.entry_store = (
                (unit // 8) * np.maximum(1, -(-self.band_width // unit))
            ).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Descriptor / shared-memory lifecycle
    # ------------------------------------------------------------------ #
    def _sequence_blobs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Encode lane sequences as offset + data arrays (cached)."""
        if self._blobs is None:
            patterns = [job.pattern.encode("utf-8") for job in self.jobs]
            texts = [job.text.encode("utf-8") for job in self.jobs]
            pattern_off = np.zeros(self.lanes + 1, dtype=np.int64)
            text_off = np.zeros(self.lanes + 1, dtype=np.int64)
            np.cumsum([len(b) for b in patterns], out=pattern_off[1:])
            np.cumsum([len(b) for b in texts], out=text_off[1:])
            pattern_data = np.frombuffer(b"".join(patterns), dtype=np.uint8)
            text_data = np.frombuffer(b"".join(texts), dtype=np.uint8)
            self._blobs = (pattern_off, pattern_data, text_off, text_data)
        return self._blobs

    def _packable(self) -> Dict[str, np.ndarray]:
        """Every array the descriptor lays out, keyed by field name."""
        pattern_off, pattern_data, text_off, text_data = self._sequence_blobs()
        return {
            "masks": self.masks,
            "ones": self.ones,
            "msb_shift": self.msb_shift,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "msb_word": self.msb_word,
            "store_from": self.store_from,
            "band_lo": self.band_lo,
            "band_width": self.band_width,
            "entry_store": self.entry_store,
            "pattern_off": pattern_off,
            "text_off": text_off,
            "store_col": self.store_col,
            "pattern_data": pattern_data,
            "text_data": text_data,
        }

    def descriptor(self) -> WaveDescriptor:
        """The plain-buffer layout of this wave (no arrays, picklable)."""
        arrays = self._packable()
        entries = []
        offset = 0
        for name, dtype in _WAVE_ARRAY_FIELDS:
            array = arrays[name]
            offset = -(-offset // _ALIGN) * _ALIGN
            entries.append((name, np.dtype(dtype).str, tuple(array.shape), offset))
            offset += array.nbytes
        return WaveDescriptor(
            lanes=self.lanes,
            words=self.words,
            n_max=self.n_max,
            k_max=self.k_max,
            traceback_band=self.traceback_band,
            word_bits=self.word_bits,
            nbytes=max(1, offset),
            arrays=tuple(entries),
        )

    def pack_into(self, buffer, descriptor: Optional[WaveDescriptor] = None) -> WaveDescriptor:
        """Copy every SoA array into ``buffer`` at the descriptor's offsets.

        ``buffer`` is any writable buffer of at least ``descriptor.nbytes``
        bytes (a bytearray, an mmap, a shared-memory segment's ``buf``).
        Returns the descriptor describing what was written.
        """
        descriptor = descriptor if descriptor is not None else self.descriptor()
        arrays = self._packable()
        for name, view in descriptor.views(buffer).items():
            view[...] = arrays[name]
        return descriptor

    def to_shared(self) -> SharedWave:
        """Export this wave into a fresh shared-memory segment (one copy).

        Returns the owning :class:`SharedWave` handle; the caller unlinks
        it when every consumer is done.  Consumers rebuild the wave with
        :meth:`from_shared` — array *views* over the segment, no copies.
        """
        from multiprocessing import shared_memory

        descriptor = self.descriptor()
        shm = shared_memory.SharedMemory(create=True, size=descriptor.nbytes)
        self.pack_into(shm.buf, descriptor)
        return SharedWave(descriptor=descriptor.with_segment(shm.name), shm=shm)

    @classmethod
    def from_buffer(cls, descriptor: WaveDescriptor, buffer) -> "SoAWave":
        """Materialise a wave over ``buffer`` without recomputing anything.

        The returned wave's arrays are views of ``buffer``; its lanes are
        rebuilt :class:`LaneJob` objects (same sequences and budgets, fresh
        counters).  Equivalent, state for state, to the wave that produced
        the descriptor — the shared-memory tests pin this.
        """
        views = descriptor.views(buffer)
        pattern_off = views["pattern_off"]
        text_off = views["text_off"]
        pattern_bytes = views["pattern_data"].tobytes()
        text_bytes = views["text_data"].tobytes()
        jobs = [
            LaneJob(
                pattern=pattern_bytes[pattern_off[i] : pattern_off[i + 1]].decode("utf-8"),
                text=text_bytes[text_off[i] : text_off[i + 1]].decode("utf-8"),
                max_errors=int(views["k"][i]),
                store_from=int(views["store_from"][i]),
            )
            for i in range(descriptor.lanes)
        ]

        wave = object.__new__(cls)
        wave.jobs = jobs
        wave.lanes = descriptor.lanes
        wave.traceback_band = descriptor.traceback_band
        wave.word_bits = descriptor.word_bits
        wave.n_max = descriptor.n_max
        wave.k_max = descriptor.k_max
        wave.words = descriptor.words
        for name in (
            "m",
            "n",
            "k",
            "ones",
            "masks",
            "msb_word",
            "msb_shift",
            "store_from",
            "band_lo",
            "band_width",
            "store_col",
            "entry_store",
        ):
            setattr(wave, name, views[name])
        wave._zero_view_mask = None
        wave._shm = None
        wave._blobs = None
        return wave

    @classmethod
    def from_shared(cls, descriptor: WaveDescriptor) -> "SoAWave":
        """Attach to a shared wave by descriptor (zero-copy views).

        The attachment is closed with :meth:`close`; removing the segment
        itself is the creator's job (:meth:`SharedWave.unlink`).
        """
        if descriptor.segment is None:
            raise ValueError("descriptor does not name a shared-memory segment")
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=descriptor.segment)
        _unregister_attachment(shm)
        wave = cls.from_buffer(descriptor, shm.buf)
        wave._shm = shm
        return wave

    def close(self) -> None:
        """Release an attachment created by :meth:`from_shared` (idempotent).

        Drops every array view so the mapping can unmap; a no-op for waves
        that own their arrays.
        """
        if self._shm is None:
            return
        for name in (
            "m",
            "n",
            "k",
            "ones",
            "masks",
            "msb_word",
            "msb_shift",
            "store_from",
            "band_lo",
            "band_width",
            "store_col",
            "entry_store",
        ):
            setattr(self, name, None)
        self._zero_view_mask = None
        shm, self._shm = self._shm, None
        try:
            shm.close()
        except BufferError:  # a caller still holds a view; unmapped at exit
            pass

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
        ``64 w .. 64 w + 63``.  Falls back to the per-lane scalar path for
        non-Latin-1 sequences.
        """
        L = self.lanes
        W = self.words
        pad = W * MAX_LANE_BITS
        try:
            pattern_buffer = b"".join(
                job.pattern.encode("latin-1").ljust(pad, b"\x00")
                for job in self.jobs
            ).translate(_PATTERN_BYTES)
            text_buffer = b"".join(
                job.text.encode("latin-1").ljust(self.n_max, b"\x00")
                for job in self.jobs
            ).translate(_TEXT_BYTES)
        except UnicodeEncodeError:
            masks = np.empty((W, L, self.n_max), dtype=np.uint64)
            word_mask = int(_LOW_ONES[MAX_LANE_BITS])
            for i, job in enumerate(self.jobs):
                pm = pattern_bitmasks_zero_match(job.pattern)
                lane_ones = sum(
                    int(self.ones[w, i]) << (MAX_LANE_BITS * w) for w in range(W)
                )
                row = [pm.get(c, lane_ones) for c in job.text]
                row.extend([lane_ones] * (self.n_max - len(row)))
                for w in range(W):
                    masks[w, i, :] = [
                        (value >> (MAX_LANE_BITS * w)) & word_mask for value in row
                    ]
            return masks

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

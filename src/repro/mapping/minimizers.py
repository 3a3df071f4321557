"""(w, k) minimizer extraction.

A *minimizer* is the k-mer with the smallest hash value inside each window
of ``w`` consecutive k-mers (Roberts et al. 2004); indexing only minimizers
shrinks the index by roughly ``2/(w+1)`` while guaranteeing that any two
sequences sharing a sufficiently long exact stretch share a minimizer.
Canonical (strand-independent) minimizers are used, as in minimap2: each
k-mer is hashed together with its reverse complement and the smaller of the
two decides the stored strand.

Minimizers come back as parallel NumPy arrays (:class:`Minimizers`), the
form both the index build and the per-read lookup consume.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.genomics.sequences import encode_sequence

__all__ = ["Minimizers", "extract_minimizers", "kmer_hashes"]

_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


class Minimizers(NamedTuple):
    """The selected minimizer occurrences of one sequence, by position."""

    hashes: np.ndarray  # uint64 canonical hashes
    positions: np.ndarray  # int64 k-mer start positions, strictly increasing
    strands: np.ndarray  # int8, +1 forward, -1 reverse-complement canonical


def _mix(values: np.ndarray) -> np.ndarray:
    """Invertible 64-bit finaliser (splitmix-style) to decorrelate k-mer codes."""
    v = values * _HASH_MULTIPLIER
    v ^= v >> np.uint64(31)
    v *= np.uint64(0xBF58476D1CE4E5B9)
    v ^= v >> np.uint64(27)
    v *= np.uint64(0x94D049BB133111EB)
    v ^= v >> np.uint64(31)
    return v


#: ``_POWERS[t] = 4^t``, the weight of a base ``t`` places from a k-mer's end.
_POWERS = np.uint64(1) << (np.arange(32, dtype=np.uint64) * np.uint64(2))


def _strand_hashes(sequence: str, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Forward and reverse-complement hashes of every k-mer of ``sequence``.

    The 2-bit packed forward code of the k-mer at ``i`` is
    ``Σ_t codes[i + t]·4^(k-1-t)``; its reverse complement packs
    ``3 − codes[i + t]`` with weight ``4^t``, i.e. ``4^k − 1 − Σ_t
    codes[i + t]·4^t``.  Each is one integer correlation of the codes with
    the powers of 4; for ``k ≤ 31`` every code is below ``2^62``, so the
    uint64 arithmetic is exact.
    """
    if k <= 0 or k > 31:
        raise ValueError("k must be in 1..31")
    if len(sequence) < k:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty
    codes = encode_sequence(sequence).astype(np.uint64)
    powers = _POWERS[:k]
    packed = np.empty((2, len(sequence) - k + 1), dtype=np.uint64)
    packed[0] = np.correlate(codes, powers[::-1], "valid")
    packed[1] = _POWERS[k] - np.uint64(1) - np.correlate(codes, powers, "valid")
    forward, reverse = _mix(packed)
    return forward, reverse


def kmer_hashes(sequence: str, k: int) -> np.ndarray:
    """Canonical hashes of every k-mer of ``sequence`` (vectorised).

    Returns an array of length ``len(sequence) - k + 1``; the sign of the
    canonical choice is returned separately by :func:`extract_minimizers`.
    """
    forward, reverse = _strand_hashes(sequence, k)
    return np.minimum(forward, reverse)


def extract_minimizers(sequence: str, k: int = 15, w: int = 10) -> Minimizers:
    """Extract (w, k) canonical minimizers of ``sequence``.

    Consecutive windows that select the same k-mer occurrence are
    collapsed, so each returned occurrence is unique by position.
    """
    if w <= 0:
        raise ValueError("w must be positive")
    forward, reverse = _strand_hashes(sequence, k)
    n_kmers = forward.shape[0]
    if n_kmers == 0:
        return Minimizers(
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int8),
        )
    canonical = np.minimum(forward, reverse)
    window = min(w, n_kmers)
    # Sliding-window argmin, one row per window of `window` k-mers (row i
    # is canonical[i : i + window]).  The chosen positions never decrease
    # from one window to the next, so collapsing repeats only needs a
    # comparison with the previous window.
    views = as_strided(
        canonical, (n_kmers - window + 1, window), canonical.strides * 2, writeable=False
    )
    chosen = views.argmin(axis=1) + np.arange(views.shape[0])
    keep = np.empty(chosen.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(chosen[1:], chosen[:-1], out=keep[1:])
    positions = chosen[keep]
    strands = np.where(forward[positions] <= reverse[positions], 1, -1).astype(np.int8)
    return Minimizers(canonical[positions], positions.astype(np.int64), strands)

"""Bitvector primitives used by the GenASM family of algorithms.

GenASM is a Bitap / Wu–Manber style algorithm: the state of the dynamic
program is a set of *bitvectors*, one per error level, where (in GenASM's
convention) a **zero** bit marks an "active" partial match.  The scalar
aligners hold each bitvector as one Python integer: arbitrary-precision,
branch-free, and fast for the window sizes GenASM needs (64–256
characters).  The vectorized engine (:mod:`repro.batch`) keeps its own
``uint64`` lane words.

Bit ``i`` of a bitvector always refers to the pattern prefix
``pattern[0 : i + 1]`` (length ``i + 1``); the most significant useful bit
is therefore ``len(pattern) - 1`` and corresponds to the whole pattern.
"""

from __future__ import annotations

from typing import Dict, Iterable

__all__ = [
    "all_ones",
    "bit_is_zero",
    "pattern_bitmasks",
    "pattern_bitmasks_zero_match",
    "popcount",
]

#: Default DNA alphabet.  ``N`` never matches anything (its pattern mask is
#: all ones), mirroring how GenASM treats ambiguous bases.
DNA_ALPHABET = "ACGT"


def all_ones(length: int) -> int:
    """Return an integer with ``length`` low bits set to one.

    This is the GenASM "empty" bitvector: no active partial matches.
    """
    if length < 0:
        raise ValueError(f"bitvector length must be non-negative, got {length}")
    return (1 << length) - 1


def bit_is_zero(value: int, bit: int) -> bool:
    """Return ``True`` if ``bit`` of ``value`` is zero (GenASM: active)."""
    return (value >> bit) & 1 == 0


def popcount(value: int) -> int:
    """Number of one bits in ``value``."""
    return bin(value).count("1")


def pattern_bitmasks(
    pattern: str, alphabet: Iterable[str] = DNA_ALPHABET
) -> Dict[str, int]:
    """Build one-active pattern masks: bit ``i`` is **1** iff ``pattern[i] == c``.

    This is the classic Shift-Or/Bitap "match mask" polarity.  GenASM uses
    the complementary polarity (see :func:`pattern_bitmasks_zero_match`),
    but the one-active masks are what the Edlib-like Myers implementation
    consumes, so both are provided by the same substrate.
    """
    masks = {c: 0 for c in alphabet}
    for i, ch in enumerate(pattern):
        if ch in masks:
            masks[ch] |= 1 << i
    return masks


def pattern_bitmasks_zero_match(
    pattern: str, alphabet: Iterable[str] = DNA_ALPHABET
) -> Dict[str, int]:
    """Build GenASM pattern masks: bit ``i`` is **0** iff ``pattern[i] == c``.

    Characters outside ``alphabet`` (e.g. ``N``) produce no zero anywhere,
    i.e. they never match.  A defensive all-ones entry is also returned for
    every alphabet character so lookups never fail.
    """
    m = len(pattern)
    ones = all_ones(m)
    one_active = pattern_bitmasks(pattern, alphabet)
    return {c: ones & ~mask for c, mask in one_active.items()}

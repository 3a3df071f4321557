"""Basic DNA sequence utilities.

Sequences are plain Python strings over ``ACGT`` (plus ``N`` for ambiguous
bases).  A 2-bit NumPy encoding is provided for the minimizer index and for
anything that benefits from vectorised character comparisons.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "DNA_ALPHABET",
    "COMPLEMENT",
    "random_dna",
    "reverse_complement",
    "encode_sequence",
    "decode_sequence",
    "gc_content",
    "kmers",
    "hamming_distance",
]

DNA_ALPHABET = "ACGT"

COMPLEMENT = {"A": "T", "C": "G", "G": "C", "T": "A", "N": "N"}


class _ComplementTable(dict):
    """``str.translate`` table: ``COMPLEMENT`` by code point, else ``N``."""

    def __missing__(self, code_point: int) -> str:
        return "N"


#: Soft-masked (lowercase) bases complement to lowercase bases.
_COMPLEMENT_TABLE = _ComplementTable(
    {ord(base): comp for base, comp in COMPLEMENT.items()}
    | {ord(base.lower()): comp.lower() for base, comp in COMPLEMENT.items()}
)

_BASE_TO_CODE = {"A": 0, "C": 1, "G": 2, "T": 3}
#: 2-bit code of every Latin-1 byte (anything but ``C``/``G``/``T`` is 0).
_BYTE_TO_CODE = np.zeros(256, dtype=np.uint8)
_BYTE_TO_CODE[[ord(base) for base in _BASE_TO_CODE]] = list(_BASE_TO_CODE.values())
_CODE_TO_BASE = np.array(list("ACGT"))


def random_dna(length: int, rng: Optional[np.random.Generator] = None) -> str:
    """Uniform random DNA string of ``length`` bases."""
    if length < 0:
        raise ValueError("length must be non-negative")
    rng = rng if rng is not None else np.random.default_rng()
    codes = rng.integers(0, 4, size=length)
    return "".join(_CODE_TO_BASE[codes])


def reverse_complement(sequence: str) -> str:
    """Reverse complement, keeping soft-masked (lowercase) bases lowercase.

    ``N``/``n`` map to themselves; every character outside ``ACGTNacgtn``
    maps to ``N``.
    """
    return sequence.translate(_COMPLEMENT_TABLE)[::-1]


def encode_sequence(sequence: str) -> np.ndarray:
    """2-bit encode a DNA string (``N`` and unknown characters become 0/A).

    The encoding is only used for hashing and vectorised comparisons, where
    treating ambiguous bases as ``A`` is acceptable; exact-alignment code
    paths always work on the original strings.
    """
    return _BYTE_TO_CODE[np.frombuffer(sequence.encode("latin-1"), dtype=np.uint8)]


def decode_sequence(codes: np.ndarray) -> str:
    """Inverse of :func:`encode_sequence`."""
    return "".join(_CODE_TO_BASE[np.asarray(codes, dtype=np.int64)])


def gc_content(sequence: str) -> float:
    """Fraction of G/C bases (0 for the empty string)."""
    if not sequence:
        return 0.0
    gc = sum(1 for c in sequence if c in "GC")
    return gc / len(sequence)


def kmers(sequence: str, k: int) -> Iterator[Tuple[int, str]]:
    """Yield ``(position, k-mer)`` for every k-mer of ``sequence``."""
    if k <= 0:
        raise ValueError("k must be positive")
    for i in range(0, len(sequence) - k + 1):
        yield i, sequence[i : i + k]


def hamming_distance(a: str, b: str) -> int:
    """Hamming distance of two equal-length strings."""
    if len(a) != len(b):
        raise ValueError("hamming_distance requires equal-length strings")
    return sum(1 for x, y in zip(a, b) if x != y)

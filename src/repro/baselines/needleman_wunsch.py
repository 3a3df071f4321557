"""Full-matrix unit-cost edit distance and alignment (the ground-truth oracle).

This module implements the textbook dynamic program with three anchoring
modes that cover every semantics used elsewhere in the library:

``global``
    the whole pattern against the whole text (Needleman–Wunsch / Levenshtein);
``prefix``
    the whole pattern against the best *prefix* of the text — this is the
    semantics of windowed GenASM and of candidate-region alignment, where
    the mapper anchors the region start;
``infix``
    the whole pattern against the best *substring* of the text (free text
    prefix and suffix) — the semantics of GenASM-DC used as a filter and of
    Myers/Edlib in search mode.

The row recurrence is vectorised with NumPy: the only intra-row dependency
(the insertion ``dp[i][j-1] + 1`` term) is resolved with a prefix-minimum
scan, so each row costs a handful of NumPy operations instead of a Python
loop over columns.  The full matrix is retained for traceback.
"""

from __future__ import annotations

from typing import Literal, Tuple

import numpy as np

from repro.core.alignment import Alignment
from repro.core.cigar import Cigar, CigarOp

__all__ = [
    "edit_distance_matrix",
    "edit_distance",
    "prefix_edit_distance",
    "semiglobal_edit_distance",
    "needleman_wunsch",
]

Mode = Literal["global", "prefix", "infix"]


def _encode(seq: str) -> np.ndarray:
    """Encode a string as an int array (codepoints) for vectorised compares."""
    return np.frombuffer(seq.encode("latin-1"), dtype=np.uint8).astype(np.int16)


def edit_distance_matrix(pattern: str, text: str, *, free_text_prefix: bool) -> np.ndarray:
    """Return the full (m+1) × (n+1) unit-cost DP matrix.

    ``dp[i][j]`` is the minimum number of edits aligning ``pattern[:i]``
    against ``text[:j]`` (``free_text_prefix`` makes row 0 all zeros, i.e.
    the alignment may start at any text position).
    """
    m, n = len(pattern), len(text)
    dp = np.zeros((m + 1, n + 1), dtype=np.int32)
    dp[0, :] = 0 if free_text_prefix else np.arange(n + 1)
    dp[:, 0] = np.arange(m + 1)
    if m == 0 or n == 0:
        return dp

    p = _encode(pattern)
    t = _encode(text)
    cols = np.arange(1, n + 1, dtype=np.int32)
    for i in range(1, m + 1):
        prev = dp[i - 1]
        sub = prev[:-1] + (t != p[i - 1])          # diagonal + substitution cost
        dele = prev[1:] + 1                         # from above (text char deleted)
        cand = np.minimum(sub, dele).astype(np.int32)
        # Resolve the left-dependency dp[i][j-1] + 1 with a prefix-min scan:
        # dp[i][j] = min_{j' <= j} (cand[j'] + (j - j')) for j' >= 1, and the
        # seed dp[i][0] + j for j' = 0.
        shifted = np.empty(n + 1, dtype=np.int32)
        shifted[0] = dp[i, 0]
        shifted[1:] = cand - cols
        running = np.minimum.accumulate(shifted)
        dp[i, 1:] = running[1:] + cols
        dp[i, 0] = i
    return dp


def edit_distance(a: str, b: str) -> int:
    """Global (Levenshtein) edit distance between two strings."""
    dp = edit_distance_matrix(a, b, free_text_prefix=False)
    return int(dp[len(a), len(b)])


def prefix_edit_distance(pattern: str, text: str) -> int:
    """Edit distance of ``pattern`` against the best prefix of ``text``."""
    dp = edit_distance_matrix(pattern, text, free_text_prefix=False)
    return int(dp[len(pattern), :].min())


def semiglobal_edit_distance(pattern: str, text: str) -> int:
    """Edit distance of ``pattern`` against the best substring of ``text``."""
    dp = edit_distance_matrix(pattern, text, free_text_prefix=True)
    return int(dp[len(pattern), :].min())


def _traceback(
    dp: np.ndarray, pattern: str, text: str, end_j: int, *, free_text_prefix: bool
) -> Tuple[Cigar, int]:
    """Walk the DP matrix back from ``(m, end_j)`` and return (CIGAR, start_j)."""
    ops = []
    i, j = len(pattern), end_j
    while i > 0 or (j > 0 and not free_text_prefix):
        here = dp[i, j]
        if i > 0 and j > 0:
            diag = dp[i - 1, j - 1]
            same = pattern[i - 1] == text[j - 1]
            if here == diag + (0 if same else 1):
                ops.append(CigarOp.MATCH if same else CigarOp.MISMATCH)
                i, j = i - 1, j - 1
                continue
        if i > 0 and here == dp[i - 1, j] + 1:
            ops.append(CigarOp.INSERTION)
            i -= 1
            continue
        if j > 0 and here == dp[i, j - 1] + 1:
            ops.append(CigarOp.DELETION)
            j -= 1
            continue
        if i == 0 and free_text_prefix:
            break
        raise AssertionError("DP traceback failed (internal error)")
    ops.reverse()
    return Cigar.from_ops(ops), j


def needleman_wunsch(
    pattern: str,
    text: str,
    mode: Mode = "global",
    *,
    name: str = "needleman-wunsch",
) -> Alignment:
    """Optimal unit-cost alignment of ``pattern`` against ``text``.

    ``mode`` selects the anchoring (see the module docstring).  The returned
    :class:`Alignment` carries the exact optimal edit distance and an
    ``=``/``X``/``I``/``D`` CIGAR, making it the reference result the test
    suite compares every other aligner against.
    """
    if mode not in ("global", "prefix", "infix"):
        raise ValueError(f"unknown mode {mode!r}")
    free_prefix = mode == "infix"
    dp = edit_distance_matrix(pattern, text, free_text_prefix=free_prefix)
    m, n = len(pattern), len(text)
    if mode == "global":
        end_j = n
    else:
        end_j = int(dp[m, :].argmin())
    cigar, start_j = _traceback(dp, pattern, text, end_j, free_text_prefix=free_prefix)
    return Alignment(
        pattern=pattern,
        text=text,
        cigar=cigar,
        edit_distance=int(dp[m, end_j]),
        text_start=start_j,
        text_end=end_j,
        aligner=name,
        metadata={"dp_cells": float((m + 1) * (n + 1))},
    )

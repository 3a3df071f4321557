"""Helpers for the three algorithmic improvements of the IPPS 2022 paper.

The improvements themselves are implemented inside :mod:`repro.core.genasm_dc`
and :mod:`repro.core.genasm_tb`; this module centralises the pieces they
share so the DC and TB kernels (CPU and GPU) agree bit-for-bit on what is
stored:

* **entry compression** — the decision of *what* is stored per DP entry
  (one ANDed bitvector vs. four intermediates) is expressed via
  :func:`vectors_per_entry`;
* **early termination** — :func:`solution_found` is the row-level stopping
  predicate;
* **traceback-reachability band** — :func:`band_bounds` computes, for a
  text position ``j``, the interval of bit positions the traceback can
  reach, and :func:`band_width` how many bits of it are stored.  The DC
  kernel stores ``(R >> lo) & all_ones(width)`` and
  :meth:`~repro.core.genasm_dc.DCTable.r_bit` reads a band bit back.

The band derivation: a traceback starts at ``(j = n, bit = m - 1)``.  Every
step that consumes a text character decrements ``j``; every step that
consumes a pattern character decrements the bit index; at most ``k`` steps
are non-matches.  Hence at text position ``j`` the traceback's bit index
lies in ``[m - 1 - (n - j) - k,  m - 1 - (n - j) + k]`` (clamped to the
valid bit range).  Only those bits of ``R[j][d]`` can ever be read by the
traceback, so only those bits are stored.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.bitvector import bit_is_zero

__all__ = [
    "band_bounds",
    "band_width",
    "vectors_per_entry",
    "solution_found",
    "entry_bytes",
    "reachable_column_start",
]


def reachable_column_start(n: int, committed_columns: int, k: int) -> int:
    """First text column the traceback of a committed window prefix can read.

    Windowed GenASM commits only the first ``committed_columns`` pattern
    columns of each non-final window (the remaining ``O`` columns overlap
    with the next window).  The traceback therefore consumes at most
    ``committed_columns`` pattern characters and at most ``k`` deletions,
    so it never moves more than ``committed_columns + k`` text columns away
    from the final column ``n``; entries at earlier columns can never be
    read and need not be stored.  One extra column of margin accounts for
    the look-behind reads (``R[j-1][·]``) of the last traceback step.
    """
    return max(0, n - committed_columns - k - 1)


def band_bounds(j: int, n: int, m: int, k: int) -> Tuple[int, int]:
    """Inclusive bit-index interval reachable by the traceback at column ``j``.

    ``n`` is the text-window length, ``m`` the pattern-window length and
    ``k`` the error budget.  The interval is clamped to ``[0, m - 1]`` and
    is never empty for columns the traceback can visit; for columns it
    cannot visit at all the function still returns a clamped (possibly
    inverted) interval which callers treat as "store nothing useful".
    """
    centre = (m - 1) - (n - j)
    lo = max(0, centre - k)
    hi = min(m - 1, centre + k)
    return lo, hi


def band_width(m: int, k: int) -> int:
    """Number of bits stored per entry when the band improvement is on."""
    return min(m, 2 * k + 2)


def vectors_per_entry(entry_compression: bool) -> int:
    """Stored bitvectors per DP entry: 4 in the baseline, 1 when compressed."""
    return 1 if entry_compression else 4


def solution_found(row_final_value: int, m: int) -> bool:
    """Early-termination predicate: the row's final column has a zero MSB.

    A zero most-significant bit of ``R[n][d]`` means the whole pattern
    window already aligns within ``d`` errors, so rows ``d + 1 …`` can be
    skipped entirely — they can neither lower the distance nor be visited
    by the traceback (which starts at the minimal such ``d``).
    """
    return bit_is_zero(row_final_value, m - 1)


def entry_bytes(m: int, k: int, traceback_band: bool) -> int:
    """Bytes used to store one bitvector entry under the given band setting.

    Without the band an entry is ``ceil(m / 64)`` 64-bit words.  With it,
    the ``band_width(m, k)`` stored bits take the smallest power-of-two
    unit of 8 to 64 bits that holds them, ``ceil(bits / unit)`` times.
    """
    if not traceback_band:
        return max(1, -(-m // 64)) * 8
    bits = band_width(m, k)
    unit = 8
    while unit < min(bits, 64):
        unit *= 2
    return (unit // 8) * max(1, -(-bits // unit))

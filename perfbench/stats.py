"""The percentile and failure-count rules the benchmark reports by.

A timing is reported as its median and its *tail*: the highest percentile
of :data:`TAIL_LADDER` with at least :data:`MIN_BEYOND` samples beyond it,
so a tail is never read off a handful of samples and never collapses onto
the median.  Percentiles are nearest-rank, so every reported value is one
that was measured.  A failed operation enters a latency sample as
``math.inf``: it counts as missing every latency limit.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

#: Tail percentiles, highest first.  50 is deliberately absent: a sample
#: too small for p90 has no tail.
TAIL_LADDER = ("99.9", "99", "90")
MIN_BEYOND = 10


def _rank(q: str, n: int) -> int:
    """1-based nearest rank of percentile ``q`` in ``n`` samples."""
    return max(1, math.ceil(Fraction(q) * n / 100))


def percentile(values: Sequence[float], q: str) -> float:
    """Nearest-rank percentile ``q`` (a decimal string, e.g. ``"99"``)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(q, len(values)) - 1]


def samples_beyond(q: str, n: int) -> int:
    """Samples strictly above the nearest rank of ``q`` in ``n`` samples."""
    return n - _rank(q, n)


def tail_percentile(n: int) -> Optional[str]:
    """The tail percentile ``n`` samples support, or ``None`` if none does."""
    for q in TAIL_LADDER:
        if samples_beyond(q, n) >= MIN_BEYOND:
            return q
    return None


def latency_summary(values: Sequence[float]) -> Tuple[float, str, float]:
    """``(p50, tail_q, tail)`` of one latency sample; raises if it has no tail."""
    q = tail_percentile(len(values))
    if q is None:
        raise ValueError(
            f"{len(values)} samples cannot support a tail percentile "
            f"(p90 needs {MIN_BEYOND} samples beyond it)"
        )
    ordered = sorted(values)
    return (
        ordered[_rank("50", len(ordered)) - 1],
        q,
        ordered[_rank(q, len(ordered)) - 1],
    )


def failed_count(latencies: Iterable[float], wrong: int = 0) -> int:
    """Failed operations: infinite latencies (errors, timeouts) plus ``wrong``."""
    return sum(1 for value in latencies if math.isinf(value)) + wrong


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("failed_frac needs at least one attempted operation")
    return min(failed, attempted) / attempted


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the steadiness test)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2

"""Windowed long-read alignment (the GenASM windowing heuristic).

GenASM keeps its bitvectors machine-word sized by aligning long sequences
in overlapping windows of ``W`` pattern characters.  Each window is aligned
independently with GenASM-DC + GenASM-TB; only the first ``W − O`` pattern
columns of the window alignment are *committed* before the window slides,
so that the error introduced by cutting an alignment at an arbitrary column
is absorbed by the ``O``-column overlap.

Anchoring
---------
The raw bitap recurrence lets a match *start* anywhere in the text and
reports where it *ends*.  A window, however, must be anchored at its start
(the globally committed position) and float at its end.  The implementation
therefore aligns the **reversed** window pair: a whole-pattern match ending
at the end of the reversed text corresponds to a start-anchored alignment
covering a prefix of the forward text window, and the traceback (which runs
end-to-start over the reversed window) emits operations directly in forward
order.  This mirrors how GenASM stores its pattern bitmasks reversed.

This module is the *scalar* path (one window at a time, Python-int
bitvectors).  Batch workloads should prefer
:class:`repro.batch.BatchAlignmentEngine`, which advances many pairs'
windows in lockstep over NumPy uint64 lanes and produces identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.cigar import Cigar, CigarOp
from repro.core.config import GenASMConfig
from repro.core.genasm_dc import genasm_dc
from repro.core.genasm_tb import genasm_traceback
from repro.core.improvements import reachable_column_start
from repro.core.metrics import AccessCounter

__all__ = ["WindowResult", "align_window", "align_windowed", "WindowedResult"]


@dataclass
class WindowResult:
    """Alignment of one window before commit trimming."""

    ops: List[CigarOp]
    pattern_consumed: int
    text_consumed: int
    errors: int
    rows_computed: int
    stored_bytes: int
    error_budget: int
    retries: int = 0


@dataclass
class WindowedResult:
    """Full windowed alignment of a (pattern, text) pair."""

    cigar: Cigar
    text_consumed: int
    edit_distance: int
    windows: int
    counter: AccessCounter
    peak_window_bytes: int
    total_stored_bytes: int
    rows_computed: int
    stats: Dict[str, float] = field(default_factory=dict)


def align_window(
    pattern_window: str,
    text_window: str,
    config: GenASMConfig,
    *,
    counter: Optional[AccessCounter] = None,
    max_errors: Optional[int] = None,
    commit_columns: Optional[int] = None,
) -> WindowResult:
    """Align one start-anchored window pair with GenASM.

    ``commit_columns`` limits the traceback to the first that many pattern
    columns (the committed, non-overlap part of a sliding window); when it
    is set and the traceback-reachability improvement is enabled, DP
    entries the shortened traceback provably cannot reach are not stored.

    The error budget starts at ``max_errors`` (default ``config.k`` clamped
    to the window length) and is doubled until a solution is found; a
    budget equal to the window length always succeeds, so the retry loop is
    bounded.
    """
    counter = counter if counter is not None else AccessCounter()
    m = len(pattern_window)
    commit = m if commit_columns is None else max(1, min(m, commit_columns))
    if m == 0:
        counter.windows += 1
        return WindowResult([], 0, 0, 0, 0, 0, 0)
    if len(text_window) == 0:
        counter.windows += 1
        ops = [CigarOp.INSERTION] * commit
        return WindowResult(ops, commit, 0, commit, 0, 0, 0)

    rev_pattern = pattern_window[::-1]
    rev_text = text_window[::-1]
    n = len(rev_text)
    budget = max(1, min(m, config.k if max_errors is None else max_errors))
    retries = 0
    while True:
        store_from = 0
        if config.traceback_band:
            store_from = reachable_column_start(n, commit, budget)
        table = genasm_dc(
            rev_pattern,
            rev_text,
            budget,
            entry_compression=config.entry_compression,
            early_termination=config.early_termination,
            traceback_band=config.traceback_band,
            counter=counter,
            store_from_column=store_from,
        )
        if table.min_errors is not None:
            break
        if budget >= m:
            raise AssertionError(
                "GenASM window failed with a full error budget (internal error)"
            )
        budget = min(m, budget * 2)
        retries += 1

    ops, text_stop = genasm_traceback(
        table, priority=config.match_priority, max_pattern_columns=commit
    )
    text_consumed = len(text_window) - text_stop
    pattern_consumed = sum(1 for op in ops if op.consumes_pattern)
    errors = sum(1 for op in ops if op.is_edit)
    counter.windows += 1
    return WindowResult(
        ops=ops,
        pattern_consumed=pattern_consumed,
        text_consumed=text_consumed,
        errors=errors,
        rows_computed=table.rows_computed,
        stored_bytes=table.stored_bytes(),
        error_budget=budget,
        retries=retries,
    )


def align_windowed(
    pattern: str,
    text: str,
    config: Optional[GenASMConfig] = None,
    *,
    counter: Optional[AccessCounter] = None,
) -> WindowedResult:
    """Align ``pattern`` against a prefix of ``text`` with windowed GenASM.

    The result is the GenASM heuristic alignment: each window is optimal,
    the concatenation is near-optimal (exact when the alignment fits a
    single window).  The text is consumed starting at position 0; callers
    that align candidate regions position the region so that the expected
    alignment starts at its beginning (as the mapper in
    :mod:`repro.mapping` does).
    """
    config = config if config is not None else GenASMConfig()
    counter = counter if counter is not None else AccessCounter()

    all_ops: List[CigarOp] = []
    p = 0
    t = 0
    windows = 0
    peak_bytes = 0
    total_bytes = 0
    rows_total = 0
    edit_distance = 0

    total_p = len(pattern)
    while p < total_p:
        remaining = total_p - p
        w = min(config.window_size, remaining)
        text_budget = min(len(text) - t, w + config.text_slack)
        window_pattern = pattern[p : p + w]
        window_text = text[t : t + max(0, text_budget)]

        last_window = w >= remaining
        commit = None if last_window else min(config.window_step, w)
        result = align_window(
            window_pattern,
            window_text,
            config,
            counter=counter,
            commit_columns=commit,
        )
        windows += 1
        peak_bytes = max(peak_bytes, result.stored_bytes)
        total_bytes += result.stored_bytes
        rows_total += result.rows_computed

        all_ops.extend(result.ops)
        edit_distance += result.errors
        p += result.pattern_consumed
        t += result.text_consumed

        if result.pattern_consumed == 0:
            # Defensive: guarantee forward progress even with degenerate
            # configurations (cannot normally happen because step >= 1).
            break

    cigar = Cigar.from_ops(all_ops)
    return WindowedResult(
        cigar=cigar,
        text_consumed=t,
        edit_distance=edit_distance,
        windows=windows,
        counter=counter,
        peak_window_bytes=peak_bytes,
        total_stored_bytes=total_bytes,
        rows_computed=rows_total,
        stats={
            "windows": windows,
            "rows_computed": rows_total,
            "peak_window_bytes": peak_bytes,
            "total_stored_bytes": total_bytes,
        },
    )

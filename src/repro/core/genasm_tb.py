"""GenASM-TB: traceback over the stored GenASM-DC state.

The traceback starts at the final text column with the whole pattern
matched (``bit = m − 1``) at the minimum error level found by DC, and walks
backwards emitting one CIGAR operation per step:

======================  =======================  ==========================
operation               bit consulted            state update
======================  =======================  ==========================
match (``=``)           ``R[j-1][d]``, bit i-1   ``j -= 1; i -= 1``
                        and ``P[i] == T[j-1]``
substitution (``X``)    ``R[j-1][d-1]``, bit i-1 ``j -= 1; d -= 1; i -= 1``
insertion (``I``)       ``R[j][d-1]``, bit i-1   ``d -= 1; i -= 1``
deletion (``D``)        ``R[j-1][d-1]``, bit i   ``j -= 1; d -= 1``
======================  =======================  ==========================

With the baseline storage (four intermediate bitvectors per entry) the
conditions are read directly from the stored vectors; with the paper's
*entry compression* improvement only ``R`` is stored and the same four
conditions are re-derived from neighbouring ``R`` entries — the two modes
take identical decisions, which the test suite verifies.

The order in which the four operations are tried (``match_priority``)
affects only which of several optimal alignments is reported, never the
edit distance.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.bitvector import all_ones, bit_is_zero, pattern_bitmasks_zero_match
from repro.core.cigar import CigarOp
from repro.core.genasm_dc import DCTable

__all__ = [
    "genasm_traceback",
    "traceback_conditions",
    "TracebackError",
]


class TracebackError(RuntimeError):
    """Raised when the stored DC state admits no traceback step.

    This indicates a bug (or corrupted storage): whenever ``min_errors`` is
    not ``None`` a full traceback is guaranteed to exist.
    """


_PRIORITY_OPS = {
    "M": CigarOp.MATCH,
    "S": CigarOp.MISMATCH,
    "I": CigarOp.INSERTION,
    "D": CigarOp.DELETION,
}


def traceback_conditions(table: DCTable):
    """Build the four traceback decision predicates over ``table``.

    Returns a mapping ``{"M": p, "S": p, "I": p, "D": p}`` of predicates
    ``p(j, d, i) -> bool`` telling whether the corresponding operation is a
    legal traceback step at text column ``j``, error level ``d`` and pattern
    bit ``i``.  The predicates read the stored DC state through
    :meth:`DCTable.r_bit` / :meth:`DCTable.quad_bit` and therefore charge
    ``table.counter`` for every DP read they perform, exactly as the scalar
    traceback loop does.

    This factory is the single source of truth for the decision semantics:
    :func:`genasm_traceback` consumes it step by step, and the vectorized
    lockstep traceback (:mod:`repro.batch.traceback`) precomputes the same
    predicates as packed per-row decision words — the differential test
    harness asserts both formulations agree bit for bit.
    """
    pattern, text = table.pattern, table.text
    m = len(pattern)
    ones = all_ones(m)
    pm = pattern_bitmasks_zero_match(pattern)
    compressed = table.entry_compression

    def char_matches(i: int, j: int) -> bool:
        mask = pm.get(text[j - 1], ones)
        return bit_is_zero(mask, i)

    def cond_match(j: int, dd: int, i: int) -> bool:
        if compressed:
            return char_matches(i, j) and table.r_bit(dd, j - 1, i - 1)
        return table.quad_bit(dd, j, 0, i)

    def cond_subst(j: int, dd: int, i: int) -> bool:
        if dd < 1:
            return False
        if compressed:
            return table.r_bit(dd - 1, j - 1, i - 1)
        return table.quad_bit(dd, j, 1, i)

    def cond_ins(j: int, dd: int, i: int) -> bool:
        if dd < 1:
            return False
        if compressed:
            return table.r_bit(dd - 1, j, i - 1)
        return table.quad_bit(dd, j, 2, i)

    def cond_del(j: int, dd: int, i: int) -> bool:
        if dd < 1:
            return False
        if compressed:
            return table.r_bit(dd - 1, j - 1, i)
        return table.quad_bit(dd, j, 3, i)

    return {"M": cond_match, "S": cond_subst, "I": cond_ins, "D": cond_del}


def genasm_traceback(
    table: DCTable,
    *,
    priority: str = "MSDI",
    start_errors: Optional[int] = None,
    max_pattern_columns: Optional[int] = None,
) -> Tuple[List[CigarOp], int]:
    """Trace back one GenASM window.

    Parameters
    ----------
    table:
        The stored DC state.  ``table.min_errors`` must not be ``None``.
    priority:
        Tie-break order over {M, S, D, I}.
    start_errors:
        Error level to start from; defaults to ``table.min_errors``.
    max_pattern_columns:
        Stop once this many pattern characters have been consumed.  Windowed
        alignment uses this to trace back only the committed ``W − O``
        columns of a non-final window, which is what makes the
        traceback-reachability storage pruning of the DC phase sound.

    Returns
    -------
    (ops, text_stop)
        ``ops`` is the list of CIGAR operations **in traceback order**
        (from the last text column towards the first) and ``text_stop`` is
        the text column at which the traceback stopped; the emitted
        operations cover ``text[text_stop:]``.
    """
    if table.min_errors is None and start_errors is None:
        raise TracebackError(
            "GenASM-DC found no alignment within the error budget; "
            "increase max_errors before tracing back"
        )

    pattern, text = table.pattern, table.text
    m, n = len(pattern), len(text)
    d = table.min_errors if start_errors is None else start_errors
    if d is None or d >= table.rows_computed:
        raise TracebackError(f"start error level {d} was never computed")

    if m == 0:
        return [], n

    counter = table.counter
    conditions = traceback_conditions(table)

    ops: List[CigarOp] = []
    j, i = n, m - 1
    pattern_budget = m if max_pattern_columns is None else min(m, max_pattern_columns)
    consumed_pattern = 0
    guard = 2 * (m + n) + 4  # any valid traceback is shorter than this
    while i >= 0 and consumed_pattern < pattern_budget:
        guard -= 1
        if guard < 0:
            raise TracebackError("traceback did not terminate (internal error)")
        counter.tb_steps += 1
        if j == 0:
            # No text left: the remaining pattern prefix is all insertions.
            ops.append(CigarOp.INSERTION)
            d -= 1
            i -= 1
            consumed_pattern += 1
            continue
        for letter in priority:
            if conditions[letter](j, d, i):
                op = _PRIORITY_OPS[letter]
                ops.append(op)
                if letter == "M":
                    j, i = j - 1, i - 1
                    consumed_pattern += 1
                elif letter == "S":
                    j, d, i = j - 1, d - 1, i - 1
                    consumed_pattern += 1
                elif letter == "I":
                    d, i = d - 1, i - 1
                    consumed_pattern += 1
                else:  # "D"
                    j, d = j - 1, d - 1
                break
        else:
            raise TracebackError(
                f"no traceback step possible at text={j}, errors={d}, bit={i}"
            )
    return ops, j


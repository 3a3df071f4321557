"""GenASM-DC: the bitvector dynamic program (distance calculation).

GenASM is a Bitap / Wu–Manber style approximate string matcher.  The DP
state for error level ``d`` after consuming the text prefix ``T[0..j)`` is a
bitvector ``R[j][d]`` in which bit ``i`` is **zero** iff the pattern prefix
``P[0..i+1)`` can be aligned to *some* substring of ``T`` ending exactly at
position ``j`` with at most ``d`` edits (unit-cost substitutions,
insertions, deletions).  The whole pattern therefore matches with ``d``
errors ending at ``j`` iff bit ``m − 1`` of ``R[j][d]`` is zero.

Recurrence for text character ``c = T[j-1]`` (all bitvectors zero-active)::

    match  = (R[j-1][d]   << 1) | PM[c]
    subst  = (R[j-1][d-1] << 1)
    insert = (R[j]  [d-1] << 1)      # pattern char consumed, no text char
    delete =  R[j-1][d-1]            # text char consumed, no pattern char
    R[j][d] = match & subst & insert & delete          (d >= 1)
    R[j][0] = match

The recurrence only couples row ``d`` to row ``d−1``, so it can be evaluated
**row-major** (error level outermost).  That ordering is what enables the
paper's *early termination* improvement: once a row's final column already
contains the full solution, no further rows are computed.

Two of the paper's three improvements live here:

* *entry compression* — the table stores only ``R[j][d]`` (the AND) rather
  than the four intermediate vectors;
* *early termination* — row-major evaluation with the stopping predicate
  :func:`repro.core.improvements.solution_found`;
* the third improvement (*traceback-reachability band*) affects what part
  of each stored vector is persisted: the bits
  :func:`repro.core.improvements.band_bounds` names, shifted down to
  bit 0.

The module exposes:

* :func:`genasm_dc` — full DP with traceback storage, honouring the three
  improvement toggles (the baseline MICRO-2020 behaviour is all-off);
* :func:`genasm_distance_only` — distance without any traceback storage
  (used by filters, tests and the Edlib-style distance comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.bitvector import all_ones, bit_is_zero, pattern_bitmasks_zero_match
from repro.core.improvements import (
    band_bounds,
    band_width,
    entry_bytes,
    solution_found,
    vectors_per_entry,
)
from repro.core.metrics import AccessCounter

__all__ = ["DCTable", "genasm_dc", "genasm_distance_only"]


@dataclass
class DCTable:
    """Stored state of one GenASM-DC run, consumed by GenASM-TB.

    Depending on ``entry_compression`` either ``stored_r`` (one value per
    entry) or ``stored_quad`` (four values per entry) is populated.  Values
    are band-packed when ``traceback_band`` is set; the packing offsets are
    implied by :func:`repro.core.improvements.band_bounds`.
    """

    pattern: str
    text: str
    max_errors: int
    entry_compression: bool
    early_termination: bool
    traceback_band: bool
    #: first text column whose entries are stored (traceback-reachability
    #: pruning; columns below this are computed but never persisted)
    store_from_column: int = 0

    #: rows actually evaluated (``<= max_errors + 1`` with early termination)
    rows_computed: int = 0
    #: minimum error level whose final column contains the full pattern, or None
    min_errors: Optional[int] = None
    #: final-column bitvectors per evaluated row (used by distance queries)
    final_column: List[int] = field(default_factory=list)
    #: entry_compression=True: stored_r[d][j] = (packed) R[j][d], j in 0..n
    stored_r: List[List[int]] = field(default_factory=list)
    #: entry_compression=False: stored_quad[d][j-1] = (match, subst, ins, del)
    stored_quad: List[List[Tuple[int, int, int, int]]] = field(default_factory=list)
    #: access accounting for experiment E4
    counter: AccessCounter = field(default_factory=AccessCounter)
    #: caches filled in by :func:`genasm_dc` (kept out of the hot loops)
    _entry_bytes: Optional[int] = None
    _band_lo: Optional[List[int]] = None
    _band_width: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def pattern_length(self) -> int:
        return len(self.pattern)

    @property
    def text_length(self) -> int:
        return len(self.text)

    @property
    def entry_store_bytes(self) -> int:
        """Bytes per stored bitvector entry (band-aware)."""
        if self._entry_bytes is None:
            self._entry_bytes = entry_bytes(
                max(1, len(self.pattern)), self.max_errors, self.traceback_band
            )
        return self._entry_bytes

    def stored_bytes(self) -> int:
        """Bytes of traceback state actually retained by this run (E3)."""
        per_entry = self.entry_store_bytes * vectors_per_entry(self.entry_compression)
        columns = len(self.text) + 1 - self.store_from_column
        if self.entry_compression:
            entries = self.rows_computed * max(0, columns)
        else:
            entries = self.rows_computed * max(0, min(columns, len(self.text)))
        return entries * per_entry

    # -- band-aware accessors (used by the traceback) -------------------- #
    def band_lo(self, j: int) -> int:
        """Lowest logical bit stored for column ``j`` (0 without banding)."""
        if not self.traceback_band:
            return 0
        if self._band_lo is not None:
            return self._band_lo[j]
        lo, _hi = band_bounds(j, len(self.text), max(1, len(self.pattern)), self.max_errors)
        return lo

    def _stored_band_width(self) -> int:
        if self._band_width is None:
            self._band_width = band_width(max(1, len(self.pattern)), self.max_errors)
        return self._band_width

    def r_bit(self, d: int, j: int, bit: int) -> bool:
        """Is logical bit ``bit`` of stored ``R[j][d]`` zero (active)?

        Bits below zero count as active (they model the zero shifted into a
        left-shift); bits outside the stored band count as inactive.
        """
        if bit < 0:
            return True
        value = self.stored_r[d][j]
        counter = self.counter
        counter.dp_reads += 1
        counter.bytes_read += self.entry_store_bytes
        if not self.traceback_band:
            return not (value >> bit) & 1
        offset = bit - self.band_lo(j)
        if offset < 0 or offset >= self._stored_band_width():
            return False
        return not (value >> offset) & 1

    def quad_bit(self, d: int, j: int, which: int, bit: int) -> bool:
        """Is bit ``bit`` of stored intermediate ``which`` at (j, d) zero?

        ``which`` indexes (0=match, 1=substitution, 2=insertion, 3=deletion).
        Column indices ``j`` run from 1..n (column 0 stores nothing).
        """
        if bit < 0:
            return True
        value = self.stored_quad[d][j - 1][which]
        counter = self.counter
        counter.dp_reads += 1
        counter.bytes_read += self.entry_store_bytes
        if not self.traceback_band:
            return not (value >> bit) & 1
        offset = bit - self.band_lo(j)
        if offset < 0 or offset >= self._stored_band_width():
            return False
        return not (value >> offset) & 1


def genasm_dc(
    pattern: str,
    text: str,
    max_errors: int,
    *,
    entry_compression: bool = True,
    early_termination: bool = True,
    traceback_band: bool = True,
    counter: Optional[AccessCounter] = None,
    pattern_masks: Optional[Dict[str, int]] = None,
    store_from_column: int = 0,
) -> DCTable:
    """Run GenASM-DC and return the stored table for traceback.

    Parameters
    ----------
    pattern, text:
        The pattern (read window) and text (reference window).  The
        alignment semantics are Bitap-style: the pattern may start anywhere
        in the text but a full-pattern solution is only recognised at text
        positions where the MSB becomes zero; callers that need
        start-anchored windows feed reversed sequences (see
        :mod:`repro.core.windowing`).
    max_errors:
        ``k`` — the largest error level evaluated.
    entry_compression, early_termination, traceback_band:
        The three improvement toggles (all on = the IPPS 2022 algorithm,
        all off = baseline GenASM).
    counter:
        Optional shared :class:`AccessCounter`; a fresh one is created when
        omitted and is always available as ``table.counter``.
    store_from_column:
        Traceback-reachability pruning over text columns: entries at text
        positions below this column are computed (the recurrence needs
        them) but never persisted or counted as DP-table writes.  Windowed
        alignment sets this from
        :func:`repro.core.improvements.reachable_column_start` for windows
        whose traceback is known to stop after the committed columns.
    """
    m = len(pattern)
    n = len(text)
    k = max(0, min(max_errors, max(m, 1)))
    counter = counter if counter is not None else AccessCounter()
    store_from = max(0, min(store_from_column, n)) if traceback_band else 0

    table = DCTable(
        pattern=pattern,
        text=text,
        max_errors=k,
        entry_compression=entry_compression,
        early_termination=early_termination,
        traceback_band=traceback_band,
        store_from_column=store_from,
        counter=counter,
    )

    if m == 0:
        # Empty pattern: trivially matched with zero errors everywhere.  The
        # stored representation must match what the config asked for — the
        # quad traceback path reads ``stored_quad``, never ``stored_r``.
        table.rows_computed = 1
        table.min_errors = 0
        table.final_column = [0]
        if entry_compression:
            table.stored_r = [[0] * (n + 1)]
        else:
            table.stored_quad = [[(0, 0, 0, 0)] * n]
        return table

    ones = all_ones(m)
    pm = pattern_masks if pattern_masks is not None else pattern_bitmasks_zero_match(pattern)
    text_masks = [pm.get(c, ones) for c in text]

    entry_store = table.entry_store_bytes
    width = band_width(m, k)
    band_mask = all_ones(width)
    # Band offset per column, precomputed so the hot loop stays branch-light.
    if traceback_band:
        # band_bounds(j, n, m, k)[0] for every column, in closed form.
        shift = n - m + 1 + k
        band_lo = [max(0, j - shift) for j in range(n + 1)]
    else:
        band_lo = [0] * (n + 1)
    table._band_lo = band_lo
    table._band_width = width

    previous_row: List[int] = []
    min_errors: Optional[int] = None

    for d in range(k + 1):
        row: List[int] = [0] * (n + 1)
        # Column 0: pattern prefixes alignable against the empty text suffix
        # (only by deleting pattern characters, hence d of them at most).
        row[0] = (ones << d) & ones if d < m else 0

        # Hot loops: everything the recurrence needs is bound to locals.
        prev_value = row[0]
        prev_row = previous_row
        masks = text_masks
        if entry_compression:
            # One stored value per entry, R itself: compute the row, then
            # band-pack it in one pass.
            if d == 0:
                for j in range(1, n + 1):
                    prev_value = ((prev_value << 1) & ones) | masks[j - 1]
                    row[j] = prev_value
            else:
                # With no intermediates to store the terms fuse: the AND
                # with the m-bit diagonal drops every shift's carry-out.
                shifted = [value << 1 for value in prev_row]
                for j in range(1, n + 1):
                    prev_value = (
                        ((prev_value << 1) | masks[j - 1])
                        & shifted[j - 1]
                        & shifted[j]
                        & prev_row[j - 1]
                    )
                    row[j] = prev_value
            if traceback_band:
                stored_row = [ones] * store_from + [
                    (value >> lo) & band_mask
                    for value, lo in zip(row[store_from:], band_lo[store_from:])
                ]
            else:
                stored_row = row  # never written again; store_from is 0
        else:
            stored_quad_row: List[Tuple[int, int, int, int]] = []
            if d == 0:
                for j in range(1, n + 1):
                    value = ((prev_value << 1) & ones) | masks[j - 1]
                    row[j] = value
                    prev_value = value
                    if j >= store_from:
                        if traceback_band:
                            lo = band_lo[j]
                            stored_quad_row.append(
                                (
                                    (value >> lo) & band_mask,
                                    (ones >> lo) & band_mask,
                                    (ones >> lo) & band_mask,
                                    (ones >> lo) & band_mask,
                                )
                            )
                        else:
                            stored_quad_row.append((value, ones, ones, ones))
                    else:
                        stored_quad_row.append((ones, ones, ones, ones))
            else:
                for j in range(1, n + 1):
                    prev_diag = prev_row[j - 1]
                    match = ((prev_value << 1) & ones) | masks[j - 1]
                    subst = (prev_diag << 1) & ones
                    ins = (prev_row[j] << 1) & ones
                    value = match & subst & ins & prev_diag
                    row[j] = value
                    prev_value = value
                    if j >= store_from:
                        if traceback_band:
                            lo = band_lo[j]
                            stored_quad_row.append(
                                (
                                    (match >> lo) & band_mask,
                                    (subst >> lo) & band_mask,
                                    (ins >> lo) & band_mask,
                                    (prev_diag >> lo) & band_mask,
                                )
                            )
                        else:
                            stored_quad_row.append((match, subst, ins, prev_diag))
                    else:
                        stored_quad_row.append((ones, ones, ones, ones))

        # Bulk accounting (one update per row instead of per entry).
        stored_columns = n - max(0, store_from - 1)
        counter.entries_computed += n
        if entry_compression:
            counter.record_write(stored_columns + (1 if store_from == 0 else 0), entry_store)
        else:
            counter.record_write(4 * stored_columns, entry_store)

        if entry_compression:
            table.stored_r.append(stored_row)
        else:
            table.stored_quad.append(stored_quad_row)

        table.final_column.append(row[n])
        table.rows_computed = d + 1
        counter.rows_computed += 1

        if min_errors is None and solution_found(row[n], m):
            min_errors = d
            if early_termination:
                counter.rows_skipped += k - d
                break
        previous_row = row

    table.min_errors = min_errors
    return table


def genasm_distance_only(
    pattern: str,
    text: str,
    max_errors: Optional[int] = None,
    *,
    early_termination: bool = True,
) -> Optional[int]:
    """Semi-global (text-substring, end-reported) edit distance via GenASM-DC.

    Returns the minimum number of edits needed to align the whole pattern
    to some substring of ``text`` (ending anywhere), or ``None`` when it
    exceeds ``max_errors``.  No traceback state is stored, so this is the
    cheapest way to use GenASM as a pre-alignment filter.
    """
    m = len(pattern)
    n = len(text)
    if m == 0:
        return 0
    k = m if max_errors is None else max(0, min(max_errors, m))
    ones = all_ones(m)
    pm = pattern_bitmasks_zero_match(pattern)
    text_masks = [pm.get(c, ones) for c in text]

    previous_row: List[int] = []
    best: Optional[int] = None
    for d in range(k + 1):
        row = [0] * (n + 1)
        row[0] = (ones << d) & ones if d < m else 0
        found = bit_is_zero(row[0], m - 1)
        for j in range(1, n + 1):
            match = ((row[j - 1] << 1) & ones) | text_masks[j - 1]
            if d == 0:
                value = match
            else:
                value = (
                    match
                    & ((previous_row[j - 1] << 1) & ones)
                    & ((previous_row[j] << 1) & ones)
                    & previous_row[j - 1]
                )
            row[j] = value
            if bit_is_zero(value, m - 1):
                found = True
        if found and best is None:
            best = d
            if early_termination:
                return best
        previous_row = row
    return best

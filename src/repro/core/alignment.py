"""Alignment results.

Every aligner in the repository returns an :class:`Alignment`, which bundles
the aligned pair, the CIGAR, the edit distance and bookkeeping about where
in the text (reference candidate region) the alignment starts, plus optional
performance metadata (DP-table accesses, bytes touched) used by the
memory-footprint and memory-access experiments (E3/E4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.cigar import Cigar, CigarOp

__all__ = ["Alignment", "pretty_alignment"]


@dataclass
class Alignment:
    """Result of aligning ``pattern`` (read) against ``text`` (reference span).

    Attributes
    ----------
    pattern, text:
        The aligned sequences.  ``text`` is the full candidate region that
        was given to the aligner; the alignment may consume only part of it
        (semi-global semantics), described by ``text_start``/``text_end``.
    cigar:
        Run-length encoded alignment operations (``=``, ``X``, ``I``, ``D``).
    edit_distance:
        Unit-cost edit distance of the reported alignment.
    score:
        Optional affine-gap score (filled in by the KSW2-like aligner or by
        re-scoring a CIGAR).
    text_start, text_end:
        Half-open interval of the text consumed by the alignment.
    aligner:
        Name of the aligner that produced the result (for reports).
    metadata:
        Free-form counters (e.g. ``dp_bytes``, ``dp_accesses``,
        ``windows``, ``rows_computed``) used by the experiments.
    """

    pattern: str
    text: str
    cigar: Cigar
    edit_distance: int
    score: Optional[int] = None
    text_start: int = 0
    text_end: Optional[int] = None
    aligner: str = "unknown"
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.text_end is None:
            self.text_end = self.text_start + self.cigar.text_length

    # ------------------------------------------------------------------ #
    @property
    def text_span(self) -> Tuple[int, int]:
        """Half-open text interval covered by the alignment."""
        return (self.text_start, int(self.text_end))

    def reference_coordinates(self, region_start: int = 0) -> Tuple[int, int]:
        """Absolute 0-based half-open reference interval of the alignment.

        ``region_start`` is where :attr:`text` begins on the reference
        (e.g. :attr:`~repro.mapping.mapper.CandidateMapping.ref_start`),
        so SAM/PAF emitters can place the alignment on the chromosome
        rather than on the candidate region.
        """
        return (region_start + self.text_start, region_start + int(self.text_end))

    @property
    def resolved_cigar(self) -> Cigar:
        """The CIGAR with ambiguous ``M`` runs resolved to ``=``/``X``.

        GenASM and the in-repo baselines emit ``=``/``X`` directly, in
        which case this is :attr:`cigar` itself; CIGARs carrying classic
        ``M`` (ALIGN) runs are resolved against the stored sequences so
        match counts and identity are exact either way.
        """
        return self.cigar.resolve_align(self.pattern, self.text[self.text_start :])

    @property
    def matches(self) -> int:
        """Number of exact-match columns (``M`` runs resolved first)."""
        return self.resolved_cigar.matches

    @property
    def identity(self) -> float:
        """Fraction of alignment columns that are exact matches.

        ``M`` (ALIGN) runs are resolved against the sequences before
        counting — a CIGAR like ``100M`` no longer reports near-zero
        identity just because none of its columns is literally ``=``.
        """
        total = len(self.cigar)
        return (self.matches / total) if total else 1.0

    def validate(self) -> None:
        """Re-check the CIGAR against the stored sequences.

        Raises ``ValueError`` if the CIGAR is inconsistent, which the test
        suite uses as a strong structural invariant for every aligner.
        """
        consumed_text = self.text[self.text_start : self.text_end]
        self.cigar.validate(self.pattern, consumed_text, partial_text=False)
        if self.cigar.edit_distance != self.edit_distance:
            raise ValueError(
                f"edit distance mismatch: cigar says {self.cigar.edit_distance}, "
                f"alignment says {self.edit_distance}"
            )

    def affine_score(
        self,
        match: int = 2,
        mismatch: int = -4,
        gap_open: int = -4,
        gap_extend: int = -2,
    ) -> int:
        """Affine-gap score of the reported CIGAR."""
        return self.cigar.affine_score(match, mismatch, gap_open, gap_extend)


def pretty_alignment(alignment: Alignment, width: int = 60) -> str:
    """Render an alignment as three stacked rows (pattern / bars / text).

    Intended for the examples and for debugging; matches are drawn with
    ``|``, mismatches with ``.``, and gaps with spaces.
    """
    pat_row: list[str] = []
    bar_row: list[str] = []
    txt_row: list[str] = []
    p = 0
    t = alignment.text_start
    for length, op in alignment.cigar:
        for _ in range(length):
            if op in (CigarOp.MATCH, CigarOp.MISMATCH, CigarOp.ALIGN):
                pc, tc = alignment.pattern[p], alignment.text[t]
                pat_row.append(pc)
                txt_row.append(tc)
                bar_row.append("|" if pc == tc else ".")
                p += 1
                t += 1
            elif op is CigarOp.INSERTION:
                pat_row.append(alignment.pattern[p])
                txt_row.append("-")
                bar_row.append(" ")
                p += 1
            elif op is CigarOp.DELETION:
                pat_row.append("-")
                txt_row.append(alignment.text[t])
                bar_row.append(" ")
                t += 1
            elif op is CigarOp.SOFT_CLIP:
                pat_row.append(alignment.pattern[p].lower())
                txt_row.append(" ")
                bar_row.append(" ")
                p += 1
    lines = []
    for start in range(0, len(pat_row), width):
        end = start + width
        lines.append("P " + "".join(pat_row[start:end]))
        lines.append("  " + "".join(bar_row[start:end]))
        lines.append("T " + "".join(txt_row[start:end]))
        lines.append("")
    return "\n".join(lines).rstrip()

"""CIGAR strings and edit operations.

Every aligner in this repository (GenASM, the DP oracles, the Edlib-like
and KSW2-like baselines, and the GPU kernels) reports its alignment as a
:class:`Cigar`, so alignments can be compared, validated and re-scored with
one shared implementation.

Operation semantics follow SAM conventions with the *pattern* (the read)
playing the role of the query and the *text* (the reference span) the role
of the reference:

``M``  match or mismatch — consumes one pattern and one text character.
``=``  exact match       — consumes one pattern and one text character.
``X``  mismatch          — consumes one pattern and one text character.
``I``  insertion         — consumes one pattern character only
        (a character present in the read but absent from the reference).
``D``  deletion          — consumes one text character only.
``S``  soft clip         — consumes pattern characters that are not aligned.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, List, Tuple

__all__ = ["CigarOp", "Cigar"]

_CIGAR_RE = re.compile(r"(\d+)([MIDNSHP=X])")


class CigarOp(str, Enum):
    """A single CIGAR operation code."""

    MATCH = "="
    MISMATCH = "X"
    ALIGN = "M"
    INSERTION = "I"
    DELETION = "D"
    SOFT_CLIP = "S"

    @property
    def consumes_pattern(self) -> bool:
        """Whether the operation advances the pattern (read/query)."""
        return self in (
            CigarOp.MATCH,
            CigarOp.MISMATCH,
            CigarOp.ALIGN,
            CigarOp.INSERTION,
            CigarOp.SOFT_CLIP,
        )

    @property
    def consumes_text(self) -> bool:
        """Whether the operation advances the text (reference)."""
        return self in (CigarOp.MATCH, CigarOp.MISMATCH, CigarOp.ALIGN, CigarOp.DELETION)

    @property
    def is_edit(self) -> bool:
        """Whether the operation counts toward unit-cost edit distance."""
        return self in (CigarOp.MISMATCH, CigarOp.INSERTION, CigarOp.DELETION)


@dataclass(frozen=True)
class Cigar:
    """An immutable run-length encoded sequence of CIGAR operations."""

    runs: Tuple[Tuple[int, CigarOp], ...] = ()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_string(cls, text: str) -> "Cigar":
        """Parse a SAM-style CIGAR string such as ``"10=1X3I2D"``."""
        if text in ("", "*"):
            return cls(())
        runs: List[Tuple[int, CigarOp]] = []
        consumed = 0
        for match in _CIGAR_RE.finditer(text):
            length, op = int(match.group(1)), match.group(2)
            if op in ("N", "H", "P"):
                raise ValueError(f"unsupported CIGAR op {op!r} in {text!r}")
            runs.append((length, CigarOp(op)))
            consumed += len(match.group(0))
        if consumed != len(text):
            raise ValueError(f"malformed CIGAR string: {text!r}")
        return cls.from_runs(runs)

    @classmethod
    def from_runs(cls, runs: Iterable[Tuple[int, CigarOp]]) -> "Cigar":
        """Build a canonical (merged, zero-free) CIGAR from run tuples."""
        merged: List[Tuple[int, CigarOp]] = []
        for length, op in runs:
            if length < 0:
                raise ValueError(f"negative CIGAR run length: {length}")
            if length == 0:
                continue
            if merged and merged[-1][1] == op:
                merged[-1] = (merged[-1][0] + length, op)
            else:
                merged.append((length, op))
        return cls(tuple(merged))

    @classmethod
    def from_ops(cls, ops: Iterable[CigarOp]) -> "Cigar":
        """Build a CIGAR from a sequence of single operations."""
        return cls.from_runs((1, op) for op in ops)

    # ------------------------------------------------------------------ #
    # Presentation and iteration
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        if not self.runs:
            return "*"
        return "".join(f"{length}{op.value}" for length, op in self.runs)

    def __len__(self) -> int:
        return sum(length for length, _ in self.runs)

    def __iter__(self) -> Iterator[Tuple[int, CigarOp]]:
        return iter(self.runs)

    def __bool__(self) -> bool:
        return bool(self.runs)

    def ops(self) -> Iterator[CigarOp]:
        """Iterate over individual operations (run-length expanded)."""
        for length, op in self.runs:
            for _ in range(length):
                yield op

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def pattern_length(self) -> int:
        """Number of pattern (read) characters consumed."""
        return sum(length for length, op in self.runs if op.consumes_pattern)

    @property
    def text_length(self) -> int:
        """Number of text (reference) characters consumed."""
        return sum(length for length, op in self.runs if op.consumes_text)

    @property
    def aligned_pattern_length(self) -> int:
        """Pattern characters consumed excluding soft clips."""
        return sum(
            length
            for length, op in self.runs
            if op.consumes_pattern and op is not CigarOp.SOFT_CLIP
        )

    @property
    def edit_distance(self) -> int:
        """Unit-cost edit distance implied by the CIGAR.

        ``M`` runs are ambiguous (match or mismatch) and contribute zero;
        callers that need exact distances should produce ``=``/``X`` runs,
        as every aligner in this repository does.
        """
        return sum(length for length, op in self.runs if op.is_edit)

    @property
    def matches(self) -> int:
        """Number of exact-match (``=``) columns.

        ``M`` (ALIGN) columns are ambiguous and contribute zero here; use
        :meth:`resolve_align` against the sequences first when a CIGAR may
        carry ``M`` runs (baseline aligners emit them).
        """
        return sum(length for length, op in self.runs if op is CigarOp.MATCH)

    @property
    def has_align_ops(self) -> bool:
        """Whether any ambiguous ``M`` (ALIGN) run is present."""
        return any(op is CigarOp.ALIGN for _, op in self.runs)

    @property
    def leading_clip(self) -> int:
        """Length of the leading soft-clip run (0 when none)."""
        return self.runs[0][0] if self.runs and self.runs[0][1] is CigarOp.SOFT_CLIP else 0

    @property
    def trailing_clip(self) -> int:
        """Length of the trailing soft-clip run (0 when none)."""
        if len(self.runs) < 2 or self.runs[-1][1] is not CigarOp.SOFT_CLIP:
            return 0
        return self.runs[-1][0]

    def counts(self) -> dict:
        """Return a mapping from op value to total length, for reporting."""
        out: dict = {}
        for length, op in self.runs:
            out[op.value] = out.get(op.value, 0) + length
        return out

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Cigar") -> "Cigar":
        return Cigar.from_runs(list(self.runs) + list(other.runs))

    def reversed(self) -> "Cigar":
        """Return the CIGAR of the reversed alignment."""
        return Cigar(tuple(reversed(self.runs)))

    def collapse_to_M(self) -> "Cigar":
        """Collapse ``=``/``X`` runs into SAM-classic ``M`` runs."""
        return Cigar.from_runs(
            (length, CigarOp.ALIGN if op in (CigarOp.MATCH, CigarOp.MISMATCH) else op)
            for length, op in self.runs
        )

    def resolve_align(self, pattern: str, text: str) -> "Cigar":
        """Split ambiguous ``M`` (ALIGN) runs into ``=``/``X`` runs.

        The inverse of :meth:`collapse_to_M`: every ``M`` column is
        compared against the sequences it covers (``pattern`` from the
        read, ``text`` from the *consumed* reference span, i.e. starting
        at the alignment's ``text_start``) and re-labelled as an exact
        match or a mismatch.  CIGARs without ``M`` runs are returned
        unchanged, so the call is safe on every aligner's output.

        Raises ``ValueError`` when an ``M`` run overruns either sequence.
        """
        if not self.has_align_ops:
            return self
        runs: List[Tuple[int, CigarOp]] = []
        p = 0
        t = 0
        for length, op in self.runs:
            if op is CigarOp.ALIGN:
                if p + length > len(pattern) or t + length > len(text):
                    raise ValueError(
                        f"'M' run of {length} at pattern {p} / text {t} overruns "
                        f"the sequences ({len(pattern)} / {len(text)} chars)"
                    )
                for i in range(length):
                    same = pattern[p + i] == text[t + i]
                    runs.append((1, CigarOp.MATCH if same else CigarOp.MISMATCH))
            else:
                runs.append((length, op))
            if op.consumes_pattern:
                p += length
            if op.consumes_text:
                t += length
        return Cigar.from_runs(runs)

    # ------------------------------------------------------------------ #
    # Validation and scoring against sequences
    # ------------------------------------------------------------------ #
    def validate(self, pattern: str, text: str, *, partial_text: bool = True) -> None:
        """Check that the CIGAR is consistent with ``pattern`` and ``text``.

        Raises ``ValueError`` when lengths do not add up or when a run
        labelled ``=`` covers characters that differ (or ``X`` covers equal
        characters).  ``partial_text`` permits the alignment to consume only
        a suffix-anchored prefix of the text, which is the semi-global
        semantics GenASM uses for candidate-region alignment.
        """
        if self.pattern_length != len(pattern):
            raise ValueError(
                f"CIGAR consumes {self.pattern_length} pattern chars, "
                f"pattern has {len(pattern)}"
            )
        if self.text_length > len(text) or (
            not partial_text and self.text_length != len(text)
        ):
            raise ValueError(
                f"CIGAR consumes {self.text_length} text chars, text has {len(text)}"
            )
        p = 0
        t = 0
        for length, op in self.runs:
            if op in (CigarOp.MATCH, CigarOp.MISMATCH):
                for i in range(length):
                    same = pattern[p + i] == text[t + i]
                    if op is CigarOp.MATCH and not same:
                        raise ValueError(
                            f"'=' run covers mismatching chars at pattern {p + i}"
                        )
                    if op is CigarOp.MISMATCH and same:
                        raise ValueError(
                            f"'X' run covers matching chars at pattern {p + i}"
                        )
            if op.consumes_pattern:
                p += length
            if op.consumes_text:
                t += length

    def score(self, match: int = 0, mismatch: int = 1, gap: int = 1) -> int:
        """Linear-gap score/cost of the CIGAR (defaults give edit distance)."""
        total = 0
        for length, op in self.runs:
            if op is CigarOp.MATCH:
                total += match * length
            elif op in (CigarOp.MISMATCH,):
                total += mismatch * length
            elif op in (CigarOp.INSERTION, CigarOp.DELETION):
                total += gap * length
        return total

    def affine_score(
        self,
        match: int = 2,
        mismatch: int = -4,
        gap_open: int = -4,
        gap_extend: int = -2,
    ) -> int:
        """Affine-gap alignment score of the CIGAR (KSW2-style defaults)."""
        total = 0
        for length, op in self.runs:
            if op is CigarOp.MATCH:
                total += match * length
            elif op is CigarOp.MISMATCH:
                total += mismatch * length
            elif op in (CigarOp.INSERTION, CigarOp.DELETION):
                total += gap_open + gap_extend * (length - 1)
        return total


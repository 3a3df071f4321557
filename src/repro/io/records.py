"""Alignment records ready for standard-format emission (SAM/PAF).

The aligners report :class:`~repro.core.alignment.Alignment` objects in
*candidate-region* coordinates; the mapper reports
:class:`~repro.mapping.mapper.CandidateMapping` objects that place those
regions on the reference.  This module joins the two into
:class:`AlignmentRecord` — absolute reference coordinates, an ``=``/``X``
resolved CIGAR, a primary/secondary election and a minimap2-style mapping
quality — which :mod:`repro.io.sam` and :mod:`repro.io.paf` then render.

Grouping matters: MAPQ is a property of one read's *set* of candidate
alignments (the score gap between the primary chain and the best
secondary), so records are built per read group (:func:`build_records`)
rather than per alignment.  :class:`GroupingSink` groups results as they
arrive, for :meth:`repro.pipeline.StreamingPipeline.run` and the offline
writers alike, and refuses a read whose results are split.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.alignment import Alignment
from repro.core.cigar import Cigar, CigarOp
from repro.mapping.mapper import CandidateMapping, mapping_confidence

__all__ = [
    "MAX_MAPQ",
    "AlignmentRecord",
    "GroupingSink",
    "as_pair",
    "build_records",
    "compute_mapq",
]

#: Cap on reported mapping quality (minimap2's ceiling).
MAX_MAPQ = 60


def compute_mapq(
    primary_score: float,
    secondary_score: float,
    identity: float = 1.0,
    *,
    anchors: int = 10,
) -> int:
    """Minimap2-style mapping quality in ``[0, MAX_MAPQ]``.

    The dominant term is the relative chain-score gap between the primary
    chain and the best secondary chain — a read whose second-best mapping
    scores nearly as well as its best is ambiguous no matter how clean the
    alignment looks.  The gap is scaled by the alignment identity and by
    an anchor-count confidence term (chains supported by fewer than 10
    anchors are down-weighted, as in minimap2's ``min(1, m/10)`` factor):

    ``mapq = 60 · (1 − s₂/s₁) · min(1, anchors/10) · identity``

    Monotone in the score gap and in identity; ``0`` when the mapping is
    fully ambiguous (``s₂ = s₁``) or the primary score is non-positive.
    """
    if primary_score <= 0:
        return 0
    secondary = min(max(secondary_score, 0.0), primary_score)
    gap = 1.0 - secondary / primary_score
    weight = min(1.0, anchors / 10.0)
    quality = MAX_MAPQ * gap * weight * max(0.0, min(1.0, identity))
    return int(max(0, min(MAX_MAPQ, math.floor(quality + 0.5))))


@dataclass(frozen=True)
class AlignmentRecord:
    """One alignment placed on the reference, ready to render.

    Coordinates are absolute and 0-based half-open (``ref_start`` /
    ``ref_end`` on ``chrom``); emitters apply their format's conventions
    (SAM's 1-based POS, PAF's BED-like columns).  ``sequence`` is the read
    in alignment orientation — for ``-`` strand mappings the reverse
    complement, exactly what SAM stores — and ``cigar`` is ``=``/``X``
    resolved and read-oriented, so it consumes ``sequence`` exactly.
    """

    read_name: str
    read_length: int
    chrom: str
    ref_start: int
    ref_end: int
    strand: str
    mapq: int
    cigar: Cigar
    sequence: str
    quality: str
    edit_distance: int
    alignment_score: int
    matches: int
    is_primary: bool
    chain_score: float

    @property
    def query_start(self) -> int:
        """0-based start of the aligned part on the *original* read."""
        lead, trail = self.cigar.leading_clip, self.cigar.trailing_clip
        return lead if self.strand == "+" else trail

    @property
    def query_end(self) -> int:
        """0-based end of the aligned part on the *original* read."""
        lead, trail = self.cigar.leading_clip, self.cigar.trailing_clip
        return self.read_length - (trail if self.strand == "+" else lead)

    @property
    def block_length(self) -> int:
        """Aligned columns (matches + mismatches + indels, clips excluded)."""
        return sum(
            length for length, op in self.cigar if op is not CigarOp.SOFT_CLIP
        )


def as_pair(item: object) -> Tuple[CandidateMapping, Alignment]:
    """Normalise a result item to a ``(candidate, alignment)`` pair.

    Accepts ``(CandidateMapping, Alignment)`` tuples and objects exposing
    ``candidate``/``alignment`` attributes (the pipeline's
    :class:`~repro.pipeline.pipeline.MappedAlignment`).  Raises
    ``ValueError`` for results without mapping provenance (bare
    ``align_pairs`` output) — without a candidate there is no reference
    placement to emit.
    """
    if isinstance(item, tuple) and len(item) == 2:
        candidate, alignment = item
    elif hasattr(item, "candidate") and hasattr(item, "alignment"):
        candidate, alignment = item.candidate, item.alignment
    else:
        raise TypeError(
            "expected a (CandidateMapping, Alignment) pair or an object with "
            f".candidate/.alignment, got {type(item).__name__}"
        )
    if candidate is None:
        raise ValueError(
            "result has no CandidateMapping (bare pair alignment?); SAM/PAF "
            "emission needs mapping provenance to place the read"
        )
    return candidate, alignment


def _trim_terminal_deletions(cigar: Cigar) -> Tuple[Cigar, int, int]:
    """Fold deletion runs at either end into reference coordinates.

    Semi-global alignment can report a CIGAR that opens or closes with
    ``D`` runs (reference consumed before the first / after the last read
    base).  SAM/PAF consumers reject those; the spec-conforming rendering
    advances POS past a leading deletion and shortens the reference span
    by a trailing one.  Returns ``(trimmed, leading, trailing)`` deleted
    reference bases.
    """
    runs = list(cigar.runs)
    leading = 0
    trailing = 0
    while runs and runs[0][1] is CigarOp.DELETION:
        leading += runs[0][0]
        runs.pop(0)
    while runs and runs[-1][1] is CigarOp.DELETION:
        trailing += runs[-1][0]
        runs.pop()
    if not leading and not trailing:
        return cigar, 0, 0
    return Cigar(tuple(runs)), leading, trailing


def build_records(
    group: Sequence[Tuple[CandidateMapping, Alignment]],
    *,
    qualities: Optional[Mapping[str, str]] = None,
) -> List[AlignmentRecord]:
    """Build emission records for one read's candidate alignments.

    Elects the primary (:func:`repro.mapping.mapper.mapping_confidence`),
    derives the primary's MAPQ from the chain-score gap and its alignment
    identity, resolves every CIGAR against its sequences and folds
    terminal deletion runs into the reference coordinates (SAM/PAF forbid
    an alignment opening or closing on ``D``).  Secondary records carry
    MAPQ 0 (their placement is by definition not unique).  ``qualities``
    maps read names to FASTQ quality strings; strings are reversed for
    ``-`` strand records to stay parallel to the emitted sequence.
    """
    if not group:
        return []
    candidates = [candidate for candidate, _ in group]
    primary_index, primary_score, secondary_score = mapping_confidence(candidates)

    records: List[AlignmentRecord] = []
    for index, (candidate, alignment) in enumerate(group):
        resolved, lead_del, trail_del = _trim_terminal_deletions(
            alignment.resolved_cigar
        )
        ref_start, ref_end = alignment.reference_coordinates(candidate.ref_start)
        ref_start += lead_del
        ref_end -= trail_del
        is_primary = index == primary_index
        mapq = (
            compute_mapq(
                primary_score,
                secondary_score,
                alignment.identity,
                anchors=candidate.anchors,
            )
            if is_primary
            else 0
        )
        quality = (qualities or {}).get(candidate.read_name, "")
        if quality and candidate.strand == "-":
            quality = quality[::-1]
        records.append(
            AlignmentRecord(
                read_name=candidate.read_name,
                read_length=len(alignment.pattern),
                chrom=candidate.chrom,
                ref_start=ref_start,
                ref_end=ref_end,
                strand=candidate.strand,
                mapq=mapq,
                cigar=resolved,
                sequence=alignment.pattern,
                quality=quality,
                edit_distance=resolved.edit_distance,
                alignment_score=resolved.affine_score(),
                matches=resolved.matches,
                is_primary=is_primary,
                chain_score=float(candidate.chain_score),
            )
        )
    return records


class GroupingSink:
    """Stream adapter: buffer per-read groups, emit each exactly once.

    Wraps an emitter (anything with ``emit_group``) behind the pipeline's
    emit-sink seam: :meth:`write` accepts results one at a time in any of
    the shapes :func:`as_pair` takes, buffers them per read, and hands
    complete groups to the emitter.

    The pipeline emits in candidate input order, so each read's results
    arrive contiguously: a group is emitted as soon as a result for a
    *different* read arrives — records hit the output handle while the
    pipeline is still running.  A read reappearing after its group was
    emitted raises ``ValueError`` (the stream was not grouped).
    """

    def __init__(self, emitter) -> None:
        self.emitter = emitter
        self._groups: "OrderedDict[str, List[Tuple[CandidateMapping, Alignment]]]" = (
            OrderedDict()
        )
        self._emitted: set = set()
        #: Records written so far (updated as groups flush).
        self.records = 0

    def write(self, item: object) -> None:
        candidate, alignment = as_pair(item)
        name = candidate.read_name
        if name in self._emitted:
            raise ValueError(
                f"read {name!r} reappeared after its group was emitted; "
                "the stream must keep each read's results together"
            )
        if self._groups and name not in self._groups:
            self.flush()
        self._groups.setdefault(name, []).append((candidate, alignment))

    def flush(self) -> None:
        """Emit every buffered group (in arrival order)."""
        for name in list(self._groups):
            group = self._groups.pop(name)
            self.emitter.emit_group(group)
            self._emitted.add(name)
            self.records += len(group)

    def finish(self) -> None:
        """Emit remaining groups; the pipeline calls this at end of stream."""
        self.flush()

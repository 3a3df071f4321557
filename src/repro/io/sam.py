"""SAM emission (SAM spec v1.6, minimap2 ``--eqx`` style CIGARs).

Renders :class:`~repro.io.records.AlignmentRecord` values as SAM lines:
``@HD``/``@SQ``/``@PG`` header from the reference genome, 1-based POS,
``0x10``/``0x100`` flags for strand and secondaries, the ``=``/``X``
resolved CIGAR (spec-valid and unambiguous; ``collapse_to_M`` the record's
CIGAR first if a classic-``M`` consumer insists), and ``NM``/``AS``/``s1``
tags.  SEQ is stored in alignment orientation (reverse complement for
``-`` strand mappings) per the spec, so the CIGAR always consumes SEQ
exactly.

Two front-ends share the rendering:

* :func:`write_sam` — offline: any iterable of pipeline results or
  ``(candidate, alignment)`` pairs, grouped per read internally;
* :class:`SamSink` — streaming: pass to
  :meth:`repro.pipeline.StreamingPipeline.run` (``sink=``) and records are
  written while the pipeline runs, byte-identical to the offline path.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.genomics.genome import SyntheticGenome
from repro.io.records import (
    AlignmentRecord,
    GroupingSink,
    build_records,
    group_by_read,
)

__all__ = [
    "FLAG_REVERSE",
    "FLAG_SECONDARY",
    "FLAG_UNMAPPED",
    "SamEmitter",
    "SamSink",
    "sam_header_lines",
    "sam_record_line",
    "write_sam",
]

SAM_VERSION = "1.6"

FLAG_UNMAPPED = 0x4
FLAG_REVERSE = 0x10
FLAG_SECONDARY = 0x100


def sam_header_lines(
    genome: SyntheticGenome,
    *,
    sort_order: str = "unknown",
    program: str = "repro-genasm",
    command_line: Optional[str] = None,
) -> List[str]:
    """``@HD`` + one ``@SQ`` per chromosome + ``@PG`` (without newlines)."""
    lines = [f"@HD\tVN:{SAM_VERSION}\tSO:{sort_order}"]
    for name in genome.names():
        lines.append(f"@SQ\tSN:{name}\tLN:{genome.chromosome_length(name)}")
    pg = f"@PG\tID:{program}\tPN:{program}"
    if command_line:
        pg += f"\tCL:{command_line}"
    lines.append(pg)
    return lines


def sam_record_line(record: AlignmentRecord) -> str:
    """One SAM alignment line (no newline) for an emission record."""
    flag = 0
    if record.strand == "-":
        flag |= FLAG_REVERSE
    if not record.is_primary:
        flag |= FLAG_SECONDARY
    fields = [
        record.read_name,
        str(flag),
        record.chrom,
        str(record.ref_start + 1),  # SAM POS is 1-based
        str(record.mapq),
        str(record.cigar),
        "*",  # RNEXT (unpaired)
        "0",  # PNEXT
        "0",  # TLEN
        record.sequence or "*",
        record.quality or "*",
        f"NM:i:{record.edit_distance}",
        f"AS:i:{record.alignment_score}",
        f"s1:i:{int(round(record.chain_score))}",
    ]
    return "\t".join(fields)


class SamEmitter:
    """Write SAM to an open text handle, one read group at a time.

    The header is written at construction; :meth:`emit_group` builds
    records for one read's candidate alignments (primary election + MAPQ,
    see :func:`repro.io.records.build_records`) and writes their lines.
    ``qualities`` maps read names to FASTQ quality strings for the QUAL
    column (``*`` when absent).
    """

    def __init__(
        self,
        handle: IO[str],
        genome: SyntheticGenome,
        *,
        qualities: Optional[Mapping[str, str]] = None,
        sort_order: str = "unknown",
        program: str = "repro-genasm",
        command_line: Optional[str] = None,
    ) -> None:
        self.handle = handle
        self.qualities = qualities
        for line in sam_header_lines(
            genome, sort_order=sort_order, program=program, command_line=command_line
        ):
            handle.write(line + "\n")

    def emit_group(self, group: Sequence[Tuple]) -> List[AlignmentRecord]:
        records = build_records(group, qualities=self.qualities)
        for record in records:
            self.handle.write(sam_record_line(record) + "\n")
        return records

    def emit_unmapped(self, name: str, sequence: str, quality: str = "") -> None:
        """Emit a flag-4 record for a read with no candidate mappings."""
        fields = [
            name,
            str(FLAG_UNMAPPED),
            "*",
            "0",
            "0",
            "*",
            "*",
            "0",
            "0",
            sequence or "*",
            quality or "*",
        ]
        self.handle.write("\t".join(fields) + "\n")


class SamSink(GroupingSink):
    """Streaming SAM sink for ``StreamingPipeline.run(reads, sink=...)``."""

    def __init__(
        self,
        handle: IO[str],
        genome: SyntheticGenome,
        *,
        qualities: Optional[Mapping[str, str]] = None,
        **emitter_kwargs,
    ) -> None:
        emitter = SamEmitter(handle, genome, qualities=qualities, **emitter_kwargs)
        super().__init__(emitter)


def write_sam(
    destination: Union[str, Path, IO[str]],
    results: Iterable[object],
    genome: SyntheticGenome,
    *,
    qualities: Optional[Mapping[str, str]] = None,
    **emitter_kwargs,
) -> int:
    """Write an offline result list as SAM; returns the record count.

    ``results`` is any iterable of pipeline results
    (:class:`~repro.pipeline.pipeline.MappedAlignment`) or
    ``(candidate, alignment)`` pairs, grouped per read internally (reads
    must be contiguous, as the mapper and the ordered pipeline emit them).
    ``destination`` may be a path or an open text handle.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="ascii") as handle:
            return write_sam(
                handle, results, genome, qualities=qualities, **emitter_kwargs
            )
    emitter = SamEmitter(destination, genome, qualities=qualities, **emitter_kwargs)
    count = 0
    for _, group in group_by_read(results):
        count += len(emitter.emit_group(group))
    return count

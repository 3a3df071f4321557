"""PAF emission (minimap2's pairwise mapping format).

Renders :class:`~repro.io.records.AlignmentRecord` values as PAF lines:
the 12 mandatory columns (query name/length/start/end, strand, target
name/length/start/end, residue matches, alignment block length, MAPQ —
all coordinates 0-based, BED-like) plus ``NM:i``/``AS:i`` tags, the
``tp:A:P``/``tp:A:S`` primary/secondary marker and the ``cg:Z`` CIGAR
tag minimap2 emits under ``-c``.

Same two front-ends as :mod:`repro.io.sam`: :func:`write_paf` offline,
:class:`PafSink` streaming through the pipeline's ``sink=`` seam.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, List, Sequence, Tuple, Union

from repro.genomics.genome import SyntheticGenome
from repro.io.records import AlignmentRecord, GroupingSink, build_records, group_by_read

__all__ = ["PafEmitter", "PafSink", "paf_record_line", "write_paf"]


def paf_record_line(record: AlignmentRecord, target_length: int) -> str:
    """One PAF line (no newline) for an emission record."""
    fields = [
        record.read_name,
        str(record.read_length),
        str(record.query_start),
        str(record.query_end),
        record.strand,
        record.chrom,
        str(target_length),
        str(record.ref_start),
        str(record.ref_end),
        str(record.matches),
        str(record.block_length),
        str(record.mapq),
        f"NM:i:{record.edit_distance}",
        f"AS:i:{record.alignment_score}",
        f"tp:A:{'P' if record.is_primary else 'S'}",
        f"cg:Z:{record.cigar}",
    ]
    return "\t".join(fields)


class PafEmitter:
    """Write PAF to an open text handle, one read group at a time.

    PAF has no header; the genome supplies target (chromosome) lengths
    for column 7.
    """

    def __init__(self, handle: IO[str], genome: SyntheticGenome) -> None:
        self.handle = handle
        self.genome = genome

    def emit_group(self, group: Sequence[Tuple]) -> List[AlignmentRecord]:
        records = build_records(group)
        for record in records:
            target_length = self.genome.chromosome_length(record.chrom)
            self.handle.write(paf_record_line(record, target_length) + "\n")
        return records


class PafSink(GroupingSink):
    """Streaming PAF sink for ``StreamingPipeline.run(reads, sink=...)``."""

    def __init__(self, handle: IO[str], genome: SyntheticGenome) -> None:
        super().__init__(PafEmitter(handle, genome))


def write_paf(
    destination: Union[str, Path, IO[str]],
    results: Iterable[object],
    genome: SyntheticGenome,
) -> int:
    """Write an offline result list as PAF; returns the record count.

    Accepts the same result shapes as :func:`repro.io.sam.write_sam`.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="ascii") as handle:
            return write_paf(handle, results, genome)
    emitter = PafEmitter(destination, genome)
    count = 0
    for _, group in group_by_read(results):
        count += len(emitter.emit_group(group))
    return count

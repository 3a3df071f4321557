"""Standard alignment output: SAM and PAF emission with MAPQ.

The repro's compute path ends in :class:`~repro.core.alignment.Alignment`
objects; this package turns them into formats the rest of the genomics
toolchain consumes.  :mod:`repro.io.records` joins alignments with their
mapping provenance (reference placement, primary/secondary election, a
minimap2-style MAPQ from the chain-score gap and identity);
:mod:`repro.io.sam` and :mod:`repro.io.paf` render the records.  Both
formats have a streaming sink (``SamSink``/``PafSink``) for
:meth:`repro.pipeline.StreamingPipeline.run`'s ``sink=`` seam and an
offline writer (``write_sam``/``write_paf``) that drives the same sink
over a result list, so the two paths are byte-identical on the same
results and both refuse a read whose results are not contiguous.
"""

from repro.io.paf import PafEmitter, PafSink, paf_record_line, write_paf
from repro.io.records import (
    MAX_MAPQ,
    AlignmentRecord,
    GroupingSink,
    as_pair,
    build_records,
    compute_mapq,
)
from repro.io.sam import (
    FLAG_REVERSE,
    FLAG_SECONDARY,
    FLAG_UNMAPPED,
    SamEmitter,
    SamSink,
    sam_header_lines,
    sam_record_line,
    write_sam,
)

__all__ = [
    "FLAG_REVERSE",
    "FLAG_SECONDARY",
    "FLAG_UNMAPPED",
    "MAX_MAPQ",
    "AlignmentRecord",
    "GroupingSink",
    "as_pair",
    "PafEmitter",
    "PafSink",
    "SamEmitter",
    "SamSink",
    "build_records",
    "compute_mapq",
    "paf_record_line",
    "sam_header_lines",
    "sam_record_line",
    "write_paf",
    "write_sam",
]

#!/usr/bin/env python3
"""The one smoke: a declared experiment grid plus SAM/PAF self-checks.

CI's single end-to-end gate, in two halves:

* **the grid** — runs a declared backend × window × wave sweep
  (:mod:`repro.harness.grid`) over one simulated long-read workload: the
  serial loop, the vectorized engine, a warm two-worker shared-memory
  pool and the streaming pipeline, three timed trials per cell.  It
  appends one provenance-stamped row per cell (median, min and max
  seconds) to the checked-in ``BENCH_pipeline.json`` trajectory
  (``grid_history``) and **fails** if any trial of any cell differs from
  the vectorized reference or if either declared gate drops below its
  floor: vectorized over serial (0.55) and shared over vectorized (0.72).
  Serial and shared cells never read the wave size, so each runs once;
* **the emitters** — streams the same workload through
  :class:`repro.pipeline.StreamingPipeline` with SAM and PAF sinks and
  **fails** unless the output passes spec-level self-checks (header
  matches the reference, every CIGAR consumes its SEQ exactly, ``NM``
  equals the CIGAR's edit distance, POS is 1-based and in-bounds, PAF
  coordinates are consistent) and is byte-identical to the offline
  ``write_sam``/``write_paf`` path.

Run with::

    python examples/e4_grid_smoke.py [bench_path]

``shared`` cells start worker processes, hence the ``__main__`` guard.
"""

import io
import sys

from repro.core.cigar import Cigar
from repro.harness.grid import HISTORY_KEY, ExperimentGrid, GridRunner
from repro.io import PafSink, SamSink, write_paf, write_sam
from repro.mapping.mapper import Mapper
from repro.pipeline import StreamingPipeline

#: The declared sweep (the experiment *is* this config).
GRID_SPEC = {
    "name": "e4_grid_smoke",
    "workloads": {
        "long_read": {"read_count": 96, "read_length": 500, "seed": 7},
    },
    "backends": ["serial", "vectorized", "shared", "streaming"],
    "window_sizes": [64],
    "wave_sizes": [64, 256],
    "gates": [
        {
            "metric": "pairs_per_second",
            "cell": {"backend": "vectorized", "wave_size": 256},
            "reference_cell": {"backend": "serial"},
            "floor": 0.55,
        },
        {
            "metric": "pairs_per_second",
            "cell": {"backend": "shared"},
            "reference_cell": {"backend": "vectorized", "wave_size": 256},
            "floor": 0.72,
        },
    ],
}


def _tags(fields):
    out = {}
    for tag in fields:
        name, kind, value = tag.split(":", 2)
        out[name] = int(value) if kind == "i" else value
    return out


def check_sam(text: str, genome) -> int:
    """Spec-level SAM self-checks; returns the alignment-record count."""
    lines = text.splitlines()
    assert lines and lines[0].startswith("@HD\tVN:"), "SAM must open with @HD"
    sq = {}
    for line in lines:
        if line.startswith("@SQ"):
            fields = dict(f.split(":", 1) for f in line.split("\t")[1:])
            sq[fields["SN"]] = int(fields["LN"])
    assert sq == {
        name: genome.chromosome_length(name) for name in genome.names()
    }, "@SQ lines must mirror the reference"
    records = 0
    for line in lines:
        if line.startswith("@"):
            continue
        fields = line.split("\t")
        qname, flag, rname, pos, mapq, cigar_text, _, _, _, seq, _ = fields[:11]
        flag, pos, mapq = int(flag), int(pos), int(mapq)
        if flag & 0x4:
            continue  # unmapped: no placement to check
        cigar = Cigar.from_string(cigar_text)
        assert cigar.pattern_length == len(seq), (
            f"{qname}: CIGAR consumes {cigar.pattern_length} bases, SEQ has {len(seq)}"
        )
        assert 1 <= pos and pos - 1 + cigar.text_length <= sq[rname], (
            f"{qname}: POS {pos} + span {cigar.text_length} leaves {rname}"
        )
        tags = _tags(fields[11:])
        assert tags["NM"] == cigar.edit_distance, (
            f"{qname}: NM {tags['NM']} != CIGAR edit distance {cigar.edit_distance}"
        )
        assert 0 <= mapq <= 60, f"{qname}: MAPQ {mapq} out of range"
        if flag & 0x100:
            assert mapq == 0, f"{qname}: secondary record with MAPQ {mapq}"
        records += 1
    return records


def check_paf(text: str, genome) -> int:
    """Spec-level PAF self-checks; returns the record count."""
    records = 0
    for line in text.splitlines():
        fields = line.split("\t")
        qname = fields[0]
        qlen, qstart, qend = (int(f) for f in fields[1:4])
        tname = fields[5]
        tlen, tstart, tend = (int(f) for f in fields[6:9])
        matches, block, mapq = (int(f) for f in fields[9:12])
        assert 0 <= qstart < qend <= qlen, f"{qname}: bad query interval"
        assert 0 <= tstart < tend <= tlen, f"{qname}: bad target interval"
        assert tlen == genome.chromosome_length(tname)
        assert 0 <= matches <= block, f"{qname}: matches exceed block length"
        assert 0 <= mapq <= 60, f"{qname}: MAPQ {mapq} out of range"
        tags = _tags(fields[12:])
        cigar = Cigar.from_string(tags["cg"])
        assert cigar.text_length == tend - tstart, f"{qname}: cg vs target span"
        assert tags["NM"] == cigar.edit_distance, f"{qname}: NM vs cg edit distance"
        records += 1
    return records


def main() -> None:
    bench_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_pipeline.json"
    grid = ExperimentGrid.from_dict(GRID_SPEC)
    runner = GridRunner(grid, bench_path)

    rows = runner.run()
    for row in rows:
        print(
            f"{row['workload']:>10s} {row['backend']:>10s} "
            f"wave={row['wave_size'] or '-':<4} {row['pairs']:4d} pairs "
            f"{row['pairs_per_second']:8.1f} pairs/s (median of {row['trials']}, "
            f"{row['min_seconds']:.3f}-{row['max_seconds']:.3f}s) "
            f"identical={row['identical']}"
        )
        trend = runner.recorder.trend(HISTORY_KEY, "pairs_per_second", cell=row)
        if trend is not None:
            print(
                f"{'':>27s}trend: latest {trend['latest']:.1f} vs trailing mean "
                f"{trend['trailing_mean']:.1f} of this cell (delta {trend['delta']:+.1f})"
            )
    verdict = runner.check(rows)
    for gate in verdict["gates"]:
        print(
            f"gate: {gate['metric']} {gate['cell']} {gate['value']:.1f} vs "
            f"{gate['reference_cell']} {gate['reference_value']:.1f} -> ratio "
            f"{gate['ratio']:.2f} (floor {gate['floor']}) {'ok' if gate['ok'] else 'FAIL'}"
        )
    assert verdict["ok"], f"grid gate failed: {verdict}"

    # ---------------------------------------------------------------- #
    # SAM/PAF: stream through the pipeline sink seam, then prove the
    # offline writer produces the same bytes and both pass spec checks.
    workload = runner._workload("long_read")
    qualities = {read.name: read.quality for read in workload.reads}
    mapper = Mapper(workload.genome)

    sam_stream, paf_stream = io.StringIO(), io.StringIO()
    pipeline = StreamingPipeline(mapper, wave_size=256)
    results = pipeline.run_all(
        workload.reads,
        sink=SamSink(sam_stream, workload.genome, qualities=qualities),
    )
    write_paf(paf_stream, results, workload.genome)

    sam_offline = io.StringIO()
    write_sam(sam_offline, results, workload.genome, qualities=qualities)
    assert sam_stream.getvalue() == sam_offline.getvalue(), (
        "streamed SAM sink output differs from the offline writer"
    )
    paf_sink_stream = io.StringIO()
    StreamingPipeline(mapper, wave_size=256).run_all(
        workload.reads, sink=PafSink(paf_sink_stream, workload.genome)
    )
    assert paf_sink_stream.getvalue() == paf_stream.getvalue(), (
        "streamed PAF sink output differs from the offline writer"
    )

    sam_records = check_sam(sam_stream.getvalue(), workload.genome)
    paf_records = check_paf(paf_stream.getvalue(), workload.genome)
    assert sam_records == paf_records == len(results)
    primaries = sum(
        1
        for line in sam_stream.getvalue().splitlines()
        if not line.startswith("@") and not int(line.split("\t")[1]) & 0x104
    )
    print(
        f"sam/paf: {sam_records} records ({primaries} primary) for "
        f"{len(workload.reads)} reads -- spec checks + offline/streamed parity OK"
    )


if __name__ == "__main__":
    main()

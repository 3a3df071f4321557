"""Correctness verdict of one benchmark run, outside every timed region.

Run as ``python -m perfbench.check`` after :mod:`perfbench.measure` has
exited, so none of this shows in the measured process's time or memory.

Batch workloads:

* every SAM record of the last pass parses back: the CIGAR's query length
  equals the length of SEQ, ``NM`` equals the CIGAR's edit distance, POS
  and the aligned span fall inside the reference, SEQ is the read (reverse
  complemented on ``-``), and there is one record per candidate pair;
* every pass wrote byte-identical SAM, and every traced pass counted the
  same layer work (:func:`perfbench.exact_counts`);
* every pair of a seeded sample of reads is re-aligned with the scalar
  ``GenASMAligner`` and must match in CIGAR, edit distance and
  ``text_end``; its pattern and
  text must be the read and the candidate's reference region, and its SAM
  record's ``NM`` must be its edit distance less terminal deletions.

Service: every response must equal an offline
``BatchAlignmentEngine.align_pairs`` over the same pairs (the corpus is
aligned once; clients send each corpus request several times); a request
with no response (error or deadline) is failed.
"""

from __future__ import annotations

import argparse
import json
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import exact_counts, stats
from perfbench.inputs import GENOME_FILE, READS_FILE
from perfbench.measure import OUTPUT_FILE
from perfbench.workloads import WORKLOADS, Workload
from repro.batch.engine import BatchAlignmentEngine
from repro.core.aligner import GenASMAligner
from repro.genomics.fasta import iter_fastq, read_fasta
from repro.genomics.sequences import reverse_complement

VERDICT_FILE = "verdict.json"

_CIGAR = re.compile(r"(\d+)([MIDNSHP=X])")
_QUERY_OPS = "MIS=X"
_REFERENCE_OPS = "MDN=X"
_EDIT_OPS = "XID"

#: Lanes per wave of the offline reference run over the service's pairs.
OFFLINE_MAX_LANES = 256


def parse_cigar(text: str) -> List[Tuple[int, str]]:
    runs = [(int(length), op) for length, op in _CIGAR.findall(text)]
    if "".join(f"{n}{op}" for n, op in runs) != text or not runs:
        raise ValueError(f"malformed CIGAR {text!r}")
    return runs


def cigar_length(runs, ops: str) -> int:
    return sum(length for length, op in runs if op in ops)


def trimmed_edit_distance(cigar: str) -> int:
    """Edit distance once terminal deletions are folded into POS/span."""
    runs = parse_cigar(cigar)
    while runs and runs[0][1] == "D":
        runs.pop(0)
    while runs and runs[-1][1] == "D":
        runs.pop()
    return cigar_length(runs, _EDIT_OPS)


def sam_record_errors(
    fields: List[str], chromosomes: Dict[str, str], reads: Dict[str, str]
) -> List[str]:
    """What is wrong with one SAM alignment line (empty when it is right)."""
    if len(fields) < 11:
        return ["fewer than 11 fields"]
    name, flag, chrom, pos, _mapq, cigar, _rn, _pn, _tl, seq = fields[:10]
    errors = []
    try:
        runs = parse_cigar(cigar)
    except ValueError as error:
        return [str(error)]
    if cigar_length(runs, _QUERY_OPS) != len(seq):
        errors.append("CIGAR query length differs from SEQ length")
    tags = dict(field.split(":", 1) for field in fields[11:])
    if tags.get("NM") != f"i:{cigar_length(runs, _EDIT_OPS)}":
        errors.append("NM differs from the CIGAR's edit distance")
    length = len(chromosomes.get(chrom, ""))
    start = int(pos)
    if not (1 <= start and start - 1 + cigar_length(runs, _REFERENCE_OPS) <= length):
        errors.append("alignment falls outside the reference")
    read = reads.get(name)
    expected = read if read is None or not int(flag) & 0x10 else reverse_complement(read)
    if seq != expected:
        errors.append("SEQ is not the read in alignment orientation")
    return errors


def uneven_passes(layer_counts: List[Optional[dict]], names: Sequence[str]) -> List[int]:
    """Traced passes (``None`` marks an untraced one) whose counts of
    ``names`` differ from the first traced pass's."""
    traced = [(i, counts) for i, counts in enumerate(layer_counts) if counts is not None]
    return [
        i
        for i, counts in traced
        if any(counts.get(name, 0) != traced[0][1].get(name, 0) for name in names)
    ]


def check_batch(spec: Workload, directory: Path, outputs: dict) -> Tuple[int, int, List[str]]:
    chromosomes = read_fasta(directory / GENOME_FILE)
    reads = {name: seq for name, seq, _q in iter_fastq(directory / READS_FILE)}
    pairs = outputs["pairs"]
    attempted = sum(pairs)
    failed = 0
    lines = []

    records: Dict[str, List[List[str]]] = defaultdict(list)
    bad_records = 0
    count = 0
    with open(directory / outputs["sam"], "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("@"):
                continue
            fields = line.rstrip("\n").split("\t")
            count += 1
            records[fields[0]].append(fields)
            errors = sam_record_errors(fields, chromosomes, reads)
            if errors:
                bad_records += 1
                lines.append(f"SAM record {fields[0]}: {'; '.join(errors)}")
    if count != pairs[-1]:
        lines.append(f"SAM holds {count} records for {pairs[-1]} pairs")
        failed += abs(count - pairs[-1])
    failed += bad_records

    digests = outputs["digests"]
    differing = [i for i, digest in enumerate(digests) if digest != digests[0]]
    if differing:
        lines.append(f"passes {differing} wrote different SAM from pass 0")
        failed += sum(pairs[i] for i in differing)

    uneven = uneven_passes(outputs["layer_counts"], exact_counts())
    traced = sum(1 for counts in outputs["layer_counts"] if counts is not None)
    if uneven:
        lines.append(f"traced passes {uneven} counted different layer work from the first")
        failed += sum(pairs[i] for i in uneven)
    elif traced:
        lines.append(f"layer counts identical across {traced} traced passes")

    aligner = GenASMAligner(spec.genasm_config())
    bad_sample = 0
    for item in outputs["sample"]:
        read = reads[item["read"]]
        pattern = read if item["strand"] == "+" else reverse_complement(read)
        text = chromosomes[item["chrom"]][item["ref_start"] : item["ref_end"]]
        scalar = aligner.align(item["pattern"], item["text"])
        record = records.get(item["read"], [])
        problems = [
            label
            for label, ok in (
                ("pattern is not the read", item["pattern"] == pattern),
                ("text is not the candidate region", item["text"] == text),
                ("CIGAR", str(scalar.cigar) == item["cigar"]),
                ("edit distance", scalar.edit_distance == item["edit_distance"]),
                ("text_end", int(scalar.text_end) == item["text_end"]),
                (
                    "SAM NM",
                    item["rank"] < len(record)
                    and dict(f.split(":", 1) for f in record[item["rank"]][11:]).get("NM")
                    == f"i:{trimmed_edit_distance(str(scalar.cigar))}",
                ),
            )
            if not ok
        ]
        if problems:
            bad_sample += 1
            lines.append(f"pair {item['read']}#{item['rank']} differs: {', '.join(problems)}")
    failed += bad_sample
    lines.append(
        f"checked {count} SAM records ({bad_records} bad), {len(digests)} pass "
        f"digests, {len(outputs['sample'])} pairs against the scalar aligner "
        f"({bad_sample} wrong)"
    )
    return attempted, failed, lines


def check_service(spec: Workload, _directory: Path, outputs: dict) -> Tuple[int, int, List[str]]:
    requests = outputs["requests"]
    records = outputs["records"]
    flat = [tuple(pair) for pairs in requests for pair in pairs]
    engine = BatchAlignmentEngine(spec.genasm_config(), max_lanes=OFFLINE_MAX_LANES)
    offline = engine.align_pairs(flat)
    expected = []
    position = 0
    for pairs in requests:
        expected.append(
            [
                [str(a.cigar), a.edit_distance, int(a.text_end)]
                for a in offline[position : position + len(pairs)]
            ]
        )
        position += len(pairs)
    wrong = sum(
        1 for index, _latency, response in records
        if response is not None and response != expected[index]
    )
    # An unanswered request is the one with an infinite latency.
    latencies = [latency for _index, latency, _response in records]
    unanswered = stats.failed_count(latencies)
    lines = [
        f"checked {len(records)} responses against an offline engine run over "
        f"the {len(requests)}-request corpus ({len(flat)} pairs): "
        f"{unanswered} unanswered, {wrong} wrong"
    ]
    return len(records), stats.failed_count(latencies, wrong), lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    with open(args.dir / OUTPUT_FILE, "r", encoding="ascii") as handle:
        outputs = json.load(handle)["outputs"]
    check = check_service if spec.is_service else check_batch
    attempted, failed, lines = check(spec, args.dir, outputs)
    with open(args.dir / VERDICT_FILE, "w", encoding="ascii") as handle:
        json.dump({"attempted": attempted, "failed": failed, "lines": lines}, handle)


if __name__ == "__main__":
    main()

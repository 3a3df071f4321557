"""Golden candidates: the mapper's output on a fixed workload, field for field.

``tests/data/mapping_candidates.json`` holds every
:class:`~repro.mapping.mapper.CandidateMapping` two mapper settings report
for a seeded genome with planted repeats: 24 CLR-like reads, 48
Illumina-like reads and a set of edge reads (``N`` runs, lowercase,
shorter than ``k``, empty, repeat copies, exact slices on both strands).
Chain scores are stored as ``float.hex()`` so they compare bit for bit.

Regenerate (only when a change is *meant* to alter mapping output)::

    PYTHONPATH=src python tests/test_mapping_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import IlluminaSimulator, PacBioSimulator
from repro.genomics.sequences import random_dna, reverse_complement
from repro.mapping.mapper import Mapper

GOLDEN = Path(__file__).parent / "data" / "mapping_candidates.json"

#: Mapper settings the golden file covers, by label.
SETTINGS: Dict[str, Dict[str, object]] = {
    "default": {},
    "k13_w5_filtered": {
        "k": 13,
        "w": 5,
        "max_occurrences": 8,
        "min_chain_score": 25.0,
        "min_chain_anchors": 2,
    },
}


def golden_workload() -> Tuple[SyntheticGenome, List[Tuple[str, str]]]:
    """The seeded genome and the ``(name, sequence)`` reads mapped on it."""
    genome = SyntheticGenome.random(
        {"chr1": 60_000, "chr2": 30_000, "chrM": 6_000},
        seed=22,
        repeat_fraction=0.12,
        repeat_length=1_500,
    )
    clr = PacBioSimulator(mean_length=1_200, std_length=300, seed=23).simulate(genome, 24)
    illumina = IlluminaSimulator(read_length=150, seed=24).simulate(genome, 48)
    reads = [(r.name, r.sequence) for r in clr + illumina]

    rng = np.random.default_rng(25)
    base = clr[0].sequence
    short = illumina[0].sequence
    repeat = genome.repeats[0]
    repeat_copy = genome.fetch(
        repeat.target_chrom, repeat.target_start, repeat.target_start + repeat.length
    )
    exact = genome.fetch("chr1", 10_000, 15_000)
    reads += [
        ("edge_empty", ""),
        ("edge_shorter_than_k", short[:10]),
        ("edge_exactly_k", short[:15]),
        ("edge_n_run", base[:300] + "N" * 200 + base[300:]),
        ("edge_all_n", "N" * 400),
        ("edge_lowercase", base.lower()),
        (
            "edge_mixed_case",
            "".join(
                chunk.lower() if i % 2 else chunk
                for i, chunk in enumerate(short[j : j + 10] for j in range(0, len(short), 10))
            ),
        ),
        ("edge_repeat_copy", repeat_copy),
        ("edge_tandem", "ACGTACGTAC" * 60),
        ("edge_exact_forward", exact),
        ("edge_exact_reverse", reverse_complement(exact)),
        ("edge_random", random_dna(800, rng)),
    ]
    return genome, reads


def candidate_rows(mapper: Mapper, reads: List[Tuple[str, str]]) -> List[list]:
    """Every candidate of every read as a JSON-ready row, in mapper order."""
    rows = []
    for name, sequence in reads:
        for c in mapper.map_sequence(name, sequence):
            rows.append(
                [
                    c.read_name,
                    c.chrom,
                    c.ref_start,
                    c.ref_end,
                    c.strand,
                    float(c.chain_score).hex(),
                    c.anchors,
                    c.is_primary,
                ]
            )
    return rows


def compute_golden() -> Dict[str, List[list]]:
    genome, reads = golden_workload()
    return {
        label: candidate_rows(Mapper(genome, **params), reads)
        for label, params in SETTINGS.items()
    }


def test_candidates_match_the_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = compute_golden()
    assert sorted(got) == sorted(want)
    for label in want:
        assert len(got[label]) == len(want[label]), label
        for row_got, row_want in zip(got[label], want[label]):
            assert row_got == row_want, label


def test_golden_file_covers_every_case():
    want = json.loads(GOLDEN.read_text())
    for rows in want.values():
        names = {row[0] for row in rows}
        strands = {row[4] for row in rows}
        assert strands == {"+", "-"}
        assert any(name.startswith("read_") for name in names)
        assert any(name.startswith("short_") for name in names)
        assert "edge_n_run" in names and "edge_repeat_copy" in names
        # Reads with several candidates exercise the sort and the primary flag.
        per_read: Dict[str, int] = {}
        for row in rows:
            per_read[row[0]] = per_read.get(row[0], 0) + 1
        assert max(per_read.values()) > 2
        assert sum(row[7] for row in rows) == len(per_read)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    data = compute_golden()
    with GOLDEN.open("w") as handle:
        handle.write("{\n")
        for position, (label, rows) in enumerate(data.items()):
            handle.write(f"  {json.dumps(label)}: [\n")
            handle.write(",\n".join(f"    {json.dumps(row)}" for row in rows))
            handle.write("\n  ]" + ("," if position < len(data) - 1 else "") + "\n")
        handle.write("}\n")
    print({label: len(rows) for label, rows in data.items()})

#!/usr/bin/env python3
"""The paper's long-read pipeline, end to end, at laptop scale.

Simulates a repeat-bearing genome and PacBio-like long reads (the PBSIM2
role), maps the reads with the minimizer mapper reporting all chains (the
minimap2 ``-P`` role), aligns every candidate pair with improved GenASM,
baseline GenASM and the Edlib-like baseline, and prints a per-read summary
plus aggregate speed/traffic statistics.

Run with::

    python examples/long_read_pipeline.py
"""

import time
from collections import defaultdict

from repro import GenASMAligner, GenASMConfig
from repro.baselines import EdlibLikeAligner
from repro.core.metrics import AccessCounter
from repro.genomics import ErrorModel, PacBioSimulator, SyntheticGenome
from repro.mapping import Mapper


def main() -> None:
    print("1. building a synthetic genome with repeats ...")
    genome = SyntheticGenome.random(
        {"chr1": 150_000, "chr2": 80_000},
        seed=7,
        repeat_fraction=0.08,
        repeat_length=1_500,
    )
    print(f"   {len(genome.names())} chromosomes, {genome.total_length:,} bp, "
          f"{len(genome.repeats)} planted repeat copies")

    print("2. simulating PacBio-like long reads (PBSIM2 role) ...")
    simulator = PacBioSimulator(
        mean_length=2_000, std_length=400, error_model=ErrorModel.pacbio_clr(), seed=11
    )
    reads = simulator.simulate(genome, 12)
    mean_error = sum(r.true_edits / r.length for r in reads) / len(reads)
    print(f"   {len(reads)} reads, mean length "
          f"{sum(r.length for r in reads) // len(reads):,} bp, "
          f"mean error rate {mean_error:.1%}")

    print("3. mapping with the all-chains minimizer mapper (minimap2 -P role) ...")
    mapper = Mapper(genome)
    candidates_by_read = {read.name: mapper.map_read(read) for read in reads}
    total_candidates = sum(len(c) for c in candidates_by_read.values())
    print(f"   {total_candidates} candidate locations "
          f"({total_candidates / len(reads):.1f} per read)")

    print("4. aligning every candidate pair ...")
    improved = GenASMAligner(GenASMConfig(), name="genasm-improved")
    baseline = GenASMAligner(GenASMConfig.baseline(), name="genasm-baseline")
    edlib = EdlibLikeAligner("prefix")

    counters = {"genasm-improved": AccessCounter(), "genasm-baseline": AccessCounter()}
    timings = defaultdict(float)
    rows = []
    for read in reads:
        candidates = candidates_by_read[read.name]
        if not candidates:
            rows.append((read.name, read.length, read.true_edits, "-", "-", 0))
            continue
        best = candidates[0]
        pattern, text = mapper.candidate_region_sequence(best, read.sequence)

        start = time.perf_counter()
        a_imp = improved.align(pattern, text, counter=counters["genasm-improved"])
        timings["genasm-improved"] += time.perf_counter() - start

        start = time.perf_counter()
        baseline.align(pattern, text, counter=counters["genasm-baseline"])
        timings["genasm-baseline"] += time.perf_counter() - start

        start = time.perf_counter()
        a_ed = edlib.align(pattern, text)
        timings["edlib-like"] += time.perf_counter() - start

        rows.append(
            (read.name, read.length, read.true_edits, a_imp.edit_distance,
             a_ed.edit_distance, len(candidates))
        )

    print(f"   {'read':<12}{'len':>6}{'true':>6}{'genasm':>8}{'edlib':>7}{'cands':>7}")
    for name, length, true_edits, genasm_ed, edlib_ed, n_cands in rows:
        print(f"   {name:<12}{length:>6}{true_edits:>6}{genasm_ed:>8}{edlib_ed:>7}{n_cands:>7}")

    print("\n5. aggregate statistics")
    for name, seconds in timings.items():
        print(f"   {name:<18}{seconds * 1e3:8.1f} ms total")
    imp, base = counters["genasm-improved"], counters["genasm-baseline"]
    print(f"   DP-table bytes: baseline {base.total_bytes:,} vs improved {imp.total_bytes:,} "
          f"({base.total_bytes / max(1, imp.total_bytes):.1f}x reduction)")
    print(f"   DP-table accesses: baseline {base.total_accesses:,} vs improved "
          f"{imp.total_accesses:,} ({base.total_accesses / max(1, imp.total_accesses):.1f}x reduction)")


if __name__ == "__main__":
    main()

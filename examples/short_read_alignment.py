#!/usr/bin/env python3
"""Short-read (Illumina-like) alignment with a single-window configuration.

The paper notes that its CPU and GPU implementations handle *both* short
and long reads; for short reads one GenASM window covers the whole read.
This example simulates Illumina-like reads, maps them, aligns each
candidate with the short-read configuration and verifies the distances
against the Edlib-like optimal aligner — then re-aligns the whole batch
with the vectorized engine, whose multi-word lanes (3 ``uint64`` words
for a 180 bp window) make the short-read configuration lockstep too.

Run with::

    python examples/short_read_alignment.py
"""

from repro import BatchAlignmentEngine, GenASMAligner, GenASMConfig
from repro.baselines import EdlibLikeAligner
from repro.genomics import IlluminaSimulator, SyntheticGenome
from repro.mapping import Mapper


def main() -> None:
    genome = SyntheticGenome.random({"chr1": 80_000}, seed=5, repeat_fraction=0.02)
    reads = IlluminaSimulator(read_length=150, seed=6).simulate(genome, 25)
    mapper = Mapper(genome, min_chain_score=25, min_chain_anchors=2)

    # Window sized with a little slack: the error channel can make a read a
    # few bases longer than the nominal 150 bp.
    config = GenASMConfig.short_read(read_length=180)
    genasm = GenASMAligner(config, name="genasm-short")
    edlib = EdlibLikeAligner("prefix")

    print(f"{'read':<14}{'strand':>7}{'edits':>7}{'optimal':>9}{'identity':>10}")
    mapped = 0
    exact = 0
    pairs = []
    scalar_alignments = []
    for read in reads:
        candidates = mapper.map_read(read)
        if not candidates:
            print(f"{read.name:<14}{'unmapped':>7}")
            continue
        mapped += 1
        best = candidates[0]
        pattern, text = mapper.candidate_region_sequence(best, read.sequence)
        alignment = genasm.align(pattern, text)
        pairs.append((pattern, text))
        scalar_alignments.append(alignment)
        optimum = edlib.align(pattern, text).edit_distance
        exact += int(alignment.edit_distance == optimum)
        print(
            f"{read.name:<14}{best.strand:>7}{alignment.edit_distance:>7}"
            f"{optimum:>9}{alignment.identity:>10.1%}"
        )
        # A single window suffices for short reads.
        assert alignment.metadata["windows"] == 1

    print(f"\nmapped {mapped}/{len(reads)} reads; "
          f"GenASM matched the optimal distance on {exact}/{mapped} of them")

    # The same batch through the vectorized engine: a 180 bp window takes
    # three uint64 words per lane, with byte-identical results.
    engine = BatchAlignmentEngine(config)
    batched = engine.align_pairs(pairs)
    assert all(
        str(got.cigar) == str(want.cigar)
        and got.edit_distance == want.edit_distance
        for got, want in zip(batched, scalar_alignments)
    )
    assert all(a.metadata["words_per_lane"] == 3 for a in batched)
    print(
        f"vectorized batch path: {len(batched)} candidates in lockstep, "
        f"{engine.words_per_lane} words/lane, identical to the scalar loop"
    )


if __name__ == "__main__":
    main()

"""Construction of the paper's evaluation workload (scaled).

The paper's pipeline (§II): simulate 500 × 10 kb PacBio reads from the
human genome with PBSIM2, map them with minimap2 ``-P`` to obtain 138,929
candidate locations, and align every candidate (read, reference) pair with
every aligner.  :func:`build_paper_dataset` reproduces that pipeline with
the synthetic substrates at a configurable scale: pure-Python aligners
cannot chew through 1.4 billion aligned bases in a benchmark run, so the
default scale uses fewer/shorter reads while keeping every pipeline stage
(repeat-bearing genome → error-modelled long reads → all-chains mapping →
candidate regions) intact.  Speedup ratios are per-pair and therefore
insensitive to this scaling; the workload object records the scale so
reports can state it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.genomics.errors import ErrorModel
from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import PacBioSimulator, SimulatedRead
from repro.mapping.mapper import CandidateMapping, Mapper

__all__ = ["AlignmentWorkload", "build_paper_dataset"]

#: Number of candidate pairs in the paper's full-scale dataset.
PAPER_CANDIDATE_PAIRS = 138_929
#: Number and length of reads in the paper's full-scale dataset.
PAPER_READ_COUNT = 500
PAPER_READ_LENGTH = 10_000


@dataclass
class AlignmentWorkload:
    """A set of candidate (pattern, text) pairs plus their provenance."""

    genome: SyntheticGenome
    reads: List[SimulatedRead]
    candidates: List[CandidateMapping]
    pairs: List[Tuple[str, str]]
    read_by_name: Dict[str, SimulatedRead] = field(default_factory=dict)

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    @property
    def total_pattern_bases(self) -> int:
        return sum(len(p) for p, _ in self.pairs)

    @property
    def scale_to_paper(self) -> float:
        """Multiplier from this workload to the paper's 138,929-pair dataset.

        Scales by aligned pattern bases (the per-pair cost driver), so the
        execution-model experiments can extrapolate honestly.
        """
        full = PAPER_CANDIDATE_PAIRS * PAPER_READ_LENGTH
        here = max(1, self.total_pattern_bases)
        return full / here

    def summary(self) -> Dict[str, float]:
        return {
            "reads": len(self.reads),
            "candidates": len(self.candidates),
            "pairs": self.pair_count,
            "pattern_bases": self.total_pattern_bases,
            "scale_to_paper": self.scale_to_paper,
        }


def build_paper_dataset(
    *,
    read_count: int = 24,
    read_length: int = 1_500,
    genome_length: int = 150_000,
    seed: int = 0,
    error_model: Optional[ErrorModel] = None,
    repeat_fraction: float = 0.08,
    max_pairs: Optional[int] = None,
) -> AlignmentWorkload:
    """Run the full §II pipeline at the requested scale.

    Parameters mirror the paper's setup scaled down: PacBio-error long
    reads simulated from a repeat-bearing genome, mapped with the
    all-chains minimizer mapper, each chain yielding one candidate pair.
    """
    genome = SyntheticGenome.random(
        {"chr1": genome_length, "chr2": max(20_000, genome_length // 2)},
        seed=seed,
        repeat_fraction=repeat_fraction,
        repeat_length=max(500, read_length),
    )
    simulator = PacBioSimulator(
        mean_length=read_length,
        std_length=max(50, read_length // 5),
        error_model=error_model or ErrorModel.pacbio_clr(),
        seed=seed + 1,
    )
    reads = simulator.simulate(genome, read_count)
    mapper = Mapper(genome)

    candidates: List[CandidateMapping] = []
    pairs: List[Tuple[str, str]] = []
    read_by_name = {read.name: read for read in reads}
    for read in reads:
        for candidate in mapper.map_read(read):
            pattern, text = mapper.candidate_region_sequence(candidate, read.sequence)
            if not pattern or not text:
                continue
            candidates.append(candidate)
            pairs.append((pattern, text))
            if max_pairs is not None and len(pairs) >= max_pairs:
                return AlignmentWorkload(genome, reads, candidates, pairs, read_by_name)
    return AlignmentWorkload(genome, reads, candidates, pairs, read_by_name)

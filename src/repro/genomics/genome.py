"""Synthetic reference genomes.

The paper maps simulated reads against the human genome.  Network access
and the 3-Gbp reference are unavailable here, so :class:`SyntheticGenome`
generates a reference with the properties that matter to the pipeline under
test:

* multiple named chromosomes of configurable length;
* *repeat structure* — segments copied to other locations with a small
  amount of divergence, so the minimizer mapper produces multiple candidate
  locations per read (the paper's ``-P`` all-chains setting exists exactly
  because of such repeats);
* deterministic generation from a seed, so experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.genomics.errors import ErrorModel, mutate_sequence
from repro.genomics.sequences import random_dna, reverse_complement

__all__ = ["SyntheticGenome", "RepeatAnnotation"]


@dataclass(frozen=True)
class RepeatAnnotation:
    """Record of one synthetic repeat copy (for debugging / analysis)."""

    source_chrom: str
    source_start: int
    target_chrom: str
    target_start: int
    length: int
    divergence: float
    reverse: bool


@dataclass
class SyntheticGenome:
    """A set of named chromosomes with optional repeat structure."""

    chromosomes: Dict[str, str] = field(default_factory=dict)
    repeats: List[RepeatAnnotation] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @classmethod
    def random(
        cls,
        chromosome_lengths: Dict[str, int] | None = None,
        *,
        seed: int = 0,
        repeat_fraction: float = 0.1,
        repeat_length: int = 2_000,
        repeat_divergence: float = 0.02,
    ) -> "SyntheticGenome":
        """Generate a random genome.

        ``repeat_fraction`` of each chromosome is overwritten with copies of
        segments taken from elsewhere in the genome, each copy diverged by
        ``repeat_divergence`` substitutions/indels, half of them reverse
        complemented.
        """
        if chromosome_lengths is None:
            chromosome_lengths = {"chr1": 200_000, "chr2": 100_000}
        if not (0.0 <= repeat_fraction < 1.0):
            raise ValueError("repeat_fraction must be in [0, 1)")
        rng = np.random.default_rng(seed)
        chroms: Dict[str, str] = {
            name: random_dna(length, rng) for name, length in chromosome_lengths.items()
        }
        genome = cls(chromosomes=chroms)
        if repeat_fraction > 0 and repeat_length > 0:
            genome._plant_repeats(rng, repeat_fraction, repeat_length, repeat_divergence)
        return genome

    def _plant_repeats(
        self,
        rng: np.random.Generator,
        fraction: float,
        length: int,
        divergence: float,
    ) -> None:
        """Overwrite part of each chromosome with diverged copies of other parts."""
        model = ErrorModel(
            substitution_rate=divergence / 2,
            insertion_rate=divergence / 4,
            deletion_rate=divergence / 4,
        )
        names = list(self.chromosomes)
        for target_name in names:
            target = list(self.chromosomes[target_name])
            n_copies = int(len(target) * fraction / max(1, length))
            for _ in range(n_copies):
                source_name = names[rng.integers(0, len(names))]
                source = self.chromosomes[source_name]
                if len(source) <= length or len(target) <= length:
                    continue
                src_start = int(rng.integers(0, len(source) - length))
                dst_start = int(rng.integers(0, len(target) - length))
                segment = source[src_start : src_start + length]
                reverse = bool(rng.random() < 0.5)
                if reverse:
                    segment = reverse_complement(segment)
                mutated, _ = mutate_sequence(segment, model, rng)
                mutated = mutated[:length].ljust(length, "A")
                target[dst_start : dst_start + length] = list(mutated)
                self.repeats.append(
                    RepeatAnnotation(
                        source_chrom=source_name,
                        source_start=src_start,
                        target_chrom=target_name,
                        target_start=dst_start,
                        length=length,
                        divergence=divergence,
                        reverse=reverse,
                    )
                )
            self.chromosomes[target_name] = "".join(target)

    # ------------------------------------------------------------------ #
    @property
    def total_length(self) -> int:
        """Total number of bases across all chromosomes."""
        return sum(len(s) for s in self.chromosomes.values())

    def names(self) -> List[str]:
        """Chromosome names in insertion order."""
        return list(self.chromosomes)

    def sequence(self, chrom: str) -> str:
        """Full sequence of one chromosome."""
        return self.chromosomes[chrom]

    def chromosome_length(self, chrom: str) -> int:
        """Length of one chromosome in bases."""
        return len(self.chromosomes[chrom])

    def fetch(self, chrom: str, start: int, end: int) -> str:
        """Extract ``[start, end)`` of a chromosome (clamped to its bounds)."""
        seq = self.chromosomes[chrom]
        start = max(0, start)
        end = min(len(seq), end)
        if start >= end:
            return ""
        return seq[start:end]

    def random_location(
        self, length: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[str, int]:
        """Uniformly random (chromosome, start) able to hold ``length`` bases."""
        rng = rng if rng is not None else np.random.default_rng()
        eligible = [
            (name, len(seq))
            for name, seq in self.chromosomes.items()
            if len(seq) >= length
        ]
        if not eligible:
            raise ValueError(f"no chromosome is long enough for length {length}")
        weights = np.array([l - length + 1 for _, l in eligible], dtype=np.float64)
        weights /= weights.sum()
        idx = int(rng.choice(len(eligible), p=weights))
        name, chrom_len = eligible[idx]
        start = int(rng.integers(0, chrom_len - length + 1))
        return name, start

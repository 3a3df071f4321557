"""Minimizer hash index over a reference genome."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.genomics.genome import SyntheticGenome
from repro.mapping.minimizers import extract_minimizers

__all__ = ["IndexHit", "MinimizerIndex"]


@dataclass(frozen=True)
class IndexHit:
    """One reference occurrence of a query minimizer."""

    chrom: str
    position: int
    strand: int


class MinimizerIndex:
    """Hash table from minimizer hash to reference occurrences.

    Highly repetitive minimizers (those occurring more than
    ``max_occurrences`` times) are dropped at build time, mirroring
    minimap2's ``-f`` frequency filter; without it, repeats blow up the
    anchor lists without adding mapping information.
    """

    def __init__(self, k: int = 15, w: int = 10, *, max_occurrences: int = 64) -> None:
        if max_occurrences <= 0:
            raise ValueError("max_occurrences must be positive")
        self.k = k
        self.w = w
        self.max_occurrences = max_occurrences
        self._table: Dict[int, List[IndexHit]] = {}
        self._built = False
        self.indexed_minimizers = 0
        self.dropped_minimizers = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        genome: SyntheticGenome,
        k: int = 15,
        w: int = 10,
        *,
        max_occurrences: int = 64,
    ) -> "MinimizerIndex":
        """Index every chromosome of ``genome``."""
        index = cls(k, w, max_occurrences=max_occurrences)
        index.add_genome(genome)
        index.finalise()
        return index

    def add_genome(self, genome: SyntheticGenome) -> None:
        """Add all chromosomes of a genome to the (unfinalised) index."""
        for name, sequence in genome.chromosomes.items():
            self.add_sequence(name, sequence)

    def add_sequence(self, name: str, sequence: str) -> None:
        """Add one named sequence to the (unfinalised) index."""
        if self._built:
            raise RuntimeError("index already finalised")
        table = self._table
        for minimizer in extract_minimizers(sequence, self.k, self.w):
            table.setdefault(minimizer.hash, []).append(
                IndexHit(chrom=name, position=minimizer.position, strand=minimizer.strand)
            )

    def finalise(self) -> None:
        """Apply the frequency filter and freeze the index."""
        filtered: Dict[int, List[IndexHit]] = {}
        kept = 0
        dropped = 0
        for key, hits in self._table.items():
            if len(hits) > self.max_occurrences:
                dropped += len(hits)
                continue
            filtered[key] = hits
            kept += len(hits)
        self._table = filtered
        self.indexed_minimizers = kept
        self.dropped_minimizers = dropped
        self._built = True

    # ------------------------------------------------------------------ #
    def lookup(self, minimizer_hash: int) -> List[IndexHit]:
        """All reference occurrences of a minimizer hash (possibly empty)."""
        return self._table.get(minimizer_hash, [])

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, minimizer_hash: int) -> bool:
        return minimizer_hash in self._table

"""Minimizer hash index over a reference genome, as one sorted-hash table.

The index is a CSR table over NumPy arrays: the sorted unique minimizer
hashes, per-hash hit ranges (``starts``), and one row per reference hit
(``hit_chrom``, ``hit_pos``, ``hit_strand``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.genomics.genome import SyntheticGenome
from repro.mapping.minimizers import extract_minimizers

__all__ = ["MinimizerIndex"]


class MinimizerIndex:
    """Sorted-hash table from minimizer hash to reference occurrences.

    Each hash's hits are ``hit_*[starts[s]:starts[s + 1]]`` for its slot
    ``s`` in ``hashes``, in chromosome order and then ascending position.
    ``hit_chrom`` indexes ``chrom_names``.

    Highly repetitive minimizers (those occurring more than
    ``max_occurrences`` times) are dropped at build time, mirroring
    minimap2's ``-f`` frequency filter; without it, repeats blow up the
    anchor lists without adding mapping information.
    """

    def __init__(
        self,
        k: int,
        w: int,
        max_occurrences: int,
        arrays: Dict[str, np.ndarray],
        chrom_names: Sequence[str],
        *,
        indexed_minimizers: int,
        dropped_minimizers: int,
    ) -> None:
        self.k = k
        self.w = w
        self.max_occurrences = max_occurrences
        self.hashes = arrays["hashes"]
        self.starts = arrays["starts"]
        self.hit_chrom = arrays["hit_chrom"]
        self.hit_pos = arrays["hit_pos"]
        self.hit_strand = arrays["hit_strand"]
        self.chrom_names: List[str] = list(chrom_names)
        self.indexed_minimizers = indexed_minimizers
        self.dropped_minimizers = dropped_minimizers

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
        if max_occurrences <= 0:
            raise ValueError("max_occurrences must be positive")
        names = list(genome.chromosomes)
        per_chrom = [extract_minimizers(genome.chromosomes[name], k, w) for name in names]
        hashes = np.concatenate([m.hashes for m in per_chrom] + [np.empty(0, np.uint64)])
        positions = np.concatenate([m.positions for m in per_chrom] + [np.empty(0, np.int64)])
        strands = np.concatenate([m.strands for m in per_chrom] + [np.empty(0, np.int8)])
        chroms = np.repeat(
            np.arange(len(names), dtype=np.int32), [len(m.hashes) for m in per_chrom]
        )
        # A stable sort by hash keeps each hash's hits in chromosome order
        # and then ascending position, the order they were extracted in.
        order = np.argsort(hashes, kind="stable")
        hashes = hashes[order]
        unique, counts = np.unique(hashes, return_counts=True)
        kept = counts <= max_occurrences
        rows = order[np.repeat(kept, counts)]
        starts = np.zeros(int(kept.sum()) + 1, dtype=np.int64)
        np.cumsum(counts[kept], out=starts[1:])
        arrays = {
            "hashes": unique[kept],
            "starts": starts,
            "hit_chrom": chroms[rows],
            "hit_pos": positions[rows],
            "hit_strand": strands[rows],
        }
        return cls(
            k,
            w,
            max_occurrences,
            arrays,
            names,
            indexed_minimizers=int(counts[kept].sum()),
            dropped_minimizers=int(counts[~kept].sum()),
        )

    # ------------------------------------------------------------------ #
    def lookup(self, hashes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every reference hit of every hash in ``hashes``, in one search.

        Returns ``(query, rows)``: hit ``t`` is row ``rows[t]`` of the
        ``hit_*`` arrays and belongs to ``hashes[query[t]]``.  Hits come in
        query order and, within a hash, in the index's hit order.
        """
        hashes = np.asarray(hashes, dtype=np.uint64)
        if self.hashes.shape[0] == 0 or hashes.shape[0] == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        slots = np.minimum(np.searchsorted(self.hashes, hashes), self.hashes.shape[0] - 1)
        lo = self.starts[slots]
        counts = np.where(self.hashes[slots] == hashes, self.starts[slots + 1] - lo, 0)
        query = np.repeat(np.arange(hashes.shape[0]), counts)
        ends = np.cumsum(counts)
        rows = np.arange(int(ends[-1])) - np.repeat(ends - counts - lo, counts)
        return query, rows

    def __len__(self) -> int:
        return int(self.hashes.shape[0])

    def __contains__(self, minimizer_hash: int) -> bool:
        slot = int(np.searchsorted(self.hashes, np.uint64(minimizer_hash)))
        return slot < self.hashes.shape[0] and int(self.hashes[slot]) == minimizer_hash

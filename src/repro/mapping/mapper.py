"""End-to-end minimizer mapper producing candidate (read, reference) pairs.

This plays minimap2's role in the paper's pipeline: for every read it
reports *all* chains above a score threshold (the paper runs minimap2 with
``-P`` precisely to obtain every candidate location, 138,929 of them for
500 reads), and each candidate carries the reference span that the
downstream aligners (GenASM, Edlib, KSW2) then align against the read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import SimulatedRead
from repro.genomics.sequences import reverse_complement
from repro.mapping.chaining import Chain, chain_anchors
from repro.mapping.index import MinimizerIndex
from repro.mapping.minimizers import extract_minimizers

__all__ = ["CandidateMapping", "Mapper", "mapping_confidence"]


def mapping_confidence(
    candidates: List[CandidateMapping],
) -> Tuple[int, float, float]:
    """Elect the primary among one read's candidates (the MAPQ inputs).

    Returns ``(primary_index, primary_score, best_secondary_score)``.
    The primary is the candidate the mapper flagged ``is_primary`` (ties
    broken by chain score) or, when no flag is set — e.g. a hand-built
    group — simply the best-scoring candidate.  ``best_secondary_score``
    is the strongest *other* chain's score, ``0.0`` when the mapping is
    unique; the gap between the two is what
    :func:`repro.io.compute_mapq` turns into a mapping quality.
    """
    if not candidates:
        raise ValueError("mapping_confidence needs at least one candidate")
    primary_index = max(
        range(len(candidates)),
        key=lambda i: (candidates[i].is_primary, candidates[i].chain_score),
    )
    primary_score = float(candidates[primary_index].chain_score)
    secondary_score = max(
        (
            float(c.chain_score)
            for i, c in enumerate(candidates)
            if i != primary_index
        ),
        default=0.0,
    )
    return primary_index, primary_score, secondary_score


@dataclass
class CandidateMapping:
    """One candidate location of a read on the reference."""

    read_name: str
    chrom: str
    ref_start: int
    ref_end: int
    strand: str
    chain_score: float
    anchors: int
    is_primary: bool

    @property
    def span(self) -> int:
        return self.ref_end - self.ref_start


class Mapper:
    """Minimizer seed-and-chain mapper.

    Parameters
    ----------
    genome:
        Reference to map against (indexed at construction time).
    k, w:
        Minimizer parameters (minimap2's long-read defaults are 15/10).
    max_occurrences:
        Frequency filter of the index built here (minimizers with more
        reference hits are dropped).
    min_chain_score, min_chain_anchors:
        A chain is reported only when it scores at least
        ``min_chain_score`` and holds at least ``min_chain_anchors``
        anchors.  Every chain above them is reported (the ``-P``
        behaviour the paper uses), not only the primary.
    region_padding:
        Extra reference bases added on each side of a chain's span when the
        candidate region is extracted, so that the aligner has slack for
        indels at the ends.
    """

    def __init__(
        self,
        genome: SyntheticGenome,
        *,
        k: int = 15,
        w: int = 10,
        max_occurrences: int = 64,
        min_chain_score: float = 40.0,
        min_chain_anchors: int = 3,
        region_padding: int = 64,
    ) -> None:
        self.genome = genome
        self.k = k
        self.w = w
        self.max_occurrences = max_occurrences
        self.min_chain_score = min_chain_score
        self.min_chain_anchors = min_chain_anchors
        self.region_padding = region_padding
        self.index = MinimizerIndex.build(genome, k, w, max_occurrences=max_occurrences)

    # ------------------------------------------------------------------ #
    def map_sequence(self, name: str, sequence: str) -> List[CandidateMapping]:
        """Map one read sequence; returns candidates sorted by chain score."""
        k = self.k
        minimizers = extract_minimizers(sequence, k, self.w)
        index = self.index
        query, rows = index.lookup(minimizers.hashes)
        if rows.shape[0] == 0:
            return []
        # One anchor per hit.  Reverse-strand anchors are chained in the
        # coordinates of the reverse-complemented read so they stay colinear.
        read_pos = minimizers.positions[query]
        reverse = minimizers.strands[query] != index.hit_strand[rows]
        query_pos = np.where(reverse, len(sequence) - k - read_pos, read_pos)
        ref_pos = index.hit_pos[rows]
        # Group by (chromosome, relative strand): a stable sort keeps each
        # group's anchors in hit order, and groups run in order of first
        # appearance (a group's first sorted anchor is its earliest).
        keys = index.hit_chrom[rows].astype(np.int64) * 2 + reverse
        by_group = np.argsort(keys, kind="stable")
        sorted_keys = keys[by_group]
        starts = np.flatnonzero(np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]]))
        bounds = starts.tolist() + [len(keys)]
        group_keys = sorted_keys[starts].tolist()

        candidates: List[CandidateMapping] = []
        for g in np.argsort(by_group[starts]).tolist():
            # A group smaller than the anchor minimum cannot form a chain.
            if bounds[g + 1] - bounds[g] < self.min_chain_anchors:
                continue
            members = by_group[bounds[g] : bounds[g + 1]]
            chains = chain_anchors(
                query_pos[members],
                ref_pos[members],
                length=k,
                min_chain_score=self.min_chain_score,
                min_chain_anchors=self.min_chain_anchors,
            )
            if not chains:
                continue
            chrom = index.chrom_names[group_keys[g] // 2]
            strand = "-" if group_keys[g] % 2 else "+"
            for chain in chains:
                region_start, region_end = self._chain_region(chain, len(sequence), chrom)
                candidates.append(
                    CandidateMapping(
                        read_name=name,
                        chrom=chrom,
                        ref_start=region_start,
                        ref_end=region_end,
                        strand=strand,
                        chain_score=chain.score,
                        anchors=len(chain),
                        is_primary=False,
                    )
                )
        candidates.sort(key=lambda c: -c.chain_score)
        if candidates:
            candidates[0].is_primary = True
        return candidates

    def map_read(self, read: SimulatedRead) -> List[CandidateMapping]:
        """Map a :class:`SimulatedRead`."""
        return self.map_sequence(read.name, read.sequence)

    def map_reads(self, reads: List[SimulatedRead]) -> List[CandidateMapping]:
        """Map a batch of reads; returns the concatenated candidate list."""
        out: List[CandidateMapping] = []
        for read in reads:
            out.extend(self.map_read(read))
        return out

    # ------------------------------------------------------------------ #
    def _chain_region(
        self, chain: Chain, read_length: int, chrom: str
    ) -> Tuple[int, int]:
        """Reference span implied by a chain.

        The left edge is the chain's projection of the read start (no
        padding): downstream aligners use start-anchored semantics, so the
        expected alignment must begin at (or within a few indels of) the
        region start.  The right edge gets ``region_padding`` extra bases so
        insertions near the read end never run out of reference.
        """
        chrom_len = self.genome.chromosome_length(chrom)
        start = chain.ref_start - chain.query_start
        end = chain.ref_end + (read_length - chain.query_end) + self.region_padding
        return max(0, start), min(chrom_len, end)

    def candidate_region_sequence(
        self, candidate: CandidateMapping, read_sequence: str
    ) -> Tuple[str, str]:
        """Return the (pattern, text) pair an aligner should be given.

        The pattern is the read in the orientation of the candidate strand;
        the text is the padded reference region.
        """
        region = self.genome.fetch(candidate.chrom, candidate.ref_start, candidate.ref_end)
        pattern = (
            read_sequence if candidate.strand == "+" else reverse_complement(read_sequence)
        )
        return pattern, region

"""End-to-end minimizer mapper producing candidate (read, reference) pairs.

This plays minimap2's role in the paper's pipeline: for every read it
reports *all* chains above a score threshold (the paper runs minimap2 with
``-P`` precisely to obtain every candidate location, 138,929 of them for
500 reads), and each candidate carries the reference span that the
downstream aligners (GenASM, Edlib, KSW2) then align against the read.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import SimulatedRead
from repro.genomics.sequences import reverse_complement
from repro.mapping.chaining import Anchor, Chain, chain_anchors
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
    region_padding:
        Extra reference bases added on each side of a chain's span when the
        candidate region is extracted, so that the aligner has slack for
        indels at the ends.
    all_chains:
        Report every chain above threshold (the ``-P`` behaviour the paper
        uses) rather than only the primary chain.
    index:
        Pre-built index to map against instead of building one here —
        e.g. a :class:`repro.parallel.shm.SharedMinimizerIndex` attached
        to segments hosted by another process.  Must match ``k``/``w``.
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
        all_chains: bool = True,
        index=None,
    ) -> None:
        self.genome = genome
        self.k = k
        self.w = w
        self.max_occurrences = max_occurrences
        self.min_chain_score = min_chain_score
        self.min_chain_anchors = min_chain_anchors
        self.region_padding = region_padding
        self.all_chains = all_chains
        if index is None:
            index = MinimizerIndex.build(genome, k, w, max_occurrences=max_occurrences)
        self.index = index

    # ------------------------------------------------------------------ #
    def map_sequence(self, name: str, sequence: str) -> List[CandidateMapping]:
        """Map one read sequence; returns candidates sorted by chain score."""
        read_minimizers = extract_minimizers(sequence, self.k, self.w)
        if not read_minimizers:
            return []

        # Group anchors by (chromosome, relative strand).
        grouped: Dict[Tuple[str, int], List[Anchor]] = defaultdict(list)
        for minimizer in read_minimizers:
            for hit in self.index.lookup(minimizer.hash):
                relative_strand = 1 if minimizer.strand == hit.strand else -1
                if relative_strand == 1:
                    query_pos = minimizer.position
                else:
                    # For reverse-strand candidates, chain in the coordinates
                    # of the reverse-complemented read so anchors stay colinear.
                    query_pos = len(sequence) - self.k - minimizer.position
                grouped[(hit.chrom, relative_strand)].append(
                    Anchor(
                        query_pos=query_pos,
                        ref_pos=hit.position,
                        strand=relative_strand,
                        length=self.k,
                    )
                )

        candidates: List[CandidateMapping] = []
        for (chrom, strand), anchors in grouped.items():
            chains = chain_anchors(
                anchors,
                min_chain_score=self.min_chain_score,
                min_chain_anchors=self.min_chain_anchors,
            )
            if not chains:
                continue
            if not self.all_chains:
                chains = chains[:1]
            for rank, chain in enumerate(chains):
                region_start, region_end = self._chain_region(chain, len(sequence), chrom)
                candidates.append(
                    CandidateMapping(
                        read_name=name,
                        chrom=chrom,
                        ref_start=region_start,
                        ref_end=region_end,
                        strand="+" if strand == 1 else "-",
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

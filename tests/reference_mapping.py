"""Loop references for the array-native mapper.

These are the per-object implementations the mapping package used before
its index, lookup and chaining became NumPy arrays: a dict index of hit
records, a per-minimizer lookup loop and a chaining DP that probes each
predecessor with scalar arithmetic.  Tests hold the array code to them
field for field, with chain scores compared with ``==``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.mapping.mapper import CandidateMapping


def _mix(values: np.ndarray) -> np.ndarray:
    mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    v = values.astype(np.uint64)
    v = (v * np.uint64(0x9E3779B97F4A7C15)) & mask
    v ^= v >> np.uint64(31)
    v = (v * np.uint64(0xBF58476D1CE4E5B9)) & mask
    v ^= v >> np.uint64(27)
    v = (v * np.uint64(0x94D049BB133111EB)) & mask
    v ^= v >> np.uint64(31)
    return v


def extract_minimizers(sequence: str, k: int = 15, w: int = 10) -> List[Tuple[int, int, int]]:
    """Rolling k-mer packing, one shift per base, as ``(hash, position, strand)``.

    Bases are encoded by comparison (``C``/``G``/``T`` → 1/2/3, anything
    else 0), as ``encode_sequence`` did before its lookup table.
    """
    n_kmers = len(sequence) - k + 1
    if n_kmers <= 0:
        return []
    raw = np.frombuffer(sequence.encode("latin-1"), dtype=np.uint8)
    codes = np.zeros(raw.shape, dtype=np.uint64)
    codes[raw == ord("C")] = 1
    codes[raw == ord("G")] = 2
    codes[raw == ord("T")] = 3
    forward = np.zeros(n_kmers, dtype=np.uint64)
    reverse = np.zeros(n_kmers, dtype=np.uint64)
    for offset in range(k):
        forward = (forward << np.uint64(2)) | codes[offset : offset + n_kmers]
        comp = np.uint64(3) - codes[k - 1 - offset : k - 1 - offset + n_kmers]
        reverse = (reverse << np.uint64(2)) | comp
    fwd_hash = _mix(forward)
    rev_hash = _mix(reverse)
    canonical = np.minimum(fwd_hash, rev_hash)
    strands = np.where(fwd_hash <= rev_hash, 1, -1)
    window = min(w, n_kmers)
    views = np.lib.stride_tricks.sliding_window_view(canonical, window)
    positions = np.unique(views.argmin(axis=1) + np.arange(views.shape[0]))
    return [(int(canonical[p]), int(p), int(strands[p])) for p in positions]


@dataclass(frozen=True)
class Anchor:
    """A shared minimizer occurrence between the read and the reference."""

    query_pos: int
    ref_pos: int
    strand: int
    length: int = 15


@dataclass
class Chain:
    anchors: List[Anchor] = field(default_factory=list)
    score: float = 0.0
    strand: int = 1

    @property
    def query_start(self) -> int:
        return min(a.query_pos for a in self.anchors)

    @property
    def query_end(self) -> int:
        return max(a.query_pos + a.length for a in self.anchors)

    @property
    def ref_start(self) -> int:
        return min(a.ref_pos for a in self.anchors)

    @property
    def ref_end(self) -> int:
        return max(a.ref_pos + a.length for a in self.anchors)


def chain_anchors(
    anchors: Sequence[Anchor],
    *,
    max_gap: int = 2_000,
    max_diagonal_drift: int = 500,
    max_predecessors: int = 50,
    min_chain_score: float = 40.0,
    min_chain_anchors: int = 3,
) -> List[Chain]:
    """The scalar chaining DP: one probe per (anchor, predecessor)."""
    if not anchors:
        return []
    order = sorted(range(len(anchors)), key=lambda i: (anchors[i].ref_pos, anchors[i].query_pos))
    sorted_anchors = [anchors[i] for i in order]
    n = len(sorted_anchors)

    score = np.zeros(n, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    for i, anchor in enumerate(sorted_anchors):
        score[i] = anchor.length
        start = max(0, i - max_predecessors)
        for j in range(start, i):
            prev = sorted_anchors[j]
            dq = anchor.query_pos - prev.query_pos
            dr = anchor.ref_pos - prev.ref_pos
            if dq <= 0 or dr <= 0:
                continue
            if dq > max_gap or dr > max_gap:
                continue
            drift = abs(dq - dr)
            if drift > max_diagonal_drift:
                continue
            gain = min(dq, dr, anchor.length) - 0.01 * drift - 0.05 * np.log1p(max(dq, dr))
            candidate = score[j] + gain
            if candidate > score[i]:
                score[i] = candidate
                parent[i] = j

    used = np.zeros(n, dtype=bool)
    chains: List[Chain] = []
    for i in np.argsort(-score):
        if used[i] or score[i] < min_chain_score:
            continue
        members: List[int] = []
        node = int(i)
        while node != -1 and not used[node]:
            members.append(node)
            node = int(parent[node])
        if len(members) < min_chain_anchors:
            for node in members:
                used[node] = True
            continue
        members.reverse()
        for node in members:
            used[node] = True
        chain_list = [sorted_anchors[node] for node in members]
        chains.append(Chain(anchors=chain_list, score=float(score[i]), strand=chain_list[0].strand))
    chains.sort(key=lambda c: -c.score)
    return chains


@dataclass(frozen=True)
class IndexHit:
    chrom: str
    position: int
    strand: int


def build_dict_index(genome, k: int, w: int, max_occurrences: int) -> Dict[int, List[IndexHit]]:
    """The dict index: hash → hits in insertion order, frequency-filtered."""
    table: Dict[int, List[IndexHit]] = {}
    for name, sequence in genome.chromosomes.items():
        for h, position, strand in extract_minimizers(sequence, k, w):
            table.setdefault(h, []).append(IndexHit(name, position, strand))
    return {h: hits for h, hits in table.items() if len(hits) <= max_occurrences}


def map_sequence(
    name: str,
    sequence: str,
    genome,
    table: Dict[int, List[IndexHit]],
    *,
    k: int = 15,
    w: int = 10,
    min_chain_score: float = 40.0,
    min_chain_anchors: int = 3,
    region_padding: int = 64,
) -> List[CandidateMapping]:
    """The per-minimizer lookup loop and per-group chaining of the old mapper."""
    grouped: Dict[Tuple[str, int], List[Anchor]] = defaultdict(list)
    for h, position, strand in extract_minimizers(sequence, k, w):
        for hit in table.get(h, []):
            relative_strand = 1 if strand == hit.strand else -1
            query_pos = position if relative_strand == 1 else len(sequence) - k - position
            grouped[(hit.chrom, relative_strand)].append(
                Anchor(query_pos=query_pos, ref_pos=hit.position, strand=relative_strand, length=k)
            )

    candidates: List[CandidateMapping] = []
    for (chrom, strand), anchors in grouped.items():
        for chain in chain_anchors(
            anchors, min_chain_score=min_chain_score, min_chain_anchors=min_chain_anchors
        ):
            chrom_len = genome.chromosome_length(chrom)
            start = chain.ref_start - chain.query_start
            end = chain.ref_end + (len(sequence) - chain.query_end) + region_padding
            candidates.append(
                CandidateMapping(
                    read_name=name,
                    chrom=chrom,
                    ref_start=max(0, start),
                    ref_end=min(chrom_len, end),
                    strand="+" if strand == 1 else "-",
                    chain_score=chain.score,
                    anchors=len(chain.anchors),
                    is_primary=False,
                )
            )
    candidates.sort(key=lambda c: -c.chain_score)
    if candidates:
        candidates[0].is_primary = True
    return candidates

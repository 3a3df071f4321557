"""Colinear chaining of minimizer anchors (minimap2-style, simplified).

An *anchor* is a (query position, reference position) pair where the read
and the reference share a minimizer.  Chaining finds subsets of anchors
that are colinear (increasing in both coordinates, same strand, bounded
diagonal drift) and scores them; each good chain corresponds to one
candidate mapping location.  The dynamic program follows minimap2's
formulation with a simplified gap cost and a bounded predecessor window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

__all__ = ["Anchor", "Chain", "chain_anchors"]


@dataclass(frozen=True)
class Anchor:
    """A shared minimizer occurrence between the read and the reference."""

    query_pos: int
    ref_pos: int
    strand: int  # +1 if read and reference minimizers are on the same strand
    length: int = 15


@dataclass
class Chain:
    """One colinear chain of anchors (a candidate mapping)."""

    anchors: List[Anchor] = field(default_factory=list)
    score: float = 0.0
    strand: int = 1

    def _require_anchors(self) -> List[Anchor]:
        # A bare ``min() arg is an empty sequence`` from the properties
        # below told callers nothing about *what* was empty.
        if not self.anchors:
            raise ValueError(
                "empty chain has no coordinates (no anchors); "
                "chain_anchors never emits such chains"
            )
        return self.anchors

    @property
    def query_start(self) -> int:
        return min(a.query_pos for a in self._require_anchors())

    @property
    def query_end(self) -> int:
        return max(a.query_pos + a.length for a in self._require_anchors())

    @property
    def ref_start(self) -> int:
        return min(a.ref_pos for a in self._require_anchors())

    @property
    def ref_end(self) -> int:
        return max(a.ref_pos + a.length for a in self._require_anchors())

    def __len__(self) -> int:
        return len(self.anchors)


def chain_anchors(
    anchors: Sequence[Anchor],
    *,
    max_gap: int = 2_000,
    max_diagonal_drift: int = 500,
    max_predecessors: int = 50,
    min_chain_score: float = 40.0,
    min_chain_anchors: int = 3,
) -> List[Chain]:
    """Chain anchors of one (read, chromosome, strand) group.

    Returns chains sorted by decreasing score.  Anchors may appear in at
    most one returned chain (best-first assignment), mirroring how minimap2
    extracts primary and secondary chains.
    """
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
        chain_anchors_list = [sorted_anchors[node] for node in members]
        assert chain_anchors_list, "chain_anchors must never emit an empty chain"
        chains.append(
            Chain(
                anchors=chain_anchors_list,
                score=float(score[i]),
                strand=chain_anchors_list[0].strand,
            )
        )
    chains.sort(key=lambda c: -c.score)
    return chains

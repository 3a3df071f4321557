"""Colinear chaining of minimizer anchors (minimap2-style, simplified).

An *anchor* is a (query position, reference position) pair where the read
and the reference share a minimizer.  Chaining finds subsets of anchors
that are colinear (increasing in both coordinates, same strand, bounded
diagonal drift) and scores them; each good chain corresponds to one
candidate mapping location.  The dynamic program follows minimap2's
formulation with a simplified gap cost and a bounded predecessor window.

Anchors arrive as two position arrays for one (read, chromosome, strand)
group.  One NumPy pass scores every anchor's whole predecessor window;
only the max over each window, which depends on the finished scores of
the anchors before it, is taken one anchor at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["Chain", "chain_anchors"]


@dataclass(frozen=True)
class Chain:
    """One colinear chain of anchors (a candidate mapping).

    ``members`` index the anchor arrays given to :func:`chain_anchors`, in
    chain order; both coordinates strictly increase along them, so the
    first member starts the chain's span and the last one ends it.
    """

    score: float
    members: List[int]
    query_start: int
    query_end: int
    ref_start: int
    ref_end: int

    def __post_init__(self) -> None:
        # Without members the span fields above describe nothing; refuse
        # to build such a chain rather than report made-up coordinates.
        if not self.members:
            raise ValueError(
                "empty chain has no coordinates (no anchors); "
                "chain_anchors never emits such chains"
            )

    def __len__(self) -> int:
        return len(self.members)


def chain_anchors(
    query_pos: np.ndarray,
    ref_pos: np.ndarray,
    *,
    length: int = 15,
    max_gap: int = 2_000,
    max_diagonal_drift: int = 500,
    max_predecessors: int = 50,
    min_chain_score: float = 40.0,
    min_chain_anchors: int = 3,
) -> List[Chain]:
    """Chain the anchors of one (read, chromosome, strand) group.

    ``query_pos``/``ref_pos`` give each anchor's start on the read and the
    reference; every anchor spans ``length`` bases.  Returns chains sorted
    by decreasing score.  Anchors may appear in at most one returned chain
    (best-first assignment), mirroring how minimap2 extracts primary and
    secondary chains.
    """
    n = len(query_pos)
    if n == 0:
        return []
    # Sort by (reference, query) position; ties keep their input order.
    order = np.lexsort((query_pos, ref_pos))
    q = np.asarray(query_pos, dtype=np.int64)[order]
    r = np.asarray(ref_pos, dtype=np.int64)[order]

    # Gains of every anchor's predecessor window in one pass: column c of
    # row i is predecessor j = i - width + c, so columns ascend in j.
    width = max(0, min(max_predecessors, n - 1))
    padded_score = np.full(width + n, float(length))
    parent = np.full(n, -1, dtype=np.int64)
    if width > 0:
        pred = np.arange(n)[:, None] + np.arange(-width, 0)
        exists = pred >= 0
        pred = np.maximum(pred, 0)
        dq = q[:, None] - q[pred]
        dr = r[:, None] - r[pred]
        shorter = np.minimum(dq, dr)
        longer = np.maximum(dq, dr)
        drift = np.abs(dq - dr)
        valid = (
            exists
            & (shorter > 0)
            & (longer <= max_gap)
            & (drift <= max_diagonal_drift)
        )
        gain = np.full((n, width), -np.inf)
        gain[valid] = (
            np.minimum(shorter[valid], length)
            - 0.01 * drift[valid]
            - 0.05 * np.log1p(longer[valid])
        )
        # The max over each window must see the finished scores of the
        # anchors before it, so it runs one anchor at a time.  Anchor i's
        # predecessors' scores are `padded_score[i : i + width]` (the
        # `width` leading slots only meet -inf gains).  argmax takes the
        # first of equal candidates, as a strict `>` scan over ascending
        # predecessors does.
        for i in np.flatnonzero(valid.any(axis=1)).tolist():
            candidates = padded_score[i : i + width] + gain[i]
            best = candidates.argmax()
            value = candidates[best]
            if value > length:
                padded_score[width + i] = value
                parent[i] = i - width + best
    score = padded_score[width:]

    scores = score.tolist()
    parents = parent.tolist()
    used = [False] * n
    chains: List[Chain] = []
    for i in np.argsort(-score).tolist():
        if scores[i] < min_chain_score:
            break  # every later anchor scores no higher
        if used[i]:
            continue
        members: List[int] = []
        node = i
        while node != -1 and not used[node]:
            members.append(node)
            used[node] = True
            node = parents[node]
        if len(members) < min_chain_anchors:
            continue
        members.reverse()
        first, last = members[0], members[-1]
        chains.append(
            Chain(
                score=scores[i],
                members=order[members].tolist(),
                query_start=int(q[first]),
                query_end=int(q[last]) + length,
                ref_start=int(r[first]),
                ref_end=int(r[last]) + length,
            )
        )
    return chains  # argsort order: already by decreasing score

"""Shared bounded in-flight window for the pipeline's worker stages.

:class:`MapStage` and :class:`AlignStage` both expose the same
submit/collect/drain contract: work is queued with its result (computed
inline) or an executor future, and collection pops the *completed prefix*
in submission order, waiting only when more than ``bound`` items are in
flight.  :class:`InflightWindow` is that queue discipline in one place, so
the two stages cannot drift on the ordering or blocking semantics.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

__all__ = ["InflightWindow"]


class InflightWindow:
    """Submission-ordered queue of (key, result-or-future) pairs.

    ``pending`` values are either plain results (inline execution) or
    future-like objects exposing ``done()`` / ``result()``; the window
    treats anything without a ``result`` attribute as already complete.

    Parameters
    ----------
    bound:
        In-flight limit: :meth:`collect` blocks on the oldest entry only
        while more than this many items are queued (the stage's
        backpressure bound).
    """

    def __init__(self, bound: int) -> None:
        if bound < 1:
            raise ValueError("bound must be at least 1")
        self.bound = bound
        self._queue: Deque[Tuple[object, object]] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def append(self, key: object, pending: object) -> None:
        """Queue one submission (its result, or the future computing it)."""
        self._queue.append((key, pending))

    def collect(self, *, block: bool = False) -> List[Tuple[object, object]]:
        """Pop completed (key, result) pairs from the front, in order.

        Non-blocking by default: returns the finished prefix, waiting only
        while the queue exceeds :attr:`bound`.  ``block=True`` waits for
        everything (the end-of-stream drain).
        """
        out: List[Tuple[object, object]] = []
        while self._queue:
            key, pending = self._queue[0]
            done = not hasattr(pending, "result") or pending.done()
            if not (block or done or len(self._queue) > self.bound):
                break
            self._queue.popleft()
            result = pending.result() if hasattr(pending, "result") else pending
            out.append((key, result))
        return out

#!/usr/bin/env python3
"""Batch-align a set of pairs with each of the three batch aligners.

Demonstrates the serial loop (:meth:`GenASMAligner.align_batch`), the
vectorized lockstep engine (:meth:`BatchAlignmentEngine.align_pairs`) and
that engine on a two-worker pool (:meth:`WorkerPool.run_alignments`),
and checks they produce identical alignments.

Run with::

    python examples/batch_backends.py

The ``__main__`` guard is required: the worker pool uses the
multiprocessing *spawn* start method, whose workers re-import this module.
"""

import random
import time

from repro import BatchAlignmentEngine, GenASMAligner, GenASMConfig
from repro.parallel import WorkerPool

ALPHABET = "ACGT"


def make_pairs(count: int = 24, length: int = 300, seed: int = 0):
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        pattern = "".join(rng.choice(ALPHABET) for _ in range(length))
        text = list(pattern)
        for _ in range(length // 12):
            pos = rng.randrange(len(text))
            text[pos] = rng.choice(ALPHABET)
        pairs.append((pattern, "".join(text) + "ACGTACGT"))
    return pairs


def timed(align, pairs):
    """Run one batch call; returns (alignments, seconds)."""
    start = time.perf_counter()
    alignments = align(pairs)
    return alignments, time.perf_counter() - start


def main() -> None:
    pairs = make_pairs()
    config = GenASMConfig()

    runs = {
        "serial-loop": timed(GenASMAligner(config).align_batch, pairs),
        "lockstep-soa": timed(BatchAlignmentEngine(config).align_pairs, pairs),
    }
    with WorkerPool(workers=2, config=config) as pool:
        pool.warm()  # spawn the workers outside the timed call
        runs["worker-pool"] = timed(pool.run_alignments, pairs)

    for name, (_alignments, seconds) in runs.items():
        print(
            f"{name:>14}: {len(pairs)} pairs in {seconds:.3f}s "
            f"({len(pairs) / seconds:.1f} pairs/s)"
        )
    serial = [str(a.cigar) for a in runs["serial-loop"][0]]
    for name in ("lockstep-soa", "worker-pool"):
        assert [str(a.cigar) for a in runs[name][0]] == serial, (
            f"{name} diverged from serial"
        )
    print("all backends produced identical alignments")
    speedup = runs["serial-loop"][1] / runs["lockstep-soa"][1]
    print(f"vectorized speedup over serial: {speedup:.2f}x")


if __name__ == "__main__":
    main()

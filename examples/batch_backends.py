#!/usr/bin/env python3
"""Batch-align a set of pairs with every BatchExecutor backend.

Demonstrates the three batch backends — the serial loop, the vectorized
lockstep engine (:mod:`repro.batch`) and the shared-memory pool with two
workers — and checks they produce identical alignments.

Run with::

    python examples/batch_backends.py

The ``__main__`` guard is required: the shared backend uses the
multiprocessing *spawn* start method, whose workers re-import this module.
"""

import random

from repro import BatchExecutor, GenASMConfig

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


def main() -> None:
    pairs = make_pairs()
    config = GenASMConfig()

    serial = BatchExecutor(backend="serial").run_alignments(
        pairs, config, name="serial-loop"
    )
    vectorized = BatchExecutor(backend="vectorized").run_alignments(
        pairs, config, name="lockstep-soa"
    )
    shared = BatchExecutor(workers=2, backend="shared").run_alignments(
        pairs, config, name="shared-pool"
    )
    assert shared.backend == "shared" and shared.workers == 2

    for batch in (serial, vectorized, shared):
        print(
            f"{batch.name:>14} [{batch.backend}]: "
            f"{batch.items} pairs in {batch.elapsed_seconds:.3f}s "
            f"({batch.items_per_second:.1f} pairs/s)"
        )
    for batch in (vectorized, shared):
        assert [str(a.cigar) for a in batch.results] == [
            str(a.cigar) for a in serial.results
        ], f"{batch.backend} diverged from serial"
    print("all backends produced identical alignments")
    print(f"vectorized speedup over serial: {vectorized.speedup_over(serial):.2f}x")


if __name__ == "__main__":
    main()

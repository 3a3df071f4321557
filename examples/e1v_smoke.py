#!/usr/bin/env python3
"""E1v smoke: scalar vs vectorized batch backends on a mixed-length workload.

A fast (~5 s) CI gate for the lockstep batch path: aligns a mixed-length
batch with both the serial scalar loop and the vectorized wave engine,
**fails** if the vectorized backend errors or produces any CIGAR / edit
distance / consumed-span disagreement, and prints the measured speedup plus
the wave scheduler's lockstep-efficiency diagnostics.

Run with::

    python examples/e1v_smoke.py
"""

import random
import time
from pathlib import Path

from repro import BatchAlignmentEngine, GenASMAligner, GenASMConfig
from repro.telemetry import BenchRecorder

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

ALPHABET = "ACGT"
#: Mixed window counts are the point: 150 bp reads take 3 windows, 1.2 kb
#: reads take 29 with the default config.
LENGTH_CYCLE = (150, 1200, 300, 900, 600)


def make_mixed_pairs(count: int = 80, seed: int = 7):
    rng = random.Random(seed)
    pairs = []
    for index in range(count):
        length = LENGTH_CYCLE[index % len(LENGTH_CYCLE)]
        pattern = "".join(rng.choice(ALPHABET) for _ in range(length))
        text = list(pattern)
        for _ in range(max(1, length // 12)):
            position = rng.randrange(len(text))
            text[position] = rng.choice(ALPHABET)
        pairs.append((pattern, "".join(text) + "ACGTACGT"))
    return pairs


def main() -> None:
    config = GenASMConfig()
    pairs = make_mixed_pairs()

    scalar = GenASMAligner(config)
    start = time.perf_counter()
    reference = [scalar.align(pattern, text) for pattern, text in pairs]
    scalar_seconds = time.perf_counter() - start

    engine = BatchAlignmentEngine(config)
    start = time.perf_counter()
    vectorized = engine.align_pairs(pairs)
    vectorized_seconds = time.perf_counter() - start

    mismatches = [
        index
        for index, (want, got) in enumerate(zip(reference, vectorized))
        if str(want.cigar) != str(got.cigar)
        or want.edit_distance != got.edit_distance
        or want.text_end != got.text_end
    ]
    assert not mismatches, f"vectorized backend disagrees on pairs {mismatches[:5]}"

    chunked = BatchAlignmentEngine(config, max_lanes=16)
    fifo = BatchAlignmentEngine(config, max_lanes=16, scheduling="fifo")
    sorted_efficiency = chunked.scheduling_stats(pairs)["efficiency"]
    fifo_efficiency = fifo.scheduling_stats(pairs)["efficiency"]

    tb = engine.traceback_stats
    tb_steps_per_second = tb["walk_steps"] / max(1e-9, tb["seconds"])

    speedup = scalar_seconds / max(1e-9, vectorized_seconds)
    print(f"pairs:                 {len(pairs)} (lengths {sorted(set(LENGTH_CYCLE))})")
    print(f"scalar:                {len(pairs) / scalar_seconds:8.1f} pairs/s")
    print(f"vectorized:            {len(pairs) / vectorized_seconds:8.1f} pairs/s")
    print(f"speedup:               {speedup:8.2f}x")
    print(f"lockstep efficiency:   sorted={sorted_efficiency:.3f} fifo={fifo_efficiency:.3f}")
    print(f"traceback:             walk_steps={tb['walk_steps']} "
          f"saved={tb['steps_saved']} ({tb_steps_per_second:,.0f} walk steps/s)")
    print(f"identical alignments:  True ({len(pairs)} pairs)")
    # Correctness gates the build; the timing comparison is advisory only
    # (shared CI runners are too noisy for a hard wall-clock assertion).
    if speedup <= 1.0:
        print(f"WARNING: vectorized speedup {speedup:.2f}x <= 1.0 on this run")
    assert sorted_efficiency >= fifo_efficiency
    # Skip-ahead gate: mutated-copy reads carry long match runs, so the
    # lockstep walk must have skipped per-step iterations.
    assert tb["steps_saved"] > 0, "match-run skip-ahead saved no walk steps"

    append_traceback_bench_row(
        config=config,
        source="e1v_smoke",
        walk_steps=tb["walk_steps"],
        steps_saved=tb["steps_saved"],
        steps_per_second=tb_steps_per_second,
        pairs=len(pairs),
    )


def append_traceback_bench_row(*, config=None, **row) -> None:
    """Append a traceback-throughput row to ``BENCH_pipeline.json``.

    Informational trend (correctness gates the build); bounded,
    schema-validated, provenance-stamped history via
    :class:`repro.telemetry.bench.BenchRecorder` — same contract as the
    smoke's streaming and service histories.
    """
    recorder = BenchRecorder(BENCH_PATH)
    row["steps_per_second"] = round(row["steps_per_second"], 1)
    recorder.append("traceback_history", row, config=config)
    recorder.save()
    print(f"appended traceback row: {BENCH_PATH.name} "
          f"({row['source']}, {row['steps_per_second']:,.0f} walk steps/s)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""E2 smoke: multi-word short-read batches, scalar vs vectorized.

A fast CI gate for the multi-word lane layout: aligns a 160-lane batch of
Illumina-length (150 bp) reads — whose ``GenASMConfig.short_read`` window
occupies **three** ``uint64`` words per lane — with both the serial scalar
loop and the vectorized wave engine, **fails** if any lane disagrees
(CIGAR / edit distance / consumed span), silently falls back to the scalar
path, or reports the wrong word count, and writes the measured throughput
row as a JSON artifact for the bench trajectory.

Run with::

    python examples/e2_smoke.py [output.json]
"""

import json
import math
import sys

from repro.harness.experiments import run_short_read_throughput_experiment

from e1v_smoke import append_traceback_bench_row

#: 128+ lanes is where the lockstep engine's wave amortisation pays off —
#: the regime the ROADMAP's multi-word item targets.
READ_COUNT = 160
READ_LENGTH = 150


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "e2_short_read_throughput.json"
    rows = run_short_read_throughput_experiment(
        read_count=READ_COUNT, read_length=READ_LENGTH, seed=7
    )
    row = rows[0]

    print(f"pairs:                 {row['pairs']} ({READ_LENGTH} bp short reads)")
    print(f"window / words:        {row['window_size']} bp -> {row['words_per_lane']} words/lane")
    print(f"serial:                {row['serial_pairs_per_second']:8.1f} pairs/s")
    print(f"vectorized:            {row['vectorized_pairs_per_second']:8.1f} pairs/s")
    print(f"speedup:               {row['measured']:8.2f}x")
    print(f"identical alignments:  {row['identical_results']} ({row['pairs']} pairs)")
    print(f"all lanes vectorized:  {row['all_lanes_vectorized']}")
    print(f"traceback skip-ahead:  walk_steps={row['tb_walk_steps']} "
          f"saved={row['tb_walk_steps_saved']} runs={row['tb_match_runs']}")

    # Correctness gates the build: equivalence, no silent scalar fallback,
    # the expected 3-word lane width, and the match-run skip-ahead actually
    # saving walk steps on a short-read workload (~4% error rate means long
    # diagonal match runs dominate the traceback).
    assert row["identical_results"], "vectorized backend disagrees with scalar"
    assert row["all_lanes_vectorized"], "short-read batch fell back to scalar"
    assert row["words_per_lane"] == 3, row["words_per_lane"]
    assert row["tb_walk_steps_saved"] > 0, "skip-ahead saved no walk steps"

    # Accurate traceback steps/s needs the engine's own timer (the
    # experiment row only times whole batches), so re-run the same
    # workload through a direct engine and publish the bench row.
    from repro.batch import BatchAlignmentEngine
    from repro.core.config import GenASMConfig
    from repro.harness.experiments import _simulate_short_read_pairs

    engine = BatchAlignmentEngine(GenASMConfig.short_read(READ_LENGTH))
    engine.align_pairs(
        _simulate_short_read_pairs(READ_COUNT, READ_LENGTH, 0.04, 7)
    )
    tb = engine.traceback_stats
    append_traceback_bench_row(
        config=engine.config,
        source="e2_smoke",
        walk_steps=tb["walk_steps"],
        steps_saved=tb["steps_saved"],
        steps_per_second=tb["walk_steps"] / max(1e-9, tb["seconds"]),
        pairs=READ_COUNT,
    )

    # `paper` is NaN by convention (no corresponding paper number); strict
    # JSON has no NaN literal, so null it in the published artifact.
    artifact = [
        {
            key: (None if isinstance(value, float) and math.isnan(value) else value)
            for key, value in r.items()
        }
        for r in rows
    ]
    with open(output_path, "w") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    print(f"wrote throughput artifact: {output_path}")

    # The timing comparison is advisory on shared CI runners (noisy
    # wall-clock); locally the multi-word engine shows >= 1.5x here.
    if row["measured"] < 1.5:
        print(f"WARNING: vectorized speedup {row['measured']:.2f}x < 1.5x on this run")


if __name__ == "__main__":
    main()

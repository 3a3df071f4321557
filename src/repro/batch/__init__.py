"""Vectorized batched alignment (lockstep structure-of-arrays GenASM).

``repro.batch`` evaluates many window pairs in lockstep using NumPy
structure-of-arrays bitvectors — one **multi-word** lane per pair
(``ceil(window_size / 64)`` ``uint64`` words, so short-read configurations
with windows wider than one machine word vectorize too) — replacing the
per-pair Python-int hot loop for batch workloads.  Results are
byte-identical to the scalar path in :mod:`repro.core`.

* :class:`BatchAlignmentEngine` — batch aligner producing
  :class:`repro.core.alignment.Alignment` objects.
* :func:`run_dc_wave_state` / :class:`SoAWave` — the lockstep GenASM-DC
  kernel and its lane layout (one lane per reversed window pair).
* :func:`build_wave_decisions` / :func:`lockstep_traceback` — the lockstep
  GenASM-TB kernel (see below).
* :func:`lockstep_stats` — lockstep (SIMT warp divergence) efficiency
  model shared with :mod:`repro.gpu.simulator`.

Decision-word traceback layout
------------------------------
A windowing step scans its lanes wave-wide at most twice: one DC wave
over every lane at its base budget and, if some lane failed, one budget
retry over the failed lanes at the window's full budget, which stops
once every lane has found its solution row.  Rows do not depend on the
budget, so that row names the rung of the scalar budget ladder that
would have solved the lane; every rung the lane climbed is charged, and
the retry wave is masked with the solving rung's band and reachability
column (:meth:`SoAWave.set_budgets`).  A DC wave stores its rows as one
SoA array (``stored_rows[d]`` is the full-width ``R`` row ``(W, lanes,
n_max + 1)`` with ``W`` words per lane, or the row's four intermediates
``(4, W, lanes, n_max)`` without entry compression; the scalar path's
band packing and reachability placeholders are imposed lazily via
:meth:`SoAWave.zero_view_mask`).
Once every lane has solved, the rows its walk can reach —
``0..min_errors`` of the scan that solved it — are expanded into
**decision words**: four ``uint64`` planes of shape
``(W, slots, n_max + 1)`` — one per CIGAR operation — in which each lane
owns ``min_errors + 1`` consecutive row slots from ``base[lane]``, and bit
``i % 64`` of word ``i // 64`` of ``plane[·, base[lane] + d, j]`` says that
operation is a legal traceback step at text column ``j``, error level
``d``, pattern bit ``i``.  Rows above a lane's ``min_errors`` and every
row of a failed base attempt get no slot.  A match-plane word, for
example, is
``char_eq[j] & ((zero(R[d][j-1]) << 1) | 1)`` — the character-equality
word ANDed with the shifted zero-bit view of the neighbouring stored
entry, the ``<< 1`` carrying bit 63 of each word into bit 0 of the next
(the cross-word stitch at ``i % 64 == 0``) — exactly the predicate
:func:`repro.core.genasm_tb.traceback_conditions` evaluates bit by bit.

The traceback then walks **all live lanes in lockstep**, one walk per
windowing step: per emitted CIGAR column, one gather fetches word
``i // 64`` of slot ``base + d`` of each lane's four decision planes and
its character-equality word, a 16-entry lookup table resolves the
first-true operation under ``match_priority``, and a second table replays
the scalar loop's short-circuit read accounting (``dp_reads`` /
``bytes_read``).  A lane that chose a match reads its whole match run
off the match plane's diagonal in the same step.  The walk carries
cursor state for live lanes only: a lane that has used up its committed
pattern budget is compacted out, so each NumPy step costs only the
lanes still walking.  A GPU warp would idle on finished lanes instead —
the divergence :func:`lockstep_stats` quantifies and
:meth:`repro.gpu.simulator.GpuSimulator.warp_divergence` applies to GPU
warps.  Scheduling lanes into waves by expected lockstep work — window
count × words per lane (:meth:`BatchAlignmentEngine.schedule`) — keeps
the lanes of one wave finishing close together on mixed-length batches.
"""

from repro.batch.engine import (
    BatchAlignmentEngine,
    WaveDCState,
    run_dc_wave_state,
)
from repro.batch.soa import SoAWave, lane_words, lockstep_stats
from repro.batch.traceback import (
    LaneTraceback,
    WaveDecisions,
    build_wave_decisions,
    lockstep_traceback,
)

__all__ = [
    "BatchAlignmentEngine",
    "WaveDCState",
    "run_dc_wave_state",
    "SoAWave",
    "lane_words",
    "lockstep_stats",
    "LaneTraceback",
    "WaveDecisions",
    "build_wave_decisions",
    "lockstep_traceback",
]

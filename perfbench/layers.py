"""Outside-in layer trace: time each layer by wrapping its public functions.

Nothing in the program is instrumented for this.  :class:`LayerTrace`
replaces module and class attributes with timing wrappers while installed
and puts the original objects back on :meth:`~LayerTrace.uninstall`:

* ``repro.pipeline.pipeline.stream_reads`` — each ``next`` of the read
  stream (``pipeline.ingest``);
* ``Mapper.map_sequence`` and ``Mapper.candidate_region_sequence``
  (``mapping``);
* ``WaveAccumulator.push`` / ``poll`` / ``flush`` (``pipeline`` batcher);
* ``BatchAlignmentEngine.align_pairs`` (``batch.align``);
* ``SoAWave``, ``run_dc_wave_state``, ``build_wave_decisions`` and
  ``lockstep_traceback`` as globals of ``repro.batch.engine``, which is
  where the engine looks them up;
* ``repro.core.genasm_tb.genasm_traceback`` (imported by the engine at
  call time) and ``WaveDCState.table`` — the scalar traceback fallback;
* ``SamEmitter.emit_group`` (``io.sam``);
* ``AlignmentService.submit`` (``service.submit``).

Seconds are wall time inside the wrapped calls; counts are read off the
calls' arguments and results after the clock has stopped.  The wrappers
are not thread-safe against two threads recording the *same* key; in the
service, submits come from the load generator and everything else from
the dispatcher thread, so no key is shared.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: Top-level layers of a batch pass: between them they should cover the
#: pass's wall time (``trace.coverage_share``).
TOP_LEVEL_SECONDS = (
    "pipeline.ingest.seconds",
    "mapping.seconds",
    "pipeline.batch.seconds",
    "batch.align.seconds",
    "io.sam.seconds",
)


class LayerTrace:
    """Accumulates per-layer seconds and counts while installed."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.values: Dict[str, float] = defaultdict(float)
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        # In place: installed wrappers hold a reference to this dict.
        self.values.clear()

    def install(self) -> "LayerTrace":
        if self._saved:
            raise RuntimeError("layer trace already installed")
        import repro.batch.engine as engine
        import repro.core.genasm_tb as genasm_tb
        import repro.pipeline.pipeline as pipeline
        from repro.batch.engine import BatchAlignmentEngine, WaveDCState
        from repro.io.sam import SamEmitter
        from repro.mapping.mapper import Mapper
        from repro.pipeline.batcher import WaveAccumulator
        from repro.service.frontend import AlignmentService

        self._patch(pipeline, "stream_reads", self._wrap_stream_reads)
        self._patch(Mapper, "map_sequence", self._wrap_map_sequence)
        self._patch(Mapper, "candidate_region_sequence", self._timed("mapping.seconds"))
        for name in ("push", "poll", "flush"):
            self._patch(WaveAccumulator, name, self._wrap_batcher)
        self._patch(BatchAlignmentEngine, "align_pairs", self._wrap_align_pairs)
        self._patch(engine, "SoAWave", self._wrap_counted("batch.wave_build"))
        self._patch(engine, "run_dc_wave_state", self._wrap_dc_scan)
        self._patch(engine, "build_wave_decisions", self._wrap_decisions)
        self._patch(engine, "lockstep_traceback", self._wrap_walk)
        self._patch(genasm_tb, "genasm_traceback", self._wrap_counted("batch.tb_scalar", "lanes"))
        self._patch(WaveDCState, "table", self._timed("batch.tb_scalar.seconds"))
        self._patch(SamEmitter, "emit_group", self._wrap_emit_group)
        self._patch(AlignmentService, "submit", self._wrap_counted("service.submit"))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name: str, make_wrapper) -> None:
        # ``vars`` gives the raw attribute (the plain function on a class),
        # which is exactly what uninstall must put back.
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        wrapper = make_wrapper(original)
        # updated=() — SoAWave is a class, whose namespace must not be
        # copied into the wrapper function.
        functools.update_wrapper(wrapper, original, updated=())
        setattr(owner, name, wrapper)

    # ------------------------------------------------------------------ #
    # Wrapper factories.  Each takes the original callable and returns
    # its timing replacement.
    def _timed(self, key: str):
        def make(original):
            def wrapper(*args, **kwargs):
                start = self.clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.values[key] += self.clock() - start

            return wrapper

        return make

    def _wrap_counted(self, layer: str, count: str = "calls"):
        def make(original):
            def wrapper(*args, **kwargs):
                start = self.clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.values[f"{layer}.seconds"] += self.clock() - start
                    self.values[f"{layer}.{count}"] += 1

            return wrapper

        return make

    def _wrap_stream_reads(self, original):
        values, clock = self.values, self.clock

        def wrapper(*args, **kwargs):
            records = original(*args, **kwargs)

            def timed():
                while True:
                    start = clock()
                    record = next(records, None)
                    values["pipeline.ingest.seconds"] += clock() - start
                    if record is None:
                        return
                    values["pipeline.ingest.reads"] += 1
                    yield record

            return timed()

        return wrapper

    def _wrap_map_sequence(self, original):
        def wrapper(mapper, name, sequence):
            start = self.clock()
            candidates = original(mapper, name, sequence)
            self.values["mapping.seconds"] += self.clock() - start
            self.values["mapping.reads"] += 1
            self.values["mapping.candidates"] += len(candidates)
            return candidates

        return wrapper

    def _wrap_batcher(self, original):
        def wrapper(accumulator, *args, **kwargs):
            start = self.clock()
            waves = original(accumulator, *args, **kwargs)
            self.values["pipeline.batch.seconds"] += self.clock() - start
            for wave in waves:
                self.values["pipeline.waves"] += 1
                self.values["pipeline.wave_lanes"] += len(wave)
                self.values["pipeline.wave_capacity"] += max(
                    accumulator.wave_size, len(wave)
                )
            return waves

        return wrapper

    def _wrap_align_pairs(self, original):
        def wrapper(engine, pairs, *args, **kwargs):
            start = self.clock()
            alignments = original(engine, pairs, *args, **kwargs)
            self.values["batch.align.seconds"] += self.clock() - start
            self.values["batch.align.calls"] += 1
            self.values["batch.align.lanes"] += len(alignments)
            return alignments

        return wrapper

    def _wrap_dc_scan(self, original):
        def wrapper(wave, *args, **kwargs):
            start = self.clock()
            state = original(wave, *args, **kwargs)
            values = self.values
            values["batch.dc_scan.seconds"] += self.clock() - start
            values["batch.dc_scan.calls"] += 1
            values["batch.dc_scan.lanes"] += wave.lanes
            values["batch.dc_scan.rows"] += len(state.stored_rows)
            values["batch.dc_scan.bytes"] += sum(
                part.nbytes
                for row in state.stored_rows
                for part in (row if isinstance(row, tuple) else (row,))
            )
            values["batch.dc_scan.model_bytes"] += int(state.stored_bytes().sum())
            values["batch.dc_scan.solved"] += int((state.min_errors >= 0).sum())
            return state

        return wrapper

    def _wrap_decisions(self, original):
        def wrapper(*args, **kwargs):
            start = self.clock()
            decisions = original(*args, **kwargs)
            self.values["batch.tb_decisions.seconds"] += self.clock() - start
            self.values["batch.tb_decisions.bytes"] += (
                decisions.planes.nbytes + decisions.char_eq.nbytes
            )
            return decisions

        return wrapper

    def _wrap_walk(self, original):
        def wrapper(*args, **kwargs):
            start = self.clock()
            tracebacks = original(*args, **kwargs)
            values = self.values
            values["batch.tb_walk.seconds"] += self.clock() - start
            for tb in tracebacks:
                if tb is not None:
                    values["batch.tb_walk.lanes"] += 1
                    values["batch.tb_walk.steps"] += tb.walk_steps
                    values["batch.tb_walk.ops"] += len(tb.codes)
            return tracebacks

        return wrapper

    def _wrap_emit_group(self, original):
        def wrapper(emitter, group):
            start = self.clock()
            records = original(emitter, group)
            self.values["io.sam.seconds"] += self.clock() - start
            self.values["io.sam.records"] += len(records)
            return records

        return wrapper


def derived(values: Dict[str, float]) -> Dict[str, float]:
    """Ratios computed from a finished trace's raw values."""
    lanes = values.get("batch.dc_scan.lanes", 0)
    capacity = values.get("pipeline.wave_capacity", 0)
    return {
        "batch.dc_lane_yield": values.get("batch.dc_scan.solved", 0) / lanes
        if lanes
        else 0.0,
        "pipeline.wave_fill": values.get("pipeline.wave_lanes", 0) / capacity
        if capacity
        else 0.0,
    }

"""Unified telemetry: trace spans, a metrics registry, exporters, bench.

The paper's claims are *measured* claims — DP-work, memory-access and
wall-time deltas — and every remaining ROADMAP direction (GPU backend,
multi-core validation, numba-vs-numpy) needs trustworthy, comparable,
persisted measurements.  This package is the one seam they plug into:

* :mod:`~repro.telemetry.trace` — :class:`Tracer` spans and instant
  events with monotonic injectable clocks, a near-zero-overhead
  :data:`NULL_TRACER` when disabled, and cross-process absorption of
  worker-side spans (:mod:`repro.parallel.pool` ships them back with wave
  results, so one timeline covers driver stages and worker waves);
* :mod:`~repro.telemetry.metrics` — :class:`MetricsRegistry` of named,
  labelled counters/gauges/histograms: the one store behind
  :class:`~repro.pipeline.stats.PipelineStats` and
  :class:`~repro.service.stats.ServiceStats` (``stats.registry``);
* :mod:`~repro.telemetry.exporters` — Chrome-trace JSON
  (``chrome://tracing`` / Perfetto), Prometheus text exposition, and a
  human :func:`~repro.telemetry.exporters.summary`;
* :mod:`~repro.telemetry.bench` — the perf-trajectory recorder over
  ``BENCH_*.json``: schema validation, provenance-stamped appends
  (git SHA + config fingerprint) and per-cell trailing-window trend
  deltas.

Quickstart::

    from repro.telemetry import Tracer, prometheus_text, write_chrome_trace

    tracer = Tracer()
    pipeline = StreamingPipeline(mapper, tracer=tracer)
    results = pipeline.run_all(reads)
    write_chrome_trace("pipeline_trace.json", tracer)
    print(prometheus_text(pipeline.stats.registry))
"""

from repro.telemetry.bench import (
    BenchRecorder,
    BenchSchemaError,
    config_fingerprint,
    git_sha,
    validate_bench,
)
from repro.telemetry.exporters import (
    chrome_trace,
    prometheus_text,
    summary,
    write_chrome_trace,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from repro.telemetry.trace import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
)

__all__ = [
    "BenchRecorder",
    "BenchSchemaError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "config_fingerprint",
    "get_tracer",
    "git_sha",
    "metric_key",
    "prometheus_text",
    "summary",
    "validate_bench",
    "write_chrome_trace",
]

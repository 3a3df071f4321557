"""Tests for the unified telemetry layer (trace, metrics, exporters, bench).

Covers the :class:`~repro.telemetry.trace.Tracer` span/instant/absorb
surface (deterministic under an injected clock) and the no-op
:data:`NULL_TRACER` contract, the :class:`MetricsRegistry` metric types,
the Chrome-trace and Prometheus exporters (label values escaped), the
``BENCH_*.json`` perf-trajectory recorder (schema validation, provenance
stamps, round-trip stability, trends), the stats objects as views of
their registry — the ``PipelineStats.timer`` stage validation, the
per-tenant ``ServiceStats.record_submit`` accounting, attributes that
read what the registry holds, every stored metric reported by
``as_dict()`` and one exposition per service — plus
end-to-end tracing through the streaming pipeline and the service.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.pipeline import PIPELINE_STAGES, PipelineStats, StreamingPipeline
from repro.service import AlignmentService
from repro.service.stats import ServiceStats
from repro.telemetry import (
    NULL_TRACER,
    BenchRecorder,
    BenchSchemaError,
    MetricsRegistry,
    SpanRecord,
    Tracer,
    chrome_trace,
    config_fingerprint,
    get_tracer,
    metric_key,
    prometheus_text,
    validate_bench,
    write_chrome_trace,
)
from repro.telemetry import summary as registry_summary
from repro.telemetry.bench import main as bench_main


class FakeClock:
    """Deterministic monotonic clock: each call advances by ``step``."""

    def __init__(self, start: float = 100.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


# --------------------------------------------------------------------------- #
# Trace layer
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_span_records_interval_with_attrs(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("align.wave", wave_id=3, lanes=64):
            pass
        (record,) = tracer.records()
        assert record.name == "align.wave"
        assert record.kind == "span"
        assert record.end - record.start == pytest.approx(1.0)
        assert record.attrs == {"wave_id": 3, "lanes": 64}
        assert record.pid == tracer.pid

    def test_instant_is_a_point_event(self):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("wave.flush", cause="timeout")
        (record,) = tracer.records()
        assert record.kind == "instant"
        assert record.start == record.end
        assert record.attrs["cause"] == "timeout"

    def test_record_span_uses_explicit_timestamps(self):
        tracer = Tracer(clock=FakeClock())
        tracer.record_span("service.request", start=5.0, end=9.5, tenant="a")
        (record,) = tracer.records()
        assert (record.start, record.end) == (5.0, 9.5)
        assert record.duration == pytest.approx(4.5)

    def test_absorb_merges_foreign_records_and_names_tracks(self):
        driver = Tracer(clock=FakeClock(), process_name="driver")
        worker = SpanRecord(
            name="worker.align.wave", start=1.0, end=2.0, pid=99999, tid=1
        )
        driver.absorb([worker], process_name="shm-worker-99999")
        assert worker in driver.records()
        assert driver.process_names[99999] == "shm-worker-99999"
        assert driver.process_names[driver.pid] == "driver"

    def test_drain_empties_the_buffer(self):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("one")
        drained = tracer.drain()
        assert len(drained) == 1
        assert tracer.records() == []
        assert len(tracer) == 0

    def test_buffer_limit_drops_oldest_and_counts(self):
        tracer = Tracer(clock=FakeClock(), buffer_limit=3)
        for index in range(5):
            tracer.instant(f"event-{index}")
        names = [record.name for record in tracer.records()]
        assert names == ["event-2", "event-3", "event-4"]
        assert tracer.dropped == 2

    def test_null_tracer_is_inert_and_allocation_free(self):
        span_a = NULL_TRACER.span("anything", key=1)
        span_b = NULL_TRACER.span("else")
        assert span_a is span_b  # one shared no-op context manager
        with span_a:
            pass
        NULL_TRACER.instant("x")
        NULL_TRACER.record_span("y", start=0.0, end=1.0)
        NULL_TRACER.absorb([])
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.drain() == []
        assert len(NULL_TRACER) == 0
        assert not NULL_TRACER.enabled

    def test_get_tracer_normalises_none(self):
        assert get_tracer(None) is NULL_TRACER
        tracer = Tracer(clock=FakeClock())
        assert get_tracer(tracer) is tracer


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_metric_key_sorts_labels(self):
        assert metric_key("m", {}) == "m"
        assert metric_key("m", {"b": 2, "a": 1}) == 'm{a="1",b="2"}'

    def test_counter_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("pairs_total")
        counter.inc()
        counter.inc(4)
        assert registry.get("pairs_total") == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3.5)
        gauge.inc(1.5)
        assert registry.get("depth") == 5.0

    def test_histogram_observe(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lanes", buckets=(2, 8))
        for value in (1, 2, 5, 100):
            histogram.observe(value)
        value = histogram.value()
        assert value["count"] == 4
        assert value["sum"] == 108
        assert value["buckets"] == [(2, 2), (8, 3)]

    def test_labelled_metrics_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("flushes_total", cause="size").inc(2)
        registry.counter("flushes_total", cause="final").inc(1)
        assert registry.get("flushes_total", cause="size") == 2
        assert registry.get("flushes_total", cause="final") == 1

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_snapshot_uses_canonical_keys(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(1)
        registry.gauge("b", tenant="x").set(2)
        snapshot = registry.snapshot()
        assert snapshot["a_total"] == 1
        assert snapshot['b{tenant="x"}'] == 2


# --------------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------------- #
class TestExporters:
    def _tracer(self) -> Tracer:
        tracer = Tracer(clock=FakeClock(), process_name="driver")
        with tracer.span("stage.align", waves=1):
            pass
        tracer.instant("wave.flush", cause="final")
        return tracer

    def test_chrome_trace_structure(self):
        tracer = self._tracer()
        document = chrome_trace(tracer)
        events = document["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert meta[0]["args"]["name"] == "driver"
        (span,) = spans
        assert span["name"] == "stage.align"
        assert span["ts"] == pytest.approx(0.0)  # rebased to earliest event
        assert span["dur"] == pytest.approx(1e6)  # 1 fake-clock second in µs
        assert span["args"] == {"waves": 1}
        (instant,) = instants
        assert instant["s"] == "t"

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", self._tracer())
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == 3

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("reads_total", "reads ingested").inc(7)
        registry.gauge("fill", tenant="a").set(0.5)
        registry.histogram("lanes", buckets=(2,)).observe(1)
        text = prometheus_text(registry)
        assert "# HELP reads_total reads ingested" in text
        assert "# TYPE reads_total counter" in text
        assert "reads_total 7" in text
        assert 'fill{tenant="a"} 0.5' in text
        assert 'lanes_bucket{le="2"} 1' in text
        assert 'lanes_bucket{le="+Inf"} 1' in text
        assert "lanes_count 1" in text

    def test_label_values_cannot_forge_exposition_lines(self):
        # Tenant names are client input: quote, backslash and newline are
        # escaped, so a name cannot close its label set or start a line.
        evil = 'acme"}\nfake_metric 1 #'
        registry = MetricsRegistry()
        registry.counter("requests_total", tenant=evil).inc(2)
        registry.counter("requests_total", tenant="a\\b").inc()
        lines = prometheus_text(registry).splitlines()
        assert not any(line.startswith("fake_metric") for line in lines)
        assert 'requests_total{tenant="acme\\"}\\nfake_metric 1 #"} 2' in lines
        assert 'requests_total{tenant="a\\\\b"} 1' in lines
        assert metric_key("m", {"t": evil}) == 'm{t="acme\\"}\\nfake_metric 1 #"}'

    def test_summary_lists_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(3)
        registry.histogram("h", buckets=(1,)).observe(2)
        text = registry_summary(registry)
        assert "a_total  3" in text
        assert "count=1" in text


# --------------------------------------------------------------------------- #
# Bench recorder
# --------------------------------------------------------------------------- #
def _bench_file(tmp_path, data):
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


GOOD_BENCH = {
    "benchmark": "unit",
    "workload": {"reads": 8, "read_length": 300},
    "history": [{"date": "2026-01-02T00:00:00", "ratio": 0.95}],
}


class TestBench:
    def test_validate_accepts_the_real_trajectory(self):
        from pathlib import Path

        real = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
        validate_bench(json.loads(real.read_text()))

    def test_validate_rejects_bad_rows(self):
        with pytest.raises(BenchSchemaError) as err:
            validate_bench({"history": [{"ratio": 1.0}]})  # no date
        assert "date" in str(err.value)
        with pytest.raises(BenchSchemaError):
            validate_bench({"history": [{"date": "2026-01-01", "nested": {}}]})
        with pytest.raises(BenchSchemaError):
            validate_bench({"history": "not-a-list"})
        with pytest.raises(BenchSchemaError):
            validate_bench([])

    def test_append_stamps_provenance_and_truncates(self, tmp_path):
        recorder = BenchRecorder(_bench_file(tmp_path, GOOD_BENCH))
        stored = recorder.append(
            "history", {"ratio": 1.0}, config={"wave_size": 64}, limit=2
        )
        assert stored["git_sha"]  # "unknown" at worst, never empty
        assert stored["config_fingerprint"] == config_fingerprint({"wave_size": 64})
        assert "date" in stored
        recorder.append("history", {"ratio": 1.1}, limit=2)
        history = recorder.history("history")
        assert len(history) == 2  # truncated to the newest rows
        assert [row["ratio"] for row in history] == [1.0, 1.1]

    def test_append_stamps_cpu_count(self, tmp_path):
        recorder = BenchRecorder(_bench_file(tmp_path, GOOD_BENCH))
        stored = recorder.append("history", {"ratio": 1.0})
        assert stored["cpu_count"] == os.cpu_count()
        assert recorder.history("history")[-1]["cpu_count"] == os.cpu_count()
        recorder.save()  # a scalar field, so the schema accepts it

    def test_round_trip_leaves_existing_histories_unchanged(self, tmp_path):
        path = _bench_file(tmp_path, GOOD_BENCH)
        recorder = BenchRecorder(path)
        recorder.append("history", {"ratio": 1.0})
        recorder.save()
        reloaded = BenchRecorder(path)  # validate → append → re-validate
        assert reloaded.history("history")[0] == GOOD_BENCH["history"][0]
        assert reloaded.data["workload"] == GOOD_BENCH["workload"]

    def test_trend_compares_latest_to_trailing_mean(self, tmp_path):
        recorder = BenchRecorder(_bench_file(tmp_path, GOOD_BENCH))
        assert recorder.trend("history", "ratio") is None  # one row: no window
        for ratio in (1.0, 1.1, 1.5):
            recorder.append("history", {"ratio": ratio})
        trend = recorder.trend("history", "ratio", window=3)
        assert trend["latest"] == pytest.approx(1.5)
        assert trend["trailing_mean"] == pytest.approx((0.95 + 1.0 + 1.1) / 3)
        assert trend["delta"] == pytest.approx(1.5 - (0.95 + 1.0 + 1.1) / 3)

    def test_trend_compares_only_rows_of_the_same_cell(self, tmp_path):
        recorder = BenchRecorder(_bench_file(tmp_path, {}))
        cell = {"grid": "g", "workload": "w", "window_size": 64, "wave_size": 256}
        for backend, rate in (
            ("serial", 100.0),
            ("streaming", 10.0),
            ("serial", 110.0),
            ("streaming", 12.0),
            ("streaming", 14.0),
            ("serial", 120.0),
        ):
            recorder.append(
                "grid_history", {**cell, "backend": backend, "pairs_per_second": rate}
            )
        # The newest row is serial: only the earlier serial rows form its
        # window, never the interleaved streaming rows.
        trend = recorder.trend("grid_history", "pairs_per_second")
        assert trend["latest"] == pytest.approx(120.0)
        assert trend["trailing_mean"] == pytest.approx(105.0)
        assert trend["rows"] == 2
        streaming = recorder.trend(
            "grid_history", "pairs_per_second", cell={**cell, "backend": "streaming"}
        )
        assert streaming["latest"] == pytest.approx(14.0)
        assert streaming["trailing_mean"] == pytest.approx(11.0)
        # Another wave size is another cell, with no trailing window yet.
        recorder.append(
            "grid_history",
            {**cell, "wave_size": 64, "backend": "serial", "pairs_per_second": 90.0},
        )
        assert recorder.trend("grid_history", "pairs_per_second") is None

    def test_cli_prints_one_trend_per_cell(self, tmp_path, capsys):
        recorder = BenchRecorder(_bench_file(tmp_path, {}))
        for backend, rate in (("serial", 100.0), ("shared", 150.0), ("serial", 110.0)):
            recorder.append(
                "grid_history",
                {"grid": "g", "workload": "w", "backend": backend,
                 "window_size": 64, "wave_size": 256, "pairs_per_second": rate},
            )
        recorder.save()
        assert bench_main([str(recorder.path)]) == 0
        out = capsys.readouterr().out
        assert "grid_history: 3 rows, 2 cells" in out
        assert "g/w/serial/64/256: pairs_per_second 110 (trailing mean 100, n=1" in out
        assert "g/w/shared/64/256: pairs_per_second 150 (no trailing window yet)" in out

    def test_save_refuses_invalid_mutation(self, tmp_path):
        recorder = BenchRecorder(_bench_file(tmp_path, GOOD_BENCH))
        recorder.data["history"].append({"ratio": 1.0})  # row without a date
        with pytest.raises(BenchSchemaError):
            recorder.save()

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = _bench_file(tmp_path, GOOD_BENCH)
        assert bench_main([str(good)]) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"history": [{"ratio": 1.0}]}))
        assert bench_main([str(bad)]) == 1
        assert bench_main([str(tmp_path / "missing.json")]) == 2

    def test_config_fingerprint_stable_and_sensitive(self):
        from repro.core.config import GenASMConfig

        base = GenASMConfig()
        assert config_fingerprint(base) == config_fingerprint(GenASMConfig())
        assert config_fingerprint(base) != config_fingerprint(
            GenASMConfig(window_size=32)
        )
        assert len(config_fingerprint(base)) == 12


# --------------------------------------------------------------------------- #
# Stats satellites: timer validation, per-tenant submits, summary strings
# --------------------------------------------------------------------------- #
class TestStatsSatellites:
    def test_timer_rejects_unknown_stage(self):
        stats = PipelineStats(wave_size=4)
        with pytest.raises(ValueError, match="unknown pipeline stage"):
            with stats.timer("not-a-stage"):
                pass
        # Known stages accumulate as before.
        with stats.timer("align"):
            pass
        assert stats.stage_seconds["align"] >= 0.0

    def test_record_submit_tracks_per_tenant_counts(self):
        stats = ServiceStats()
        stats.record_submit("alpha", 5)
        stats.record_submit("alpha", 3)
        stats.record_submit("beta", 2)
        assert stats.tenant_requests_submitted == {"alpha": 2, "beta": 1}
        assert stats.tenant_pairs_submitted == {"alpha": 8, "beta": 2}
        assert stats.requests_submitted == 3
        assert stats.pairs_submitted == 10
        view = stats.as_dict()["tenant_submitted"]
        assert view == {
            "alpha": {"requests": 2, "pairs": 8},
            "beta": {"requests": 1, "pairs": 2},
        }

    def test_pipeline_summary_string(self):
        stats = PipelineStats(wave_size=4)
        stats.registry.counter("pipeline_reads_total").inc(10)
        stats.registry.counter("pipeline_candidates_total").inc(12)
        stats.record_wave(4, "size")
        stats.record_aligned(4)
        stats.wall_seconds = 2.0
        text = stats.summary()
        assert "reads=10 candidates=12 waves=1 aligned=4" in text
        assert "wall=2.000s" in text
        assert "(5.0 reads/s, 2.0 pairs/s)" in text
        assert "fill=1.000 full=1/1" in text
        for stage in PIPELINE_STAGES:
            assert f"{stage}=" in text

    def test_service_summary_shows_submitted_vs_completed(self):
        stats = ServiceStats(wave_size=4)
        stats.record_submit("alpha", 4)
        stats.record_submit("alpha", 4)
        stats.record_request_done("alpha", 0, 0.010, 4)
        text = stats.summary()
        assert "requests=1/2 pairs=4/8" in text
        # Per-tenant line: completed/submitted so fairness gaps are visible.
        assert "tenant alpha: requests=1/2" in text
        assert "p50=10.00ms" in text
        # The cross-tenant "*" aggregate has no submitted-side breakdown.
        assert "tenant *: requests=1 " in text


# --------------------------------------------------------------------------- #
# The registry is the store: attributes read it, one exposition per service
# --------------------------------------------------------------------------- #
class TestRegistryIsTheStore:
    def test_attributes_read_what_the_registry_holds(self):
        stats = PipelineStats(wave_size=4)
        stats.registry.counter("pipeline_reads_total").inc(3)
        stats.registry.counter("pipeline_flushes_total", cause="timeout").inc()
        stats.registry.counter("pipeline_stage_seconds_total", stage="map").inc(0.5)
        assert stats.reads == 3
        assert stats.flushes["timeout"] == 1
        assert stats.waves == 1
        assert stats.stage_seconds["map"] == 0.5
        service = ServiceStats(wave_size=4)
        service.registry.counter("service_requests_failed_total").inc()
        assert service.requests_failed == 1
        assert service.as_dict()["requests_failed"] == 1
        # Counters change only through the registry; gauges may be set.
        with pytest.raises(AttributeError, match="counter"):
            stats.reads = 5
        stats.wall_seconds = 2.0
        assert stats.registry.get("pipeline_wall_seconds") == 2.0

    def test_one_exposition_holds_the_whole_service(self):
        service = AlignmentService(wave_size=4, autostart=False, linger_seconds=None)
        future = service.submit([("ACGTACGT", "ACGTTCGT")] * 6, tenant="alpha")
        service.drain()
        assert len(future.result()) == 6
        service.close()
        stats = service.stats
        assert stats.pipeline.registry is stats.registry is stats.latency.registry
        lines = prometheus_text(stats.registry).splitlines()
        for sample in (
            'service_requests_submitted_total{tenant="alpha"} 1',
            'service_pairs_submitted_total{tenant="alpha"} 6',
            "service_pairs_completed_total 6",
            'service_request_latency_seconds_count{tenant="alpha"} 1',
            f"pipeline_wave_lanes_total {stats.pipeline.lanes_total}",
            f'pipeline_flushes_total{{cause="final"}} {stats.pipeline.flushes["final"]}',
            f"pipeline_tb_walk_steps_total {stats.pipeline.tb_walk_steps}",
        ):
            assert sample in lines, sample
        assert stats.pipeline.lanes_total == 6
        assert stats.pipeline.tb_walk_steps > 0

    def test_pipeline_as_dict_matches_snapshot_for_every_metric(self):
        pipeline = StreamingPipeline(wave_size=4, max_pending=8)
        pipeline.align_pairs([("ACGTACGT", "ACGTTCGT")] * 10)
        stats = pipeline.stats
        snapshot = stats.registry.snapshot()
        d = stats.as_dict()
        expected = {
            "pipeline_reads_total": d["reads"],
            "pipeline_candidates_total": d["candidates"],
            "pipeline_aligned_total": d["aligned"],
            "pipeline_full_waves_total": d["full_waves"],
            "pipeline_wave_merges_total": d["wave_merges"],
            "pipeline_merged_lanes_total": d["merged_lanes"],
            "pipeline_tb_walk_steps_total": d["tb_walk_steps"],
            "pipeline_tb_walk_steps_saved_total": d["tb_walk_steps_saved"],
            "pipeline_tb_match_runs_total": d["tb_match_runs"],
            "pipeline_tb_match_run_ops_total": d["tb_match_run_ops"],
            "pipeline_wall_seconds": d["wall_seconds"],
            "pipeline_max_pending": d["max_pending"],
            "pipeline_max_reorder_buffer": d["max_reorder_buffer"],
        }
        for stage, seconds in d["stage_seconds"].items():
            expected[f'pipeline_stage_seconds_total{{stage="{stage}"}}'] = seconds
        for cause, count in d["flushes"].items():
            expected[f'pipeline_flushes_total{{cause="{cause}"}}'] = count
        for key, value in expected.items():
            assert snapshot[key] == pytest.approx(value), key
        # The totals behind the derived values are stored, not the ratios.
        lanes = snapshot["pipeline_wave_lanes_total"]
        capacity = snapshot["pipeline_wave_capacity_total"]
        pending = snapshot["pipeline_pending_items_total"]
        samples = snapshot["pipeline_pending_samples_total"]
        assert lanes == sum(stats.wave_lane_counts) == 10
        assert d["wave_fill_efficiency"] == pytest.approx(lanes / capacity)
        assert d["mean_pending"] == pytest.approx(pending / samples)
        assert d["waves"] == sum(d["flushes"].values()) == len(stats.wave_lane_counts)
        # Every stored metric is accounted for: nothing in the registry is
        # a number the report does not read.
        derived = {
            "pipeline_wave_lanes_total",
            "pipeline_wave_capacity_total",
            "pipeline_pending_items_total",
            "pipeline_pending_samples_total",
        }
        assert set(snapshot) == set(expected) | derived

    def test_service_as_dict_matches_snapshot_for_every_metric(self):
        stats = ServiceStats(wave_size=4)
        stats.record_submit("alpha", 4)
        stats.record_submit("beta", 2)
        stats.record_admitted("alpha", 3)
        stats.record_request_done("alpha", 0, 0.010, 4)
        stats.record_request_failed()
        snapshot = stats.registry.snapshot()
        d = stats.as_dict()
        expected = {
            "service_requests_failed_total": d["requests_failed"],
            "service_pairs_admitted_total": d["pairs_admitted"],
            "service_pairs_completed_total": d["pairs_completed"],
        }
        for tenant, sub in d["tenant_submitted"].items():
            expected[f'service_requests_submitted_total{{tenant="{tenant}"}}'] = sub[
                "requests"
            ]
            expected[f'service_pairs_submitted_total{{tenant="{tenant}"}}'] = sub[
                "pairs"
            ]
        for tenant, peak in d["max_inflight"].items():
            expected[f'service_max_inflight_pairs{{tenant="{tenant}"}}'] = peak
        histograms = set()
        for tenant, latency in d["latency"].items():
            if tenant == "*":  # the aggregate is computed, not stored
                continue
            key = f'{{tenant="{tenant}"}}'
            histogram = snapshot[f"service_request_latency_seconds{key}"]
            assert histogram["count"] == latency["requests"], tenant
            assert histogram["sum"] * 1e3 == pytest.approx(
                latency["mean_ms"] * latency["requests"]
            )
            expected[f"service_request_latency_max_seconds{key}"] = (
                latency["max_ms"] / 1e3
            )
            histograms.add(f"service_request_latency_seconds{key}")
        for key, value in expected.items():
            assert snapshot[key] == pytest.approx(value), key
        assert d["requests_submitted"] == 2
        assert d["requests_completed"] == d["latency"]["*"]["requests"] == 1
        assert d["pairs_submitted"] == 6
        unchecked = {
            key
            for key in set(snapshot) - set(expected) - histograms
            if key.startswith("service_")
        }
        assert histograms == {'service_request_latency_seconds{tenant="alpha"}'}
        assert not unchecked


# --------------------------------------------------------------------------- #
# End-to-end tracing through the pipeline and the service
# --------------------------------------------------------------------------- #
class TestTracingIntegration:
    PAIRS = [("ACGTACGT", "ACGTTCGT")] * 10

    def test_pipeline_spans_cover_the_stage_tree(self):
        tracer = Tracer()
        pipeline = StreamingPipeline(wave_size=4, tracer=tracer)
        results = pipeline.align_pairs(self.PAIRS)
        assert len(results) == len(self.PAIRS)
        names = {record.name for record in tracer.records()}
        for required in (
            "stage.batch",
            "stage.align",
            "stage.emit",
            "align.wave",
            "wave.flush",
            "pipeline.run",
        ):
            assert required in names, required
        run = [r for r in tracer.records() if r.name == "pipeline.run"]
        assert run[0].attrs["candidates"] == len(self.PAIRS)
        waves = [r for r in tracer.records() if r.name == "align.wave"]
        assert [w.attrs["wave_id"] for w in waves] == list(range(len(waves)))

    def test_pipeline_traced_results_match_untraced(self):
        traced = StreamingPipeline(wave_size=4, tracer=Tracer())
        plain = StreamingPipeline(wave_size=4)
        got = traced.align_pairs(self.PAIRS)
        want = plain.align_pairs(self.PAIRS)
        assert [str(a.cigar) for a in got] == [str(a.cigar) for a in want]
        assert [a.edit_distance for a in got] == [a.edit_distance for a in want]

    def test_pipeline_without_tracer_records_nothing(self):
        pipeline = StreamingPipeline(wave_size=4)
        pipeline.align_pairs(self.PAIRS)
        assert pipeline.tracer is NULL_TRACER
        assert len(pipeline.tracer) == 0

    def test_service_records_request_spans(self):
        tracer = Tracer()
        service = AlignmentService(
            wave_size=4, autostart=False, linger_seconds=None, tracer=tracer
        )
        future = service.submit(self.PAIRS[:6], tenant="alpha")
        service.drain()
        assert len(future.result()) == 6
        service.close()
        records = tracer.records()
        submits = [r for r in records if r.name == "service.submit"]
        requests = [r for r in records if r.name == "service.request"]
        assert submits and submits[0].attrs["tenant"] == "alpha"
        (request,) = requests
        assert request.attrs == {"tenant": "alpha", "request_id": 0, "pairs": 6}
        assert request.duration >= 0.0

    def test_chrome_export_of_a_pipeline_run(self, tmp_path):
        tracer = Tracer(process_name="test-driver")
        StreamingPipeline(wave_size=4, tracer=tracer).align_pairs(self.PAIRS)
        path = write_chrome_trace(tmp_path / "pipeline.json", tracer)
        document = json.loads(path.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert "process_name" in names  # metadata track labels
        assert "pipeline.run" in names

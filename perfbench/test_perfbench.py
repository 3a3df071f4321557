"""Fast tests of the benchmark's own helpers (no timed runs)."""

from __future__ import annotations

import dataclasses
import json
import math
import threading
from concurrent.futures import Future
from pathlib import Path

import pytest

import repro.batch.engine as engine_module
import repro.core.genasm_tb as genasm_tb
import repro.pipeline.pipeline as pipeline_module
from perfbench import check, exact_counts, hostspeed, inputs, measure, stats
from perfbench.layers import LayerTrace
from perfbench.workloads import WORKLOADS
from repro.batch.engine import BatchAlignmentEngine, WaveDCState
from repro.io.sam import SamEmitter
from repro.mapping.mapper import Mapper
from repro.pipeline.batcher import WaveAccumulator
from repro.service.frontend import AlignmentService

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------- #
# Tail-percentile rule
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (99, None), (100, "90"), (999, "90"), (1000, "99"), (9999, "99"), (10000, "99.9")],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(expected, count) >= stats.MIN_BEYOND


def test_latency_summary_reads_measured_values_and_never_the_median():
    p50, q, tail = stats.latency_summary([float(v) for v in range(1, 1001)])
    assert (p50, q, tail) == (500.0, "99", 990.0)
    p50, q, tail = stats.latency_summary([float(v) for v in range(100, 0, -1)])
    assert (p50, q, tail) == (50.0, "90", 90.0)


def test_latency_summary_refuses_a_sample_too_small_for_a_tail():
    with pytest.raises(ValueError, match="tail"):
        stats.latency_summary([1.0] * 99)


# ---------------------------------------------------------------------- #
# Failure counting
# ---------------------------------------------------------------------- #
def test_failed_count_counts_infinite_latencies_and_wrong_answers():
    latencies = [3.0, math.inf, 5.0, math.inf]
    assert stats.failed_count(latencies) == 2
    assert stats.failed_count(latencies, wrong=1) == 3
    assert stats.failed_frac(3, 4) == 0.75
    assert stats.failed_frac(9, 4) == 1.0
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)


def test_failed_requests_push_the_tail_to_infinity():
    latencies = [1.0] * 985 + [math.inf] * 15
    p50, q, tail = stats.latency_summary(latencies)
    assert (p50, q) == (1.0, "99") and math.isinf(tail)


# ---------------------------------------------------------------------- #
# Host-speed normalization
# ---------------------------------------------------------------------- #
def test_nominal_clock_rescales_between_probes_and_leaves_out_probe_time():
    host = hostspeed.NominalClock()
    # Probes (start, end, slowness, CPU at start, CPU at end): 1 s each,
    # reading 2x, 2x and 0.5x, the process on the CPU between them.
    host.marks = [(0.0, 1.0, 2.0, 0.0, 0.0), (3.0, 4.0, 2.0, 2.0, 2.0), (6.0, 7.0, 0.5, 4.0, 4.0)]
    assert host.measured(6.0) == 4.0
    assert host.nominal(2.0) == 0.5  # 1 s at twice the nominal time
    assert host.nominal(6.0) == pytest.approx(1.0 + 2.0 / 1.25)
    assert host.nominal(5.0) - host.nominal(2.0) == pytest.approx(0.5 + 1.0 / 1.25)
    assert host.readings() == [2.0, 2.0, 0.5]
    for stamp in (0.5, 3.5, 7.5):  # before the first probe, inside one, after the last
        with pytest.raises(ValueError):
            host.nominal(stamp)


def test_nominal_clock_stretches_only_the_time_spent_on_the_cpu():
    host = hostspeed.NominalClock()
    # Half of the 2 s between the probes on the CPU, at twice nominal time.
    host.marks = [(0.0, 1.0, 2.0, 0.0, 0.0), (3.0, 4.0, 2.0, 1.0, 1.0)]
    assert host.nominal(3.0) == pytest.approx(1.0 + 1.0 / 2.0)
    assert host.measured(3.0) == 2.0


def test_nominal_clock_probes_only_once_the_interval_has_passed(monkeypatch):
    monkeypatch.setattr(hostspeed, "slowness", lambda: 1.0)
    host = hostspeed.NominalClock(interval=60.0)
    host.probe()
    host.maybe_probe()
    assert len(host.marks) == 1
    host.interval = 0.0
    host.maybe_probe()
    assert len(host.marks) == 2


def test_slowness_is_a_positive_ratio():
    assert hostspeed.slowness() > 0


# ---------------------------------------------------------------------- #
# Layer trace
# ---------------------------------------------------------------------- #
SEAMS = [
    (pipeline_module, "stream_reads"),
    (Mapper, "map_sequence"),
    (Mapper, "candidate_region_sequence"),
    (WaveAccumulator, "push"),
    (WaveAccumulator, "poll"),
    (WaveAccumulator, "flush"),
    (BatchAlignmentEngine, "align_pairs"),
    (engine_module, "SoAWave"),
    (engine_module, "run_dc_wave_state"),
    (engine_module, "build_wave_decisions"),
    (engine_module, "lockstep_traceback"),
    (genasm_tb, "genasm_traceback"),
    (WaveDCState, "table"),
    (SamEmitter, "emit_group"),
    (AlignmentService, "submit"),
]


def test_uninstall_restores_every_wrapped_attribute():
    originals = [vars(owner)[name] for owner, name in SEAMS]
    trace = LayerTrace()
    with trace:
        for (owner, name), original in zip(SEAMS, originals):
            assert vars(owner)[name] is not original, name
        with pytest.raises(RuntimeError):
            trace.install()
    for (owner, name), original in zip(SEAMS, originals):
        assert vars(owner)[name] is original, name


def test_trace_counts_engine_layers_from_outside():
    pairs = [("ACGTTGCA" * 12, "ACGTTGCA" * 13)] * 3
    trace = LayerTrace()
    with trace:
        alignments = BatchAlignmentEngine().align_pairs(pairs)
    values = trace.values
    assert values["batch.align.calls"] == 1
    assert values["batch.align.lanes"] == len(alignments) == 3
    assert values["batch.wave_build.calls"] == values["batch.dc_scan.calls"] >= 1
    assert values["batch.dc_scan.solved"] <= values["batch.dc_scan.lanes"]
    walked = values["batch.tb_walk.lanes"] + values["batch.tb_scalar.lanes"]
    assert walked == values["batch.dc_scan.solved"]
    assert values["batch.align.seconds"] >= values["batch.dc_scan.seconds"] > 0


# ---------------------------------------------------------------------- #
# Seeded inputs
# ---------------------------------------------------------------------- #
def _files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "GENOME_LENGTHS", {"chr1": 12_000, "chr2": 6_000})
    spec = dataclasses.replace(WORKLOADS[workload], reads=6)
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs.write_inputs(spec, seed, tmp_path / name)
    first, other = _files(tmp_path / "a"), _files(tmp_path / "c")
    assert first == _files(tmp_path / "b")
    assert first[inputs.READS_FILE] != other[inputs.READS_FILE]
    assert first[inputs.GENOME_FILE] == other[inputs.GENOME_FILE]  # fixed reference
    expected = {inputs.GENOME_FILE, inputs.READS_FILE}
    if spec.is_service:
        expected.add(inputs.TENANTS_FILE)
    assert set(first) == expected


def test_tenant_labels_are_seeded_and_round_trip_through_their_file(tmp_path):
    labels = inputs.tenant_labels(3, 400, 4)
    assert labels == inputs.tenant_labels(3, 400, 4)
    assert labels != inputs.tenant_labels(4, 400, 4)
    assert set(labels) == {f"tenant-{k}" for k in range(4)}
    inputs.write_tenants(tmp_path / "t.txt", labels)
    assert inputs.read_tenants(tmp_path / "t.txt") == labels


def test_benchmark_json_lists_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_exact_counts_are_batch_layer_counts_and_bytes():
    names = exact_counts()
    assert "batch.dc_scan.rows" in names and "io.sam.bytes" in names
    assert not any(n.endswith((".seconds", "_share", "_fill", "_yield")) for n in names)
    assert not any(n.startswith(("service.", "loadgen.")) for n in names)


# ---------------------------------------------------------------------- #
# Correctness verdict and the closed-loop clients
# ---------------------------------------------------------------------- #
def test_uneven_passes_flags_traced_passes_whose_counts_differ():
    counts = [None, {"a": 1, "b": 2}, None, {"a": 1, "b": 2, "c": 9}, {"a": 2, "b": 2}]
    assert check.uneven_passes(counts, ["a", "b"]) == [4]
    assert check.uneven_passes(counts, ["b"]) == []
    assert check.uneven_passes([None, None], ["a"]) == []


class StubService:
    """Answers at once, except the request kinds named in ``pairs``."""

    def __init__(self):
        self.outstanding = {}

    def submit(self, pairs, *, tenant):
        assert not self.outstanding.get(tenant), "a tenant sent before its reply"
        if pairs == ["refuse"]:
            raise RuntimeError("refused")
        future = Future()
        if pairs == ["hang"]:
            self.outstanding[tenant] = True
        elif pairs == ["error"]:
            future.set_exception(RuntimeError("failed"))
        else:
            future.set_result([])
        return future


class DelayedService:
    """Answers every request 2 ms after it was sent, from a timer thread."""

    def __init__(self):
        self.lock = threading.Lock()
        self.unresolved = 0

    def submit(self, pairs, *, tenant):
        future = Future()
        with self.lock:
            self.unresolved += 1

        def answer():
            with self.lock:
                self.unresolved -= 1
            future.set_result([])

        threading.Timer(0.002, answer).start()
        return future


def test_closed_loop_pauses_only_with_nothing_outstanding(monkeypatch):
    monkeypatch.setattr(measure, "SEGMENT_SECONDS", 0.02)
    service = DelayedService()
    outstanding_at_pause = []
    run = measure.closed_loop(
        service, [["ok"]] * 6, ["t0", "t1"] * 3, 0.1,
        pause=lambda: outstanding_at_pause.append(service.unresolved),
    )
    assert outstanding_at_pause and not any(outstanding_at_pause)
    assert run["completed"] == len(run["records"]) == len(run["stamps"])
    assert all(sent < resolved for sent, resolved in run["stamps"])


def test_closed_loop_keeps_one_request_per_tenant_and_fails_the_unanswered(monkeypatch):
    monkeypatch.setattr(measure, "GRACE_SECONDS", 0.05)
    requests = [["ok"], ["ok"], ["refuse"], ["error"], ["hang"]]
    tenants = ["t0", "t0", "t1", "t2", "t3"]
    run = measure.closed_loop(StubService(), requests, tenants, 0.05)
    by_request = {}
    for index, latency, response in run["records"]:
        by_request.setdefault(index, []).append((latency, response))
    assert [response for _, response in by_request[0]][:1] == [[]]
    assert all(math.isfinite(latency) for index in (0, 1) for latency, _ in by_request[index])
    for index in (2, 3, 4):
        assert all(math.isinf(latency) and response is None for latency, response in by_request[index])
    assert len(by_request[4]) == 1  # the hung request stayed its tenant's only one
    assert run["completed"] == len(by_request[0]) + len(by_request[1]) > 2
    assert stats.failed_count(latency for _, latency, _ in run["records"]) == (
        len(run["records"]) - run["completed"]
    )

"""Tests for the alignment-as-a-service front-end and its stats.

Covers two streaming-stats bugfixes (seeded flush causes in sync with the
docs, bounded wave-lane window with exact aggregates), the accumulator's
push-free timeout poll, and the service itself: byte-identical results
versus offline runs, round-robin fairness and per-tenant in-flight caps,
deterministic linger-timeout flushes under an injected clock, per-tenant
latency percentiles, and a failing wave that must fail only the requests
riding in it.
"""

from __future__ import annotations

import os
import random
import re
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.batch.engine import BatchAlignmentEngine
from repro.core.config import GenASMConfig
from repro.parallel.pool import WorkerPool
from repro.pipeline import FLUSH_CAUSES, PipelineStats, WaveAccumulator
from repro.pipeline.stats import WAVE_WINDOW
from repro.service import (
    LATENCY_WINDOW,
    AlignmentService,
    LatencyStats,
    ServiceStats,
    percentile,
)
from repro.telemetry import Tracer

CONFIG = GenASMConfig()


def _simulate_short_read_pairs(read_count, read_length, error_rate, seed):
    """Deterministic Illumina-like (read, reference-region) pairs."""
    rng = random.Random(seed)
    alphabet = "ACGT"
    pairs = []
    for _ in range(read_count):
        pattern = "".join(rng.choice(alphabet) for _ in range(read_length))
        text = list(pattern)
        for _ in range(max(1, int(read_length * error_rate))):
            position = rng.randrange(len(text)) if text else 0
            roll = rng.random()
            if not text:
                text.insert(0, rng.choice(alphabet))
            elif roll < 0.6:
                text[position] = rng.choice(alphabet)
            elif roll < 0.8:
                text.insert(position, rng.choice(alphabet))
            else:
                del text[position]
        pairs.append((pattern, "".join(text) + "ACGTAC"))
    return pairs


def offline_alignments(pairs, config=CONFIG):
    """The per-client reference: one independent vectorized offline run."""
    return BatchAlignmentEngine(config).align_pairs(pairs)


def assert_same_alignments(reference, got, context=""):
    assert len(reference) == len(got), context
    for want, have in zip(reference, got):
        assert str(want.cigar) == str(have.cigar), context
        assert want.edit_distance == have.edit_distance, context
        assert want.text_end == have.text_end, context


def run_sync(service, *futures):
    """Pump an ``autostart=False`` service until the given futures resolve."""
    for _ in range(10_000):
        if all(future.done() for future in futures):
            return
        service.pump(block=True)
    raise AssertionError("service made no progress")


# --------------------------------------------------------------------------- #
# Satellite bugfixes
# --------------------------------------------------------------------------- #
class TestStatsBugfixes:
    def test_flushes_seeded_with_every_documented_cause(self):
        stats = PipelineStats()
        assert set(stats.flushes) == set(FLUSH_CAUSES)
        # The original bug: reading a documented-but-untriggered cause
        # (e.g. "idle" on a run without service drains) raised KeyError.
        for cause in FLUSH_CAUSES:
            assert stats.flushes[cause] == 0

    def test_flushes_docstring_and_default_stay_in_sync(self):
        # Extract the causes named in the ``flushes`` attribute docs:
        # every ``cause`` token between "flushes:" and the next attribute.
        doc = PipelineStats.__doc__
        match = re.search(r"\n    flushes:\n(.*?)(?:\n    \S|\Z)", doc, re.DOTALL)
        assert match, "PipelineStats docstring lost its flushes section"
        documented = set(re.findall(r"``(\w+)``", match.group(1)))
        documented.discard("KeyError")
        assert documented == set(FLUSH_CAUSES)

    def test_wave_lane_counts_window_is_bounded(self):
        stats = PipelineStats(wave_size=4)
        full = WAVE_WINDOW + 100
        for _ in range(full):
            stats.record_wave(4, "size")
        for _ in range(50):
            stats.record_wave(2, "timeout")
        # The window keeps the most recent waves: the 50 partial ones last.
        assert len(stats.wave_lane_counts) == WAVE_WINDOW
        assert list(stats.wave_lane_counts)[-51:] == [4] + [2] * 50
        # Running aggregates stay exact over the whole run regardless of
        # the window: every full wave of 4 lanes + 50 partial waves of 2.
        assert stats.waves == full + 50
        assert stats.full_waves == full
        assert stats.wave_fill_efficiency == pytest.approx(
            (full * 4 + 50 * 2) / ((full + 50) * 4)
        )

    def test_merged_wave_counts_as_full_capacity(self):
        stats = PipelineStats(wave_size=4)
        stats.record_wave(6, "final")  # tail-merged wave, wider than wave_size
        assert stats.wave_fill_efficiency == 1.0


class TestAccumulatorPoll:
    def _accumulator(self, linger, now):
        return WaveAccumulator(
            wave_size=4, max_pending=64, linger_seconds=linger, clock=lambda: now[0]
        )

    def test_poll_flushes_expired_linger_without_a_push(self):
        now = [0.0]
        accumulator = self._accumulator(0.5, now)
        accumulator.push("a")
        accumulator.push("b")
        assert accumulator.poll() == []  # not yet expired
        assert accumulator.oldest_age() == pytest.approx(0.0)
        now[0] = 0.6
        assert accumulator.oldest_age() == pytest.approx(0.6)
        waves = accumulator.poll()
        assert waves == [["a", "b"]]
        assert len(accumulator) == 0
        assert accumulator.oldest_age() is None

    def test_poll_is_a_noop_without_linger_or_items(self):
        now = [0.0]
        assert self._accumulator(None, now).poll() == []
        accumulator = self._accumulator(None, now)
        accumulator.push("a")
        now[0] = 1e9
        assert accumulator.poll() == []  # no linger configured: never expires
        empty = self._accumulator(0.1, now)
        assert empty.poll() == []

    def test_poll_records_timeout_flush_cause(self):
        now = [0.0]
        stats = PipelineStats(wave_size=4)
        accumulator = WaveAccumulator(
            wave_size=4, linger_seconds=0.5, clock=lambda: now[0], stats=stats
        )
        accumulator.push("a")
        now[0] = 1.0
        accumulator.poll()
        assert stats.flushes["timeout"] == 1


# --------------------------------------------------------------------------- #
# The service front-end
# --------------------------------------------------------------------------- #
class TestAlignmentService:
    def test_single_request_matches_offline(self):
        pairs = _simulate_short_read_pairs(10, 180, 0.05, 1)
        with AlignmentService(
            CONFIG, wave_size=4, linger_seconds=None, autostart=False
        ) as service:
            future = service.submit(pairs, tenant="solo")
            run_sync(service, future)
            assert_same_alignments(offline_alignments(pairs), future.result())
        assert service.stats.requests_completed == 1
        assert service.stats.pairs_completed == len(pairs)

    def test_four_tenants_coalesce_and_stay_byte_identical(self):
        workloads = {
            f"tenant-{i}": _simulate_short_read_pairs(5 + i, 100 + 60 * i, 0.05, i)
            for i in range(4)
        }
        with AlignmentService(
            CONFIG, wave_size=8, linger_seconds=None, autostart=False
        ) as service:
            futures = {
                tenant: service.submit(pairs, tenant=tenant)
                for tenant, pairs in workloads.items()
            }
            run_sync(service, *futures.values())
            for tenant, pairs in workloads.items():
                assert_same_alignments(
                    offline_alignments(pairs), futures[tenant].result(), tenant
                )
        # The waves really were shared: fewer waves than requests' worth of
        # per-tenant partial waves (26 pairs / wave_size 8 → ~4 waves).
        assert service.stats.pipeline.waves < sum(
            -(-len(p) // 8) * 2 for p in workloads.values()
        )
        assert set(service.stats.latency.tenants()) == set(workloads)

    def test_round_robin_admission_prevents_starvation(self):
        # Tenant "big" queues 32 pairs before "small" queues 4; with fair
        # one-pair-per-tenant sweeps and a tight in-flight cap, the small
        # request must complete strictly before the big one.
        big = _simulate_short_read_pairs(32, 80, 0.05, 7)
        small = _simulate_short_read_pairs(4, 80, 0.05, 8)
        with AlignmentService(
            CONFIG,
            wave_size=4,
            linger_seconds=None,
            max_inflight_per_tenant=4,
            autostart=False,
        ) as service:
            big_future = service.submit(big, tenant="big")
            small_future = service.submit(small, tenant="small")
            run_sync(service, big_future, small_future)
            assert_same_alignments(offline_alignments(big), big_future.result())
            assert_same_alignments(offline_alignments(small), small_future.result())
        order = list(service.stats.completion_order)
        assert order.index(("small", 1)) < order.index(("big", 0))

    def test_per_tenant_inflight_cap_is_honored(self):
        pairs = _simulate_short_read_pairs(24, 90, 0.05, 3)
        with AlignmentService(
            CONFIG,
            wave_size=4,
            linger_seconds=None,
            max_inflight_per_tenant=6,
            autostart=False,
        ) as service:
            future = service.submit(pairs, tenant="capped")
            run_sync(service, future)
        assert service.stats.max_inflight["capped"] <= 6
        assert service.stats.pairs_admitted == len(pairs)

    def test_linger_timeout_flush_is_deterministic_with_injected_clock(self):
        now = [0.0]
        pairs = _simulate_short_read_pairs(2, 100, 0.05, 4)
        with AlignmentService(
            CONFIG,
            wave_size=64,
            linger_seconds=5.0,
            clock=lambda: now[0],
            autostart=False,
        ) as service:
            future = service.submit(pairs, tenant="slow")
            service.pump()  # admits both pairs; wave far from full, linger live
            assert not future.done()
            assert service.stats.pipeline.waves == 0
            now[0] = 5.0  # linger expires with no new arrivals
            service.pump()
            assert future.done()
            assert service.stats.pipeline.flushes["timeout"] == 1
            assert_same_alignments(offline_alignments(pairs), future.result())
            # Latency was measured on the injected clock: exactly 5s.
            assert service.stats.latency.summary("slow")["p50_ms"] == pytest.approx(
                5000.0
            )

    def test_latency_percentiles_recorded_per_tenant(self):
        with AlignmentService(
            CONFIG, wave_size=4, linger_seconds=None, autostart=False
        ) as service:
            futures = [
                service.submit(_simulate_short_read_pairs(3, 80, 0.05, i), tenant="t")
                for i in range(5)
            ]
            run_sync(service, *futures)
        summary = service.stats.latency.summary("t")
        assert summary["requests"] == 5
        for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"):
            assert summary[key] >= 0.0
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        assert "t" in service.stats.latency.as_dict()
        assert "*" in service.stats.latency.as_dict()

    def test_empty_request_resolves_immediately(self):
        with AlignmentService(CONFIG, autostart=False) as service:
            future = service.submit([], tenant="empty")
            assert future.done()
            assert future.result() == []
        assert service.stats.requests_completed == 1

    def test_submit_after_close_raises(self):
        service = AlignmentService(CONFIG, autostart=False)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit([("ACGT", "ACGT")])

    def test_threaded_dispatch_end_to_end(self):
        # The autostart daemon loop: concurrent client threads, real clock.
        workloads = [
            _simulate_short_read_pairs(6, 120 + 80 * i, 0.05, 20 + i) for i in range(3)
        ]
        results = [None] * len(workloads)
        with AlignmentService(CONFIG, wave_size=8, linger_seconds=0.005) as service:

            def client(slot):
                results[slot] = service.submit(
                    workloads[slot], tenant=f"client-{slot}"
                ).result(timeout=60)

            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(len(workloads))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for slot, pairs in enumerate(workloads):
            assert_same_alignments(offline_alignments(pairs), results[slot], str(slot))

    def test_validation(self):
        with pytest.raises(ValueError, match="max_inflight_per_tenant"):
            AlignmentService(CONFIG, max_inflight_per_tenant=-1, autostart=False)

    def test_aggregate_tenant_name_is_reserved(self):
        # "*" keys the cross-tenant aggregate in the latency report; a
        # tenant of that name would vanish into it.
        with AlignmentService(CONFIG, autostart=False) as service:
            with pytest.raises(ValueError, match="reserved"):
                service.submit([("ACGT", "ACGT")], tenant="*")
        assert service.stats.requests_submitted == 0


class TestWaveFailure:
    """A wave that raises fails its own requests; everything else is served."""

    MARKED = ("ACGTACGTACGT", "TTTTTTTTTTTT")

    def test_failed_wave_fails_its_requests_and_serves_the_rest(self, monkeypatch):
        original = BatchAlignmentEngine.align_pairs

        def align_pairs(engine, pairs, **kwargs):
            if self.MARKED in pairs:
                raise RuntimeError("marked pair")
            return original(engine, pairs, **kwargs)

        monkeypatch.setattr(BatchAlignmentEngine, "align_pairs", align_pairs)
        good = _simulate_short_read_pairs(4, 150, 0.05, 3)
        # One lane per wave, so the marked pair's wave carries no one else.
        service = AlignmentService(CONFIG, wave_size=1, linger_seconds=None)
        try:
            before = service.submit(good[:2], tenant="a")
            doomed = service.submit([good[2], self.MARKED], tenant="b")
            with pytest.raises(RuntimeError, match="marked pair"):
                doomed.result(timeout=10)
            after = service.submit(good[2:], tenant="c")
            want_a, want_c = offline_alignments(good[:2]), offline_alignments(good[2:])
            assert_same_alignments(want_a, before.result(timeout=10))
            assert_same_alignments(want_c, after.result(timeout=10))
        finally:
            service.close()
        assert all(future.done() for future in (before, doomed, after))

    def test_worker_death_fails_in_flight_requests_and_counts_them(self):
        served_pairs = _simulate_short_read_pairs(3, 150, 0.05, 5)
        doomed_pairs = _simulate_short_read_pairs(5, 150, 0.05, 6)
        executor = WorkerPool(workers=1, config=CONFIG)
        try:
            executor.warm(delay=0.0)
            service = AlignmentService(CONFIG, wave_size=4, executor=executor)
            served = [service.submit([pair], tenant="a") for pair in served_pairs]
            assert_same_alignments(
                offline_alignments(served_pairs),
                [future.result(timeout=60)[0] for future in served],
            )
            # Kill the pool's only worker; once its task has failed, the
            # pool is broken for every wave submitted after it.
            with pytest.raises(BrokenProcessPool):
                executor._pool.submit(os._exit, 1).result(timeout=60)
            doomed = [service.submit([pair], tenant="b") for pair in doomed_pairs]
            start = time.monotonic()
            service.close()
            assert time.monotonic() - start < 30
            for future in doomed:
                assert future.done()
                with pytest.raises(BrokenProcessPool):
                    future.result(timeout=0)
        finally:
            executor.close()
        stats = service.stats
        assert (stats.requests_submitted, stats.requests_completed) == (8, 3)
        assert stats.requests_failed == 5
        assert stats.as_dict()["requests_failed"] == 5
        assert "failed=5" in stats.summary()

    def test_worker_failure_reaches_the_request(self):
        # A bytes pattern fails in the worker, where the engine builds its
        # wave; the failure reaches that request, and the rest is served.
        good = _simulate_short_read_pairs(2, 150, 0.05, 4)
        with WorkerPool(workers=1, config=CONFIG) as executor:
            with AlignmentService(CONFIG, wave_size=1, executor=executor) as service:
                doomed = service.submit([(b"ACGTACGT", "ACGTACGT")], tenant="b")
                served = service.submit(good, tenant="a")
                with pytest.raises(AttributeError):
                    doomed.result(timeout=60)
                assert_same_alignments(
                    offline_alignments(good), served.result(timeout=60)
                )
        assert service.stats.requests_failed == 1


class TestCloseInFlight:
    def test_close_resolves_every_in_flight_request(self):
        workloads = [
            _simulate_short_read_pairs(3, 150, 0.05, 40 + index) for index in range(12)
        ]
        executor = WorkerPool(workers=2, config=CONFIG)
        try:
            executor.warm()
            service = AlignmentService(CONFIG, wave_size=4, executor=executor)
            futures = [
                service.submit(pairs, tenant=f"tenant-{index % 3}")
                for index, pairs in enumerate(workloads)
            ]
            start = time.monotonic()
            service.close()
            assert time.monotonic() - start < 30
            assert all(future.done() for future in futures)
            for pairs, future in zip(workloads, futures):
                assert_same_alignments(
                    offline_alignments(pairs), future.result(timeout=0)
                )
        finally:
            executor.close()
        stats = service.stats
        assert (stats.requests_submitted, stats.requests_completed) == (12, 12)


# --------------------------------------------------------------------------- #
# Latency stats primitives and the E3s experiment
# --------------------------------------------------------------------------- #
class TestTracedPool:
    def test_worker_spans_carry_the_dispatched_waves(self):
        # The service's align stage names each wave it sends; the worker's
        # span comes back with that wave's id and width.
        pairs = _simulate_short_read_pairs(6, 150, 0.05, 7)
        tracer = Tracer(process_name="service")
        with WorkerPool(workers=1, config=CONFIG, tracer=tracer) as executor:
            with AlignmentService(
                CONFIG, wave_size=4, executor=executor, tracer=tracer
            ) as service:
                served = service.submit(pairs, tenant="a")
                assert_same_alignments(
                    offline_alignments(pairs), served.result(timeout=60)
                )

        def waves(name):
            return sorted(
                (record.attrs["wave_id"], record.attrs["lanes"])
                for record in tracer.records()
                if record.name == name
            )

        assert waves("align.dispatch")
        assert waves("worker.align.wave") == waves("align.dispatch")


class TestLatencyPrimitives:
    def test_percentile_nearest_rank(self):
        samples = [0.01, 0.02, 0.03, 0.04, 0.05]
        assert percentile(samples, 50) == 0.03
        assert percentile(samples, 95) == 0.05
        assert percentile(samples, 0) == 0.01
        assert percentile([], 95) == 0.0
        with pytest.raises(ValueError):
            percentile(samples, 101)

    def test_percentile_range_checked_even_on_empty_input(self):
        # Regression: the empty-input early return used to skip the q
        # validation entirely, so a caller bug like percentile([], 200)
        # silently returned 0.0 instead of raising.
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([], 200)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([], -1)

    def test_latency_window_bounded_with_exact_aggregates(self):
        stats = LatencyStats()
        count = LATENCY_WINDOW + 6
        for i in range(count):
            stats.record("t", float(i))
        assert stats.count("t") == count
        summary = stats.summary("t")
        assert summary["requests"] == count
        assert summary["max_ms"] == pytest.approx((count - 1) * 1000.0)
        assert summary["mean_ms"] == pytest.approx((count - 1) / 2 * 1000.0)
        # Percentiles describe the bounded recent window (6..count - 1):
        # its nearest-rank median is its (LATENCY_WINDOW / 2)-th sample.
        median = 6 + LATENCY_WINDOW // 2 - 1
        assert summary["p50_ms"] == pytest.approx(median * 1000.0)


class TestConcurrentStats:
    """Client threads and the dispatcher complete requests concurrently."""

    THREADS = 8
    TENANTS = 3000

    def _round(self) -> None:
        # Every thread completes one request per fresh tenant, so each
        # tenant's first sample is raced by all eight threads at once.
        stats = ServiceStats()
        tenants = [f"tenant-{index}" for index in range(self.TENANTS)]
        start = threading.Barrier(self.THREADS)

        def complete():
            start.wait()
            for request_id, tenant in enumerate(tenants):
                stats.record_request_done(tenant, request_id, 0.001, 1)

        workers = [threading.Thread(target=complete) for _ in range(self.THREADS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
        expected = self.THREADS * self.TENANTS
        assert stats.requests_completed == stats.latency.count() == expected
        latency = stats.latency.as_dict()
        assert [t for t in tenants if latency[t]["requests"] != self.THREADS] == []

    def test_concurrent_completions_lose_no_latency_samples(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            deadline = time.monotonic() + 3.0
            for _ in range(100):
                self._round()
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(previous)

"""Tests for the GPU execution model and the batch executor."""

import pytest

from repro.core.config import GenASMConfig
from repro.gpu.device import A6000, RTX_3090, XEON_GOLD_5118
from repro.gpu.kernel import GenASMKernelSpec, KernelCost
from repro.gpu.simulator import CpuModel, GpuSimulator
from repro.parallel.executor import BatchExecutor, Stopwatch
from tests.conftest import mutate, random_dna


def _make_pairs(rng, count=4, length=400):
    pairs = []
    for _ in range(count):
        pattern = random_dna(rng, length)
        text = mutate(rng, pattern, length // 10) + random_dna(rng, 8)
        pairs.append((pattern, text))
    return pairs


class TestDeviceSpecs:
    def test_a6000_peak_throughput(self):
        assert A6000.peak_word_ops_per_second > 5e12
        assert A6000.concurrent_threads == 84 * 1536

    def test_cpu_threads(self):
        assert XEON_GOLD_5118.hardware_threads == 48
        assert XEON_GOLD_5118.physical_cores == 24

    def test_gpu_specs_distinct(self):
        assert RTX_3090.global_bandwidth > A6000.global_bandwidth


class TestKernelSpec:
    def test_profile_pair_returns_functional_alignment(self, rng):
        spec = GenASMKernelSpec(GenASMConfig())
        pattern = random_dna(rng, 300)
        text = mutate(rng, pattern, 20) + "ACGT"
        profile = spec.profile_pair(pattern, text)
        profile.alignment.validate()
        assert profile.cost.compute_ops > 0
        assert profile.cost.working_set_bytes > 0

    def test_baseline_working_set_larger(self, rng):
        pairs = _make_pairs(rng, count=2)
        improved = GenASMKernelSpec(GenASMConfig(), name="improved").profile_batch(pairs)
        baseline = GenASMKernelSpec(GenASMConfig.baseline(), name="baseline").profile_batch(pairs)
        assert baseline[0].cost.working_set_bytes > improved[0].cost.working_set_bytes
        assert baseline[0].cost.dp_bytes > improved[0].cost.dp_bytes

    def test_fits_in_shared_decision(self):
        spec = GenASMKernelSpec(GenASMConfig())
        assert spec.fits_in_shared(A6000, 4_000)
        assert not spec.fits_in_shared(A6000, 80_000)
        assert not spec.fits_in_shared(A6000, 200_000)

    def test_kernel_cost_merge(self):
        a = KernelCost(compute_ops=10, dp_bytes=5, io_bytes=2, working_set_bytes=100)
        b = KernelCost(compute_ops=20, dp_bytes=5, io_bytes=3, working_set_bytes=50)
        a.merge(b)
        assert a.compute_ops == 30
        assert a.working_set_bytes == 100


class TestSimulator:
    @pytest.fixture(scope="class")
    def profiles(self):
        import random

        rng = random.Random(77)
        pairs = _make_pairs(rng, count=3, length=600)
        improved = GenASMKernelSpec(GenASMConfig(), name="genasm-gpu-improved")
        baseline = GenASMKernelSpec(GenASMConfig.baseline(), name="genasm-gpu-baseline")
        return (
            pairs,
            improved,
            baseline,
            improved.profile_batch(pairs),
            baseline.profile_batch(pairs),
        )

    def test_improved_kernel_fits_shared_and_is_compute_bound(self, profiles):
        pairs, improved, _, improved_profiles, _ = profiles
        result = GpuSimulator(A6000).simulate(
            pairs, improved, profiles=improved_profiles, workload_multiplier=10_000
        )
        assert result.dp_in_shared
        assert result.bound == "compute"

    def test_baseline_kernel_spills_to_global_and_is_memory_bound(self, profiles):
        pairs, _, baseline, _, baseline_profiles = profiles
        result = GpuSimulator(A6000).simulate(
            pairs, baseline, profiles=baseline_profiles, workload_multiplier=10_000
        )
        assert not result.dp_in_shared
        assert result.bound == "memory"

    def test_improved_gpu_faster_than_baseline_gpu(self, profiles):
        pairs, improved, baseline, improved_profiles, baseline_profiles = profiles
        gpu = GpuSimulator(A6000)
        fast = gpu.simulate(pairs, improved, profiles=improved_profiles, workload_multiplier=10_000)
        slow = gpu.simulate(pairs, baseline, profiles=baseline_profiles, workload_multiplier=10_000)
        assert fast.speedup_over(slow) > 2.0

    def test_gpu_faster_than_cpu_at_scale(self, profiles):
        pairs, improved, _, improved_profiles, _ = profiles
        gpu = GpuSimulator(A6000).simulate(
            pairs, improved, profiles=improved_profiles, workload_multiplier=50_000
        )
        cpu = CpuModel(XEON_GOLD_5118).simulate(
            pairs, improved, profiles=improved_profiles, workload_multiplier=50_000
        )
        speedup = gpu.speedup_over(cpu)
        assert 1.5 < speedup < 20.0

    def test_simulated_alignments_match_cpu_library(self, profiles):
        pairs, improved, baseline, improved_profiles, baseline_profiles = profiles
        for a, b in zip(improved_profiles, baseline_profiles):
            assert a.alignment.edit_distance == b.alignment.edit_distance

    def test_summary_and_throughput(self, profiles):
        pairs, improved, _, improved_profiles, _ = profiles
        result = GpuSimulator(A6000).simulate(pairs, improved, profiles=improved_profiles)
        summary = result.summary()
        assert summary["device"] == A6000.name
        assert result.pairs_per_second > 0

    def test_cpu_thread_scaling(self, profiles):
        pairs, improved, _, improved_profiles, _ = profiles
        full = CpuModel(XEON_GOLD_5118, threads=48).simulate(
            pairs, improved, profiles=improved_profiles, workload_multiplier=1_000
        )
        half = CpuModel(XEON_GOLD_5118, threads=24).simulate(
            pairs, improved, profiles=improved_profiles, workload_multiplier=1_000
        )
        assert half.estimated_seconds > full.estimated_seconds


class TestParallel:
    def test_stopwatch_measures_elapsed(self):
        with Stopwatch() as watch:
            sum(range(10_000))
        assert watch.elapsed > 0

    def test_stopwatch_requires_start(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            watch.stop()

    def test_run_alignments_times_the_batch(self, rng):
        pairs = _make_pairs(rng, count=3, length=120)
        config = GenASMConfig()
        result = BatchExecutor().run_alignments(pairs, config, name="timed")
        assert result.name == "timed"
        assert result.backend == "serial" and result.workers == 1
        assert result.items == len(result.results) == 3
        assert result.elapsed_seconds > 0
        assert result.items_per_second == pytest.approx(3 / result.elapsed_seconds)
        assert result.metadata["config"] is config

    def test_invalid_workers_raise(self):
        with pytest.raises(ValueError):
            BatchExecutor(workers=0)

    def test_speedup_over(self):
        from repro.parallel.executor import BatchResult

        fast = BatchResult(results=[], elapsed_seconds=1.0, items=100)
        slow = BatchResult(results=[], elapsed_seconds=2.0, items=100)
        assert fast.speedup_over(slow) == pytest.approx(2.0)

    def test_speedup_over_degenerate_timings_stay_finite_or_directional(self):
        # Regression: two zero-elapsed runs used to produce inf / inf = nan.
        from repro.parallel.executor import BatchResult

        instant_a = BatchResult(results=[], elapsed_seconds=0.0, items=100)
        instant_b = BatchResult(results=[], elapsed_seconds=0.0, items=100)
        timed = BatchResult(results=[], elapsed_seconds=1.0, items=100)
        assert instant_a.speedup_over(instant_b) == 1.0
        assert instant_a.speedup_over(instant_a) == 1.0
        assert instant_a.speedup_over(timed) == float("inf")
        assert timed.speedup_over(instant_a) == 0.0
        # Empty batches time out at 0 items / ~0 seconds too.
        empty_a = BatchResult(results=[], elapsed_seconds=0.0, items=0)
        empty_b = BatchResult(results=[], elapsed_seconds=0.0, items=0)
        assert empty_a.speedup_over(empty_b) == 1.0
        # Real empty batches: 0 items over a measurable elapsed time used
        # to raise ZeroDivisionError (0.0 / 0.0 throughputs).
        empty_timed_a = BatchResult(results=[], elapsed_seconds=0.002, items=0)
        empty_timed_b = BatchResult(results=[], elapsed_seconds=0.003, items=0)
        assert empty_timed_a.speedup_over(empty_timed_b) == 1.0
        assert timed.speedup_over(empty_timed_a) == float("inf")
        assert empty_timed_a.speedup_over(timed) == 0.0
        # Mixed pairing follows throughput (inf for instantaneous runs,
        # 0.0 for zero-item timed runs), not item counts.
        assert empty_a.speedup_over(empty_timed_a) == float("inf")
        assert empty_timed_a.speedup_over(empty_a) == 0.0

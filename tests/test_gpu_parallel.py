"""Tests for the GPU execution model."""

import pytest

from repro.core.config import GenASMConfig
from repro.gpu.device import A6000, RTX_3090, XEON_GOLD_5118
from repro.gpu.kernel import GenASMKernelSpec, KernelCost
from repro.gpu.simulator import CpuModel, GpuSimulator
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


class TestOccupancy:
    """Resident thread slots per SM, out of ``max_threads_per_sm``."""

    def test_block_limit_bounds_occupancy_without_a_working_set(self):
        kernel = GenASMKernelSpec(GenASMConfig())
        # 16 blocks of one 32-thread warp fill 512 of the 1536 slots.
        assert GpuSimulator(A6000).occupancy(kernel, 0) == pytest.approx(512 / 1536)

    def test_on_chip_memory_caps_resident_blocks(self):
        kernel = GenASMKernelSpec(GenASMConfig())
        simulator = GpuSimulator(A6000)
        # 12.5 KiB per block: eight copies fill the SM's 100 KiB.
        assert kernel.fits_in_shared(A6000, 12_800)
        assert simulator.occupancy(kernel, 12_800) == pytest.approx(8 * 32 / 1536)
        # A small working set leaves the block limit in charge.
        assert simulator.occupancy(kernel, 4_000) == pytest.approx(16 * 32 / 1536)

    def test_spilled_working_set_does_not_limit_occupancy(self):
        kernel = GenASMKernelSpec(GenASMConfig())
        simulator = GpuSimulator(A6000)
        assert not kernel.fits_in_shared(A6000, 80_000)
        assert simulator.occupancy(kernel, 80_000) == simulator.occupancy(kernel, 0)


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


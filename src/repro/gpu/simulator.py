"""Roofline-style execution simulation of GenASM kernels on GPU and CPU.

The simulator answers one question: *given the measured per-pair work of a
GenASM configuration, how long would the paper's hardware take to run the
batch?*  It combines

* a compute roof — total 64-bit bitvector operations divided by the
  device's integer throughput, discounted by the achieved occupancy;
* a memory roof — total off-chip traffic divided by the device's DRAM
  bandwidth;

and reports the larger of the two (plus a fixed kernel-launch overhead for
GPUs).  The crucial modelling decision mirrors the paper's mechanism:
whether a configuration's per-problem DP working set fits on-chip decides
whether its DP traffic counts toward the memory roof at all.

The optional warp-lockstep refinement reuses the lane layout of the
vectorized CPU batch engine (:mod:`repro.batch`): one alignment problem per
warp lane, so a warp's lanes run in lockstep and the issued compute work is
the per-warp maximum.  :meth:`GpuSimulator.warp_divergence` exposes the
divergence statistics and ``simulate(..., warp_lockstep=True)`` folds them
into the compute roof.

The simulation is *functional*: every pair is actually aligned by the CPU
implementation while being profiled, so the simulated kernels return real
alignments (identical to the library's CPU results) alongside the timing
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.batch.soa import lockstep_stats
from repro.core.alignment import Alignment
from repro.gpu.device import A6000, XEON_GOLD_5118, CpuSpec, GpuSpec
from repro.gpu.kernel import GenASMKernelSpec, KernelCost, PairProfile

__all__ = ["SimulationResult", "GpuSimulator", "CpuModel"]

#: Fixed cost of launching the kernel and staging buffers (seconds).
KERNEL_LAUNCH_OVERHEAD_S = 1.0e-4
#: Fraction of peak integer throughput a well-tuned kernel sustains.
GPU_COMPUTE_EFFICIENCY = 0.55
#: Fraction of peak DRAM bandwidth sustained under the kernel's access pattern.
GPU_BANDWIDTH_EFFICIENCY = 0.70
#: Sustained fractions for the CPU model (vectorised, multi-threaded code).
CPU_COMPUTE_EFFICIENCY = 0.45
CPU_BANDWIDTH_EFFICIENCY = 0.60


@dataclass
class SimulationResult:
    """Outcome of simulating one batch on one device."""

    device: str
    kernel: str
    pairs: int
    estimated_seconds: float
    compute_seconds: float
    memory_seconds: float
    bound: str
    occupancy: float
    dp_in_shared: bool
    total_cost: KernelCost
    #: fraction of lockstep execution slots doing useful work (1.0 when the
    #: warp-divergence model is not applied)
    lane_efficiency: float = 1.0
    alignments: List[Alignment] = field(default_factory=list)

    @property
    def pairs_per_second(self) -> float:
        """Simulated alignment throughput."""
        if self.estimated_seconds <= 0:
            return float("inf")
        return self.pairs / self.estimated_seconds

    def speedup_over(self, other: "SimulationResult") -> float:
        """How much faster this result is than ``other``."""
        return other.estimated_seconds / self.estimated_seconds

    def summary(self) -> Dict[str, object]:
        """Plain-dict summary used by reports."""
        return {
            "device": self.device,
            "kernel": self.kernel,
            "pairs": self.pairs,
            "estimated_seconds": self.estimated_seconds,
            "pairs_per_second": self.pairs_per_second,
            "bound": self.bound,
            "occupancy": round(self.occupancy, 3),
            "dp_in_shared": self.dp_in_shared,
            "lane_efficiency": round(self.lane_efficiency, 3),
        }


class GpuSimulator:
    """Simulate a GenASM kernel batch on a GPU specification."""

    def __init__(self, spec: GpuSpec = A6000) -> None:
        self.spec = spec

    # ------------------------------------------------------------------ #
    def occupancy(self, kernel: GenASMKernelSpec, working_set_bytes: float) -> float:
        """Fraction of the device's thread slots the kernel can keep resident."""
        spec = self.spec
        blocks_by_limit = spec.max_blocks_per_sm
        if working_set_bytes > 0:
            in_shared = kernel.fits_in_shared(spec, working_set_bytes)
            if in_shared:
                blocks_by_shared = max(1, int(spec.shared_memory_per_sm // working_set_bytes))
                blocks_by_limit = min(blocks_by_limit, blocks_by_shared)
            # When the working set lives in global memory, shared memory does
            # not constrain occupancy (but the kernel becomes bandwidth bound).
        resident_threads = min(
            blocks_by_limit * spec.threads_per_block, spec.max_threads_per_sm
        )
        return resident_threads / spec.max_threads_per_sm

    def warp_divergence(
        self,
        profiles: Sequence[PairProfile],
        *,
        warp_size: Optional[int] = None,
        schedule: str = "fifo",
    ) -> Dict[str, float]:
        """Warp-level lockstep model over a profiled batch.

        The kernel assigns one alignment problem per warp lane (the same
        lane layout the vectorized CPU engine in :mod:`repro.batch` uses),
        so lanes of a warp execute in lockstep and every lane waits for the
        warp's most expensive problem.  Reuses
        :func:`repro.batch.soa.lockstep_stats` over the profiled per-pair
        compute work; ``efficiency`` is the fraction of issued lockstep
        slots doing useful work.

        ``schedule`` mirrors the CPU batch engine's wave scheduler:
        ``"fifo"`` fills warps in submission order, ``"sorted"`` orders
        problems by per-pair work first (the
        :meth:`repro.batch.BatchAlignmentEngine.schedule` policy), which
        packs similarly-sized problems into the same warp and raises
        lockstep efficiency on mixed-length batches.
        """
        if schedule not in ("fifo", "sorted"):
            raise ValueError(f"schedule must be 'fifo' or 'sorted', got {schedule!r}")
        warp = warp_size if warp_size is not None else self.spec.warp_size
        work = [p.cost.compute_ops for p in profiles]
        if schedule == "sorted":
            work = sorted(work)
        return lockstep_stats(work, warp)

    def simulate(
        self,
        pairs: Sequence[Tuple[str, str]],
        kernel: Optional[GenASMKernelSpec] = None,
        *,
        profiles: Optional[List[PairProfile]] = None,
        keep_alignments: bool = True,
        workload_multiplier: float = 1.0,
        warp_lockstep: bool = False,
        warp_schedule: str = "fifo",
    ) -> SimulationResult:
        """Profile (or reuse profiles of) a batch and estimate its GPU runtime.

        ``workload_multiplier`` scales the profiled batch to a larger
        workload of the same composition (the per-pair cost model is
        linear); the experiment harness uses it to extrapolate a profiled
        sample to the paper's 138,929-pair dataset.  ``warp_lockstep``
        additionally charges the compute roof for warp divergence: lanes of
        a warp (one problem per lane, the :mod:`repro.batch` layout) run in
        lockstep, so the issued work is the per-warp maximum, not the mean.
        ``warp_schedule`` selects how problems are packed into warps for
        that divergence charge (``"fifo"``, or ``"sorted"`` — the order the
        CPU engine cuts waves in).
        """
        if warp_schedule not in ("fifo", "sorted"):
            raise ValueError(
                f"warp_schedule must be 'fifo' or 'sorted', got {warp_schedule!r}"
            )
        kernel = kernel or GenASMKernelSpec()
        if profiles is None:
            profiles = kernel.profile_batch(list(pairs))

        total = KernelCost()
        for profile in profiles:
            total.merge(profile.cost)
        total.compute_ops *= workload_multiplier
        total.dp_bytes *= workload_multiplier
        total.io_bytes *= workload_multiplier

        in_shared = kernel.fits_in_shared(self.spec, total.working_set_bytes)
        occupancy = self.occupancy(kernel, total.working_set_bytes)

        lane_efficiency = 1.0
        if warp_lockstep and profiles:
            stats = self.warp_divergence(profiles, schedule=warp_schedule)
            lane_efficiency = max(1e-3, stats["efficiency"])

        compute_rate = self.spec.peak_word_ops_per_second * GPU_COMPUTE_EFFICIENCY
        compute_seconds = total.compute_ops / (
            compute_rate * max(occupancy, 1e-3) * lane_efficiency
        )

        offchip_bytes = total.io_bytes + (0.0 if in_shared else total.dp_bytes)
        bandwidth = self.spec.global_bandwidth * GPU_BANDWIDTH_EFFICIENCY
        memory_seconds = offchip_bytes / bandwidth

        estimated = max(compute_seconds, memory_seconds) + KERNEL_LAUNCH_OVERHEAD_S
        return SimulationResult(
            device=self.spec.name,
            kernel=kernel.name,
            pairs=int(len(profiles) * workload_multiplier),
            estimated_seconds=estimated,
            compute_seconds=compute_seconds,
            memory_seconds=memory_seconds,
            bound="memory" if memory_seconds > compute_seconds else "compute",
            occupancy=occupancy,
            dp_in_shared=in_shared,
            lane_efficiency=lane_efficiency,
            total_cost=total,
            alignments=[p.alignment for p in profiles] if keep_alignments else [],
        )


class CpuModel:
    """The same roofline model applied to the paper's CPU platform.

    The CPU counterpart differs from the GPU in two ways: its integer
    throughput is far lower (48 threads vs. ~10k resident GPU threads), and
    per-problem DP working sets that are small enough live in the private
    caches, so only oversized working sets generate DRAM traffic.
    """

    def __init__(self, spec: CpuSpec = XEON_GOLD_5118, threads: Optional[int] = None) -> None:
        self.spec = spec
        self.threads = threads if threads is not None else spec.hardware_threads

    def simulate(
        self,
        pairs: Sequence[Tuple[str, str]],
        kernel: Optional[GenASMKernelSpec] = None,
        *,
        profiles: Optional[List[PairProfile]] = None,
        keep_alignments: bool = True,
        workload_multiplier: float = 1.0,
    ) -> SimulationResult:
        """Estimate the batch runtime on the CPU platform."""
        kernel = kernel or GenASMKernelSpec()
        if profiles is None:
            profiles = kernel.profile_batch(list(pairs))

        total = KernelCost()
        for profile in profiles:
            total.merge(profile.cost)
        total.compute_ops *= workload_multiplier
        total.dp_bytes *= workload_multiplier
        total.io_bytes *= workload_multiplier

        thread_fraction = min(1.0, self.threads / self.spec.hardware_threads)
        compute_rate = (
            self.spec.peak_word_ops_per_second * CPU_COMPUTE_EFFICIENCY * thread_fraction
        )
        compute_seconds = total.compute_ops / compute_rate

        fits_in_cache = total.working_set_bytes <= self.spec.l2_cache_per_core
        offchip_bytes = total.io_bytes + (0.0 if fits_in_cache else total.dp_bytes)
        bandwidth = self.spec.dram_bandwidth * CPU_BANDWIDTH_EFFICIENCY
        memory_seconds = offchip_bytes / bandwidth

        estimated = max(compute_seconds, memory_seconds)
        return SimulationResult(
            device=f"{self.spec.name} ({self.threads} threads)",
            kernel=kernel.name,
            pairs=int(len(profiles) * workload_multiplier),
            estimated_seconds=estimated,
            compute_seconds=compute_seconds,
            memory_seconds=memory_seconds,
            bound="memory" if memory_seconds > compute_seconds else "compute",
            occupancy=thread_fraction,
            dp_in_shared=fits_in_cache,
            total_cost=total,
            alignments=[p.alignment for p in profiles] if keep_alignments else [],
        )

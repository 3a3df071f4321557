"""Hardware descriptions used by the execution-model simulator.

The specifications mirror the paper's evaluation platform: an NVIDIA RTX
A6000 (GA102: 84 SMs, 128 CUDA cores per SM, 100 KiB usable shared memory
per SM, ~768 GB/s GDDR6 bandwidth) and a dual-socket Intel Xeon Gold 5118
(2 × 12 physical cores / 48 hardware threads, ~256 GB/s aggregate DRAM
bandwidth of the two sockets' six DDR4-2400 channels each).

Only the quantities the roofline model needs are captured; everything else
about the devices is irrelevant to the mechanism under study (whether the
GenASM DP working set fits on-chip, and the resulting compute/bandwidth
limits).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GpuSpec", "CpuSpec", "A6000", "RTX_3090", "XEON_GOLD_5118"]


@dataclass(frozen=True)
class GpuSpec:
    """A CUDA-style GPU for the execution model.

    Attributes
    ----------
    sm_count, cores_per_sm:
        Streaming multiprocessors and scalar cores per SM.
    clock_hz:
        Sustained SM clock.
    shared_memory_per_sm:
        Usable shared memory (bytes) per SM.
    max_shared_per_block:
        Largest shared-memory allocation a single block may make.
    max_blocks_per_sm, max_threads_per_sm:
        Occupancy limits.
    warp_size, threads_per_block:
        Execution granularity; the GenASM kernel uses one warp per
        alignment problem (Scrooge's layout).
    global_bandwidth:
        Device-memory bandwidth in bytes/s.
    word_ops_per_cycle_per_core:
        64-bit bitwise/ALU operations retired per core per cycle (the
        GenASM inner loop is pure integer work).
    """

    name: str
    sm_count: int
    cores_per_sm: int
    clock_hz: float
    shared_memory_per_sm: int
    max_shared_per_block: int
    max_blocks_per_sm: int
    max_threads_per_sm: int
    warp_size: int
    threads_per_block: int
    global_bandwidth: float
    word_ops_per_cycle_per_core: float = 0.5

    @property
    def peak_word_ops_per_second(self) -> float:
        """Peak 64-bit integer operation throughput of the whole device."""
        return (
            self.sm_count
            * self.cores_per_sm
            * self.clock_hz
            * self.word_ops_per_cycle_per_core
        )


@dataclass(frozen=True)
class CpuSpec:
    """A multicore CPU for the execution model (the paper's Xeon baseline).

    ``word_ops_per_cycle_per_core`` credits the CPU implementation with
    AVX-512 vectorisation (eight 64-bit lanes, roughly one such operation
    sustained per cycle), which is how the paper's CPU GenASM processes
    multiple windows per core in parallel.
    """

    name: str
    sockets: int
    cores_per_socket: int
    threads_per_core: int
    clock_hz: float
    l2_cache_per_core: int
    dram_bandwidth: float
    word_ops_per_cycle_per_core: float = 8.0

    @property
    def hardware_threads(self) -> int:
        return self.sockets * self.cores_per_socket * self.threads_per_core

    @property
    def physical_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def peak_word_ops_per_second(self) -> float:
        """Peak 64-bit integer operation throughput across all cores."""
        return self.physical_cores * self.clock_hz * self.word_ops_per_cycle_per_core


#: The GPU used in the paper's evaluation.
A6000 = GpuSpec(
    name="NVIDIA RTX A6000",
    sm_count=84,
    cores_per_sm=128,
    clock_hz=1.41e9,
    shared_memory_per_sm=100 * 1024,
    max_shared_per_block=99 * 1024,
    max_blocks_per_sm=16,
    max_threads_per_sm=1536,
    warp_size=32,
    threads_per_block=32,
    global_bandwidth=768e9,
)

#: A consumer GA102 part, provided for sensitivity studies.
RTX_3090 = GpuSpec(
    name="NVIDIA RTX 3090",
    sm_count=82,
    cores_per_sm=128,
    clock_hz=1.40e9,
    shared_memory_per_sm=100 * 1024,
    max_shared_per_block=99 * 1024,
    max_blocks_per_sm=16,
    max_threads_per_sm=1536,
    warp_size=32,
    threads_per_block=32,
    global_bandwidth=936e9,
)

#: The CPU used in the paper's evaluation (dual socket, 48 threads).
XEON_GOLD_5118 = CpuSpec(
    name="2x Intel Xeon Gold 5118",
    sockets=2,
    cores_per_socket=12,
    threads_per_core=2,
    clock_hz=3.2e9,
    l2_cache_per_core=1024 * 1024,
    dram_bandwidth=256e9,
)

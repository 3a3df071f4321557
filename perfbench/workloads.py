"""The benchmark's workloads: what each one feeds the program, and why.

Every size here is fixed; only ``--seed`` (which inputs) and ``--seconds``
(how long to measure) vary between runs.  ``README.md`` records what each workload is for and which
layers it loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: The reference of every workload and seed: two chromosomes with the
#: generator's default repeat content (10 % of each chromosome overwritten
#: by 2 kb copies diverged by 2 %), so the all-chains mapper reports
#: several candidates for reads drawn from repeats.  Like a real reference
#: it is fixed; ``--seed`` draws the reads and the tenants.
GENOME_LENGTHS = {"chr1": 200_000, "chr2": 100_000}
GENOME_SEED = 0

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: The warm-up call that closes each set-up aligns one read of this many
#: bases copied from the start of the reference: the same small cost on
#: every seed, unlike a simulated read that may need deep budget retries.
WARMUP_BASES = 150


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"batch"`` (FASTQ → ``StreamingPipeline`` → SAM, repeated
    in passes over the same file) or ``"service"`` (closed-loop requests
    to ``AlignmentService``, one 150 bp read per request).  ``reads`` is
    the FASTQ size: one batch pass, or the service's request corpus, which
    ``tenants`` clients cycle through for the run's ``--seconds``.
    """

    name: str
    kind: str
    read_model: str
    config: str
    reads: int
    tenants: int = 0
    #: reads whose pairs the correctness check re-aligns with the scalar
    #: aligner
    sample_reads: int = 0

    @property
    def is_service(self) -> bool:
        return self.kind == "service"

    def genasm_config(self):
        from repro.core.config import GenASMConfig

        if self.config == "short_read":
            return GenASMConfig.short_read(150)
        return GenASMConfig()


WORKLOADS: Dict[str, Workload] = {
    spec.name: spec
    for spec in (
        # PacBio-CLR-like ~1 kb reads: the paper's data shape, multi-window
        # and retry-heavy.  256 reads (≈ 350 candidate pairs) keep a pass
        # near 7 s on one core; fewer would let the seed's share of reads
        # from repeats move the work per pass by more than the bound.  A
        # pass stays under the pipeline's backpressure bound of 512
        # pending pairs, so every read waits for the end-of-pass flush:
        # latency here is bounded by the pass and tracks reads_per_s.
        Workload(
            name="long_read_clr",
            kind="batch",
            read_model="clr",
            config="default",
            reads=256,
            sample_reads=16,
        ),
        # Illumina-like 150 bp reads, one 3-word window per read: mapping
        # carries a large share of the time and the engine barely retries.
        # 1,536 reads (≈ 2,900 candidate pairs) cross the pipeline's
        # backpressure bound of 512 pending pairs five times a pass, so
        # per-read latency comes from waves cut mid-stream, not from the
        # end-of-pass flush.
        Workload(
            name="short_read",
            kind="batch",
            read_model="illumina",
            config="short_read",
            reads=1536,
            sample_reads=48,
        ),
        # Four tenants, each a client that sends its next request (one
        # 150 bp read's candidate pairs) as soon as its previous one
        # resolves, cycling through its share of a 1,024-read corpus.
        Workload(
            name="service_closed_loop",
            kind="service",
            read_model="illumina",
            config="short_read",
            reads=1024,
            tenants=4,
        ),
    )
}

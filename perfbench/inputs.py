"""Seeded benchmark inputs, written to files before anything is timed.

Runs in its own process (``python -m perfbench.inputs``) so the memory it
uses never shows in the measured process's ``peak_rss_mb``.  It writes:

* ``genome.fa`` — the reference (the same for every seed);
* ``reads.fq`` — the reads (one pass of a batch workload, or the
  service's request corpus, one read per request);
* ``tenants.txt`` (service only) — the tenant that sends each read of
  ``reads.fq``, one label a line.

The same workload and seed give byte-identical files; another seed gives
other reads (on the 150 bp workloads, another order of the same reads)
and other tenant labels.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path
from statistics import NormalDist
from typing import List, Tuple

import numpy as np

from perfbench.workloads import GENOME_LENGTHS, GENOME_SEED, WORKLOADS, Workload
from repro.genomics.errors import ErrorModel, mutate_sequence
from repro.genomics.fasta import write_fasta, write_fastq
from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import IlluminaSimulator
from repro.genomics.sequences import reverse_complement

GENOME_FILE = "genome.fa"
READS_FILE = "reads.fq"
TENANTS_FILE = "tenants.txt"

#: Log-normal CLR read lengths (PBSIM2's model): about 1 kb, none shorter
#: than 600 bp.
CLR_MEAN_LENGTH = 1_000
CLR_STD_LENGTH = 300
CLR_MIN_LENGTH = 600
SHORT_READ_LENGTH = 150
#: Simulation seed of the fixed 150 bp read corpus.
CORPUS_SEED = 0


def tenant_labels(seed: int, count: int, tenants: int) -> List[str]:
    """A uniformly drawn tenant label for each of ``count`` requests."""
    labels = np.random.default_rng([seed, 1]).integers(0, tenants, size=count)
    return [f"tenant-{int(k)}" for k in labels]


def write_tenants(path: Path, labels: List[str]) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(f"{label}\n" for label in labels)


def read_tenants(path: Path) -> List[str]:
    with open(path, "r", encoding="ascii") as handle:
        return [line.rstrip("\n") for line in handle]


def lognormal_lengths(count: int, mean: float, std: float, minimum: int) -> List[int]:
    """The ``count`` quantiles of a log-normal length law cut at ``minimum``.

    Every pass then holds the same multiset of lengths — the same longest
    read, which sets how long a lockstep wave runs — and only their order,
    origins and errors change with the seed.
    """
    sigma = math.sqrt(math.log(1.0 + (std / mean) ** 2))
    law = NormalDist(math.log(mean) - sigma * sigma / 2.0, sigma)
    floor = law.cdf(math.log(minimum))
    return [
        int(math.exp(law.inv_cdf(floor + (1.0 - floor) * (i + 0.5) / count)))
        for i in range(count)
    ]


def clr_reads(genome: SyntheticGenome, count: int, seed: int) -> List[Tuple[str, str, str]]:
    """PacBio-CLR-like reads: quantile lengths in seeded order, CLR errors."""
    rng = np.random.default_rng([seed, 2])
    lengths = lognormal_lengths(count, CLR_MEAN_LENGTH, CLR_STD_LENGTH, CLR_MIN_LENGTH)
    reads = []
    for index in rng.permutation(count):
        length = lengths[index]
        chrom, start = genome.random_location(length, rng)
        template = genome.fetch(chrom, start, start + length)
        if rng.random() < 0.5:
            template = reverse_complement(template)
        sequence, _ = mutate_sequence(template, ErrorModel.pacbio_clr(), rng)
        # A flat Q10 (the CLR error rate): qualities are carried, not used.
        reads.append((f"read_{len(reads):05d}", sequence, "+" * len(sequence)))
    return reads


def corpus_reads(genome: SyntheticGenome, count: int, seed: int) -> List[Tuple[str, str, str]]:
    """Illumina-like 150 bp reads: a fixed corpus in a seeded order.

    The reads themselves are the same for every seed (the first ``count``
    of one fixed simulation).  A lockstep wave runs as long as its slowest
    lane, so a pass's cost rides on its few hardest pairs: with 1,536
    reads drawn per seed, six seeds gave the same pair count (±1 %) but
    974 to 1,460 DC rows a pass and pass times 15 % apart.  With a fixed
    corpus the hard pairs are a property of the workload, not of the
    seed; the seed draws the order (and so which pairs share a wave) and
    the tenants.
    """
    simulated = IlluminaSimulator(SHORT_READ_LENGTH, seed=CORPUS_SEED).simulate(genome, count)
    order = np.random.default_rng([seed, 3]).permutation(count)
    return [(simulated[i].name, simulated[i].sequence, simulated[i].quality) for i in order]


def write_inputs(spec: Workload, seed: int, out: Path) -> None:
    """Generate every input file of one run into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    genome = SyntheticGenome.random(GENOME_LENGTHS, seed=GENOME_SEED)
    write_fasta(out / GENOME_FILE, genome.chromosomes)
    count = spec.reads
    if spec.read_model == "clr":
        reads = clr_reads(genome, count, seed)
    else:
        reads = corpus_reads(genome, count, seed)
    write_fastq(out / READS_FILE, reads)
    if spec.is_service:
        write_tenants(out / TENANTS_FILE, tenant_labels(seed, count, spec.tenants))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()

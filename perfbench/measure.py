"""The measured process: set-up, timed runs, and the traced run.

Run as ``python -m perfbench.measure`` on the files :mod:`perfbench.inputs`
wrote.  It drives the program only through its public entry points —
``StreamingPipeline.run(reads, sink=SamSink(...))`` for batch workloads,
``AlignmentService.submit`` for the service — and writes ``measure.json``
holding the metrics plus the outputs :mod:`perfbench.check` verifies.

Batch workloads run the same FASTQ in passes until ``--seconds`` have
elapsed (a started pass always finishes) and report medians over passes.
Every timing is taken on a :class:`~perfbench.hostspeed.NominalClock`,
which probes the host's speed every half second or so (batch) or between
one-second segments of the service's closed loop, and reports seconds at
the nominal host speed: the host drifts in phases as long as a run, which
no median inside the run removes.  The service's closed-loop clients
send for ``--seconds``.  ``--trace 1`` runs the same work with
the :class:`~perfbench.layers.LayerTrace` installed on every other pass
(batch) or for the second half of the time (service), so the untraced
part measures the trace's overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import queue
import random
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import declared_metrics, hostspeed, stats
from perfbench.inputs import GENOME_FILE, READS_FILE, TENANTS_FILE, read_tenants
from perfbench.layers import TOP_LEVEL_SECONDS, LayerTrace, derived
from perfbench.workloads import SETUP_REPEATS, WARMUP_BASES, WORKLOADS, Workload
from repro.genomics.fasta import iter_fastq, read_fasta
from repro.genomics.genome import SyntheticGenome
from repro.io import SamSink
from repro.mapping.mapper import Mapper
from repro.pipeline import StreamingPipeline
from repro.service import AlignmentService

OUTPUT_FILE = "measure.json"
SAM_FILE = "out.sam"

#: A request still unanswered this long after the clients stop sending is
#: failed.
GRACE_SECONDS = 10.0
#: The service's clients pause for a host-speed probe this often.  A probe
#: needs the CPU to itself, so the clients first let every outstanding
#: request resolve.
SEGMENT_SECONDS = 1.0

clock = time.perf_counter


def set_up(spec: Workload, directory: Path) -> Tuple[List[float], tuple]:
    """Build the program :data:`SETUP_REPEATS` times; keep the last build.

    One set-up loads the reference FASTA, builds the ``Mapper`` minimizer
    index, constructs the pipeline or service and makes one warm-up call.
    Returns every set-up's seconds at the nominal host speed and the last
    build.
    """
    seconds: List[float] = []
    system = None
    host = hostspeed.NominalClock()
    for _ in range(SETUP_REPEATS):
        if system is not None and spec.is_service:
            system[2].close()
        system = None
        gc.collect()
        if not host.marks:
            host.probe()
        start = clock()
        genome = SyntheticGenome(chromosomes=read_fasta(directory / GENOME_FILE))
        mapper = Mapper(genome)
        warmup = [("warm-up", genome.fetch(genome.names()[0], 0, WARMUP_BASES), "")]
        if spec.is_service:
            service = AlignmentService(spec.genasm_config())
            service.submit(request_pairs(mapper, warmup)[0], tenant="warm-up").result()
            system = (genome, mapper, service)
        else:
            pipeline = StreamingPipeline(mapper, spec.genasm_config())
            pipeline.run_all(warmup, sink=SamSink(io.StringIO(), genome))
            system = (genome, mapper, pipeline)
        end = clock()
        host.probe()
        seconds.append(host.nominal(end) - host.nominal(start))
    return seconds, system


def request_pairs(mapper: Mapper, reads) -> List[List[Tuple[str, str]]]:
    """One request per read: its candidate (pattern, text) pairs."""
    return [
        [
            mapper.candidate_region_sequence(candidate, sequence)
            for candidate in mapper.map_sequence(name, sequence)
        ]
        for name, sequence, _quality in reads
    ]


def peak_rss_mb() -> float:
    """High-water resident set of this process (``ru_maxrss`` is KiB here)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Batch workloads
# ---------------------------------------------------------------------- #
class EmitClock:
    """Sink wrapper stamping when each read's latest result reached the
    sink; between results it lets the host-speed clock probe."""

    def __init__(self, sink, host: hostspeed.NominalClock) -> None:
        self.sink = sink
        self.host = host
        self.emitted: Dict[int, float] = {}

    def write(self, result) -> None:
        self.sink.write(result)
        self.emitted[result.read.index] = clock()
        self.host.maybe_probe()

    def finish(self) -> None:
        self.sink.finish()


def stamped_reads(path: Path, pulled: List[float], pause=None):
    """FASTQ records, stamping when the pipeline pulls each one; ``pause``,
    if given, is called before each pull."""
    for record in iter_fastq(path):
        if pause is not None:
            pause()
        pulled.append(clock())
        yield record


def batch_pass(
    system: tuple, directory: Path, keep: frozenset, host: hostspeed.NominalClock, traced: bool
) -> dict:
    """One pass of the FASTQ through the pipeline into a SAM file.

    ``host`` must have probed just before; it probes between results, at
    read pulls unless the pass is ``traced`` (the trace times the pulls as
    ingest), and once more after the pass.  Every time is reported at
    nominal host speed (``measured`` is the pass's seconds as measured,
    probes left out).

    Results of the reads whose indices are in ``keep`` are kept for the
    scalar check; the rest are dropped as they arrive, so the harness
    holds no more memory on a longer pass.
    """
    genome, _mapper, pipeline = system
    sam_path = directory / SAM_FILE
    pulled: List[float] = []
    kept = []
    with open(sam_path, "w", encoding="ascii") as handle:
        sink = EmitClock(SamSink(handle, genome), host)
        header_bytes = handle.tell()
        start = clock()
        reads = stamped_reads(
            directory / READS_FILE, pulled, None if traced else host.maybe_probe
        )
        for result in pipeline.run(reads, sink=sink):
            if result.read.index in keep:
                kept.append(result)
        end = clock()
    host.probe()
    wall = host.nominal(end) - host.nominal(start)
    latencies = [
        (host.nominal(stamp) - host.nominal(pulled[index])) * 1000.0
        for index, stamp in sink.emitted.items()
    ]
    p50, tail_q, tail = stats.latency_summary(latencies)
    return {
        "wall": wall,
        "measured": host.measured(end) - host.measured(start),
        "reads": len(pulled),
        "pairs": pipeline.stats.aligned,
        "reads_per_s": len(pulled) / wall,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "tail_q": tail_q,
        "samples": len(latencies),
        "sam_bytes": sam_path.stat().st_size - header_bytes,
        "sam_digest": file_digest(sam_path),
        "kept": kept,
    }


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sample_reads(spec: Workload, seed: int) -> frozenset:
    """A seeded sample of read indices whose pairs the scalar check re-aligns."""
    count = min(spec.sample_reads, spec.reads)
    return frozenset(random.Random(seed).sample(range(spec.reads), count))


def check_sample(kept: Sequence) -> List[dict]:
    """Every pair of the sampled reads, for the scalar re-alignment.

    ``rank`` is the pair's place among its read's results, which is the
    place of its record among the read's SAM records.
    """
    sample = []
    previous, rank = None, 0
    for result in kept:
        rank = rank + 1 if result.read.name == previous else 0
        previous = result.read.name
        candidate, alignment = result.candidate, result.alignment
        sample.append(
            {
                "read": result.read.name,
                "rank": rank,
                "chrom": candidate.chrom,
                "ref_start": candidate.ref_start,
                "ref_end": candidate.ref_end,
                "strand": candidate.strand,
                "pattern": alignment.pattern,
                "text": alignment.text,
                "cigar": str(alignment.cigar),
                "edit_distance": alignment.edit_distance,
                "text_end": int(alignment.text_end),
            }
        )
    return sample


def run_batch(spec: Workload, directory: Path, seconds: float, trace: bool, seed: int) -> dict:
    setups, system = set_up(spec, directory)
    layer_trace = LayerTrace()
    keep = sample_reads(spec, seed)
    passes: List[dict] = []
    sample: List[dict] = []
    deadline = clock() + seconds
    host = hostspeed.NominalClock()
    host.probe()
    while clock() < deadline or len(passes) < (2 if trace else 1):
        traced = trace and len(passes) % 2 == 1
        if traced:
            layer_trace.reset()
            layer_trace.install()
        try:
            result = batch_pass(
                system, directory, keep if not passes else frozenset(), host, traced
            )
        finally:
            layer_trace.uninstall()
        if traced:
            # Layers are timed as measured; scale them like the pass.
            result["layers"] = {
                name: value * result["wall"] / result["measured"]
                if name.endswith(".seconds")
                else value
                for name, value in layer_trace.values.items()
            }
            result["layers"]["io.sam.bytes"] = result["sam_bytes"]
        result["traced"] = traced
        if not passes:
            sample = check_sample(result["kept"])
        del result["kept"]
        passes.append(result)
    rss = peak_rss_mb()

    untraced = [p for p in passes if not p["traced"]]
    first = untraced[0]
    slowness = host.readings()
    lines = [
        f"{len(passes)} passes of {first['reads']} reads / {first['pairs']} "
        f"candidate pairs; setup_s is the median of {len(setups)} set-ups",
        f"latency_tail_ms is p{first['tail_q']} of {first['samples']} reads "
        "per pass; every figure is the median over passes",
        f"timings at nominal host speed: {len(slowness)} host probes read "
        f"{stats.median(slowness):.3f}x nominal time ({min(slowness):.3f}-"
        f"{max(slowness):.3f}); reads_per_s as measured "
        f"{stats.median(p['reads'] / p['measured'] for p in untraced):.6g}",
    ]
    if trace:
        metrics, more = batch_layer_metrics(passes)
        lines += more
    else:
        metrics = {
            "setup_s": stats.median(setups),
            "reads_per_s": stats.median(p["reads_per_s"] for p in untraced),
            "latency_p50_ms": stats.median(p["latency_p50_ms"] for p in untraced),
            "latency_tail_ms": stats.median(p["latency_tail_ms"] for p in untraced),
            "peak_rss_mb": rss,
        }
    return {
        "metrics": metrics,
        "lines": lines,
        "outputs": {
            "sam": SAM_FILE,
            "digests": [p["sam_digest"] for p in passes],
            "pairs": [p["pairs"] for p in passes],
            "sample": sample,
            # Per pass, the traced pass's layer counts (None if untraced);
            # the check requires them to repeat exactly.
            "layer_counts": [
                {k: v for k, v in p["layers"].items() if not k.endswith(".seconds")}
                if p["traced"]
                else None
                for p in passes
            ],
        },
    }


def batch_layer_metrics(passes: List[dict]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of the traced passes (medians; counts of the first)."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    names = declared_metrics("per_layer")
    metrics = {name: 0.0 for name in names}
    first = traced[0]["layers"]
    for name in names:
        if name.endswith(".seconds"):
            metrics[name] = stats.median(p["layers"].get(name, 0.0) for p in traced)
        elif name in first:
            metrics[name] = first[name]
    metrics.update(derived(first))
    metrics["trace.coverage_share"] = stats.median(
        sum(p["layers"].get(name, 0.0) for name in TOP_LEVEL_SECONDS) / p["wall"]
        for p in traced
    )
    metrics["trace.overhead_share"] = (
        stats.median(p["wall"] for p in traced)
        / stats.median(p["wall"] for p in untraced)
        - 1.0
    )
    lines = [f"{len(traced)} traced and {len(untraced)} untraced passes"]
    return metrics, lines


# ---------------------------------------------------------------------- #
# Service workload
# ---------------------------------------------------------------------- #
def closed_loop(
    service: AlignmentService,
    requests: Sequence[List[Tuple[str, str]]],
    tenants: Sequence[str],
    seconds: float,
    pause=None,
) -> dict:
    """Keep one request outstanding per tenant for ``seconds``.

    Each tenant is a client that sends the next request of its share of
    the corpus (cycling through it) as soon as its previous request has
    resolved; the calling thread makes every send.  A request is timed
    from its send to its future resolving (``stamps`` holds both
    ``perf_counter`` readings of each record).  One that is refused,
    errors, or is still unresolved :data:`GRACE_SECONDS` after sending
    stopped gets an infinite latency and no response.  ``late_ms`` holds,
    for every send after a tenant's first, how long after the previous
    request resolved it went out.  With ``pause``, the clients stop every
    :data:`SEGMENT_SECONDS`, wait until nothing is outstanding, call
    ``pause()`` and carry on where they stopped.
    """
    shares: Dict[str, List[int]] = defaultdict(list)
    for index, tenant in enumerate(tenants):
        shares[tenant].append(index)
    turns = {tenant: 0 for tenant in shares}
    pending: Dict[str, int] = {}
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    records: List[list] = []
    stamps: List[Tuple[float, Optional[float]]] = []
    late_ms: List[float] = []
    waiting: List[str] = []

    def send(tenant: str) -> None:
        share = shares[tenant]
        index = share[turns[tenant] % len(share)]
        turns[tenant] += 1
        pending[tenant] = index
        sent = clock()
        try:
            future = service.submit(requests[index], tenant=tenant)
        except Exception as error:  # a refused request is a failed one
            print(f"request {index} refused: {error!r}", file=sys.stderr)
            done.put((tenant, sent, clock(), None))
            return
        future.add_done_callback(lambda f: done.put((tenant, sent, clock(), f)))

    start = clock()
    stop = start + seconds
    deadline = stop + GRACE_SECONDS
    resume_until = min(stop, start + SEGMENT_SECONDS) if pause is not None else stop
    last = start
    for tenant in shares:
        send(tenant)
    while pending:
        try:
            tenant, sent, resolved, future = done.get(timeout=max(0.0, deadline - clock()))
        except queue.Empty:
            break
        index = pending.pop(tenant)
        response = None
        if future is not None:
            try:
                alignments = future.result(timeout=0)
            except Exception as error:  # the service failed this request
                print(f"request {index} failed: {error!r}", file=sys.stderr)
            else:
                response = [[str(a.cigar), a.edit_distance, int(a.text_end)] for a in alignments]
                last = max(last, resolved)
        latency = (resolved - sent) * 1000.0 if response is not None else math.inf
        records.append([index, latency, response])
        stamps.append((sent, resolved))
        now = clock()
        if now < resume_until:
            late_ms.append((now - resolved) * 1000.0)
            send(tenant)
        elif now < stop:
            waiting.append(tenant)
            if not pending:  # the segment has drained
                pause()
                resume_until = min(stop, clock() + SEGMENT_SECONDS)
                for tenant in waiting:
                    send(tenant)
                waiting.clear()
    for index in pending.values():  # unresolved at the deadline
        records.append([index, math.inf, None])
        stamps.append((math.nan, None))
    completed = sum(1 for record in records if record[2] is not None)
    return {
        "records": records,
        "stamps": stamps,
        "late_ms": late_ms,
        "completed": completed,
        "start": start,
        "last": last,
        "wall": last - start,
        "pairs": sum(len(requests[record[0]]) for record in records),
    }


def run_service(spec: Workload, directory: Path, seconds: float, trace: bool) -> dict:
    setups, (_genome, mapper, service) = set_up(spec, directory)
    requests = request_pairs(mapper, iter_fastq(directory / READS_FILE))
    tenants = read_tenants(directory / TENANTS_FILE)
    # The service is sent pairs, not reads: release the reference and its
    # index so their objects stay out of the collector's full passes.
    del _genome, mapper
    gc.collect()
    try:
        if trace:
            metrics, runs, lines = traced_service(spec, service, requests, tenants, seconds)
        else:
            host = hostspeed.NominalClock()
            host.probe()
            run = closed_loop(service, requests, tenants, seconds, pause=host.probe)
            host.probe()
            runs = [run]
            rss = peak_rss_mb()
            for record, (sent, resolved) in zip(run["records"], run["stamps"]):
                if record[2] is not None:
                    record[1] = (host.nominal(resolved) - host.nominal(sent)) * 1000.0
            latencies = [record[1] for record in run["records"]]
            p50, tail_q, tail = stats.latency_summary(latencies)
            active = host.nominal(run["last"]) - host.nominal(run["start"])
            measured_rate = run["completed"] / (
                host.measured(run["last"]) - host.measured(run["start"])
            )
            metrics = {
                "setup_s": stats.median(setups),
                "reads_per_s": run["completed"] / active,
                "latency_p50_ms": p50,
                "latency_tail_ms": tail,
                "peak_rss_mb": rss,
            }
            slowness = host.readings()
            lines = [
                f"{spec.tenants} tenants, one request outstanding each, over a "
                f"{len(requests)}-read corpus; setup_s is the median of "
                f"{len(setups)} set-ups",
                f"latency_tail_ms is p{tail_q} of {len(latencies)} requests; "
                f"client resend delay p99 {stats.percentile(run['late_ms'], '99'):.2f} ms",
                f"timings at nominal host speed: {len(slowness)} host probes read "
                f"{stats.median(slowness):.3f}x nominal time ({min(slowness):.3f}-"
                f"{max(slowness):.3f}); reads_per_s as measured {measured_rate:.6g}",
            ]
    finally:
        service.close()
    return {
        "metrics": metrics,
        "lines": lines,
        "outputs": {
            "requests": requests,
            "records": [record for run in runs for record in run["records"]],
        },
    }


def traced_service(spec, service, requests, tenants, seconds):
    """The first half of ``seconds`` untraced, the second half traced."""
    cpu = time.process_time()
    plain = closed_loop(service, requests, tenants, seconds / 2)
    plain_cpu = time.process_time() - cpu

    pipeline_stats = service.stats.pipeline
    waves, lanes = pipeline_stats.waves, pipeline_stats.lanes_total
    timeouts = pipeline_stats.flushes["timeout"]
    layer_trace = LayerTrace()
    cpu = time.process_time()
    with layer_trace:
        traced = closed_loop(service, requests, tenants, seconds / 2)
    traced_cpu = time.process_time() - cpu
    waves = pipeline_stats.waves - waves
    lanes = pipeline_stats.lanes_total - lanes
    timeouts = pipeline_stats.flushes["timeout"] - timeouts

    values = layer_trace.values
    metrics = {name: float(values.get(name, 0.0)) for name in declared_metrics("per_layer")}
    metrics.update(derived(values))
    metrics["service.engine_busy_share"] = values["batch.align.seconds"] / traced["wall"]
    metrics["service.lanes_per_wave"] = lanes / waves if waves else 0.0
    metrics["service.timeout_flush_share"] = timeouts / waves if waves else 0.0
    metrics["loadgen.late_p99_ms"] = stats.percentile(
        plain["late_ms"] + traced["late_ms"], "99"
    )
    metrics["trace.coverage_share"] = (
        sum(values.get(name, 0.0) for name in TOP_LEVEL_SECONDS) / traced["wall"]
    )
    metrics["trace.overhead_share"] = (traced_cpu / traced["pairs"]) / (
        plain_cpu / plain["pairs"]
    ) - 1.0
    lines = [
        f"{plain['completed']} untraced then {traced['completed']} traced requests "
        f"from {spec.tenants} tenants; trace.overhead_share compares CPU seconds per pair"
    ]
    return metrics, [plain, traced], lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    if spec.is_service:
        result = run_service(spec, args.dir, args.seconds, bool(args.trace))
    else:
        result = run_batch(spec, args.dir, args.seconds, bool(args.trace), args.seed)
    with open(args.dir / OUTPUT_FILE, "w", encoding="ascii") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()

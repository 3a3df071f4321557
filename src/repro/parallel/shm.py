"""Shared-memory execution: ship descriptors between processes, not arrays.

The align-stage pool (:class:`repro.pipeline.AlignStage` with
``workers > 1``) pickles its entire payload into every spawn worker —
sequence pairs per task, and (for mapping) nothing at all, because the
reference genome and :class:`~repro.mapping.index.MinimizerIndex` were too
expensive to ship, which is why mapping stayed on GIL-bound threads.  This
module inverts that, the way the paper's GPU design keeps wave state
resident and moves *work*:

* **Segments** (:class:`SharedSegment`) own one
  :mod:`multiprocessing.shared_memory` block with a deterministic
  close-and-unlink lifecycle (the creator unlinks; attachments never do —
  see :func:`repro.batch.soa._unregister_attachment`).
* **Layouts** (:class:`SegmentLayout`) describe named arrays packed into a
  segment — dtype/shape/offset metadata only, tiny and picklable.  What
  crosses a process boundary is the layout; the bytes stay put.
* **Hosted resources**: :func:`host_genome` / :func:`host_index` pack a
  reference genome and a minimizer index into segments *once*;
  :class:`SharedGenome` / :class:`SharedMinimizerIndex` are drop-in
  read-side adapters that workers attach in their initializer, so every
  worker maps and fetches against the same physical pages.
* **The executor** (:class:`SharedMemoryExecutor`): one spawn pool whose
  workers hold an attached genome + index + a warm
  :class:`~repro.batch.engine.BatchAlignmentEngine`.  Waves are submitted
  as pair-block layouts (:func:`pack_pairs`), mapping tasks as bare read
  records; both the streaming pipeline's map and align stages and the
  ``shared`` batch backend (:mod:`repro.execution`) dispatch through it.

Alignments still return by pickle — results are small and owned by the
caller — and both sides of every handoff stay byte-identical to the
in-process paths, which the shared-memory tests and the differential
pipeline harness assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.soa import _unregister_attachment

__all__ = [
    "SharedSegment",
    "SegmentLayout",
    "pack_arrays",
    "pack_pairs",
    "unpack_pairs",
    "SharedGenome",
    "host_genome",
    "SharedMinimizerIndex",
    "host_index",
    "SharedMemoryExecutor",
]

#: Byte alignment of every array offset inside a segment.
_ALIGN = 8


class SharedSegment:
    """One owned shared-memory block with deterministic unlink.

    The process that constructs a :class:`SharedSegment` owns the
    underlying segment: it must eventually call :meth:`unlink` (idempotent,
    also the context-manager exit) or the segment outlives the process.
    Other processes attach by name via :meth:`attach`, which never takes
    ownership.
    """

    def __init__(self, size: int) -> None:
        from multiprocessing import shared_memory

        self.shm = shared_memory.SharedMemory(create=True, size=max(1, int(size)))
        self._unlinked = False

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def buf(self):
        return self.shm.buf

    @staticmethod
    def attach(name: str):
        """Attach to an existing segment by name (no ownership taken)."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        _unregister_attachment(shm)
        return shm

    def close(self) -> None:
        try:
            self.shm.close()
        except BufferError:  # live views; the mapping unmaps at exit
            pass

    def unlink(self) -> None:
        """Close and remove the segment (idempotent, crash-tolerant)."""
        if self._unlinked:
            return
        self._unlinked = True
        self.close()
        try:
            # Re-register first: if this process also *attached* the segment,
            # the attach-side tracker workaround unregistered the name, and
            # unlink()'s own unregister would otherwise log a KeyError in the
            # resource-tracker process.
            from multiprocessing import resource_tracker

            resource_tracker.register(self.shm._name, "shared_memory")
            self.shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


@dataclass(frozen=True)
class SegmentLayout:
    """Named arrays packed back-to-back in one (shared) buffer.

    ``arrays`` maps each field to ``(dtype string, shape, byte offset)``;
    ``meta`` carries small picklable extras (name lists, parameters).  A
    layout plus its segment name is the complete cross-process handoff.
    """

    nbytes: int
    arrays: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    segment: Optional[str] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def views(self, buffer) -> Dict[str, np.ndarray]:
        """Materialise every array as a zero-copy view over ``buffer``."""
        out: Dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in self.arrays:
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            out[name] = np.frombuffer(
                buffer, dtype=np.dtype(dtype), count=count, offset=offset
            ).reshape(shape)
        return out

    def attach(self):
        """Attach the named segment; returns ``(shm, views)``.

        The caller closes ``shm`` when the views are no longer needed.
        """
        if self.segment is None:
            raise ValueError("layout does not name a shared-memory segment")
        shm = SharedSegment.attach(self.segment)
        return shm, self.views(shm.buf)


def pack_arrays(
    arrays: Dict[str, np.ndarray], *, meta: Optional[Dict[str, object]] = None
) -> Tuple[SharedSegment, SegmentLayout]:
    """Copy ``arrays`` into a fresh shared segment; returns (owner, layout)."""
    entries = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = -(-offset // _ALIGN) * _ALIGN
        entries.append((name, array.dtype.str, tuple(array.shape), offset))
        offset += array.nbytes
    segment = SharedSegment(offset)
    layout = SegmentLayout(
        nbytes=max(1, offset),
        arrays=tuple(entries),
        segment=segment.name,
        meta=dict(meta or {}),
    )
    for name, view in layout.views(segment.buf).items():
        view[...] = arrays[name]
    return segment, layout


# --------------------------------------------------------------------------- #
# String/pair blocks — the wave handoff payload
# --------------------------------------------------------------------------- #
def _string_block(strings: Sequence[str], prefix: str) -> Dict[str, np.ndarray]:
    data = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(data) + 1, dtype=np.int64)
    if data:
        np.cumsum([len(b) for b in data], out=offsets[1:])
    return {
        f"{prefix}_off": offsets,
        f"{prefix}_data": np.frombuffer(b"".join(data), dtype=np.uint8),
    }


def _string_block_decode(views: Dict[str, np.ndarray], prefix: str) -> List[str]:
    offsets = views[f"{prefix}_off"]
    blob = views[f"{prefix}_data"].tobytes()
    return [
        blob[offsets[i] : offsets[i + 1]].decode("utf-8")
        for i in range(len(offsets) - 1)
    ]


def pack_pairs(
    pairs: Sequence[Tuple[str, str]],
    *,
    meta: Optional[Dict[str, object]] = None,
) -> Tuple[SharedSegment, SegmentLayout]:
    """Pack (pattern, text) pairs into one segment; ship only the layout.

    ``meta`` rides along in the layout (small picklable extras — e.g. the
    ``wave_id`` worker-side trace spans tag themselves with).
    """
    arrays = {
        **_string_block([p for p, _ in pairs], "pattern"),
        **_string_block([t for _, t in pairs], "text"),
    }
    return pack_arrays(arrays, meta={**(meta or {}), "count": len(pairs)})


def unpack_pairs(layout: SegmentLayout) -> List[Tuple[str, str]]:
    """Rebuild the pair list from a shared pair block (attach, decode, close)."""
    shm, views = layout.attach()
    try:
        patterns = _string_block_decode(views, "pattern")
        texts = _string_block_decode(views, "text")
    finally:
        del views
        shm.close()
    return list(zip(patterns, texts))


# --------------------------------------------------------------------------- #
# Shared reference genome
# --------------------------------------------------------------------------- #
class SharedGenome:
    """Read-side adapter over a genome hosted in a shared segment.

    Duck-compatible with the :class:`~repro.genomics.genome.SyntheticGenome`
    surface the mapper uses — :meth:`sequence`, :meth:`fetch`,
    :meth:`chromosome_length`, :meth:`names` — but every fetch decodes only
    the requested slice out of the shared pages; nothing per-worker is
    materialised beyond the region strings actually handed to lanes.
    """

    def __init__(self, layout: SegmentLayout) -> None:
        self._layout = layout
        self._shm, views = layout.attach()
        self._data = views["data"]
        offsets = views["offsets"]
        names = list(layout.meta["names"])
        self._bounds = {
            name: (int(offsets[i]), int(offsets[i + 1]))
            for i, name in enumerate(names)
        }
        self._names = names

    @classmethod
    def attach(cls, layout: SegmentLayout) -> "SharedGenome":
        return cls(layout)

    def names(self) -> List[str]:
        return list(self._names)

    def chromosome_length(self, chrom: str) -> int:
        start, end = self._bounds[chrom]
        return end - start

    def sequence(self, chrom: str) -> str:
        start, end = self._bounds[chrom]
        return self._data[start:end].tobytes().decode("ascii")

    def fetch(self, chrom: str, start: int, end: int) -> str:
        base, bound = self._bounds[chrom]
        length = bound - base
        start = max(0, start)
        end = min(length, end)
        if start >= end:
            return ""
        return self._data[base + start : base + end].tobytes().decode("ascii")

    def close(self) -> None:
        self._data = None
        if self._shm is not None:
            shm, self._shm = self._shm, None
            try:
                shm.close()
            except BufferError:
                pass


def host_genome(genome) -> Tuple[SharedSegment, SegmentLayout]:
    """Pack a genome's chromosomes into one shared segment, built once.

    ``genome`` is anything exposing an ordered ``chromosomes``
    name→sequence mapping (ASCII sequences).
    """
    names = list(genome.chromosomes)
    blobs = [genome.chromosomes[name].encode("ascii") for name in names]
    offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
    if blobs:
        np.cumsum([len(b) for b in blobs], out=offsets[1:])
    data = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    return pack_arrays(
        {"offsets": offsets, "data": data}, meta={"names": names}
    )


# --------------------------------------------------------------------------- #
# Shared minimizer index
# --------------------------------------------------------------------------- #
class SharedMinimizerIndex:
    """Read-side adapter over a minimizer index hosted in shared segments.

    The hash table is flattened to three parallel arrays — sorted hashes,
    per-hash hit ranges, and the hit records (chromosome id, position,
    strand) in the exact insertion order of the dict-based index — so
    :meth:`lookup` is a binary search plus a slice, and the per-hash hit
    order (hence every anchor list, chain, and candidate) is identical to
    :class:`~repro.mapping.index.MinimizerIndex`.
    """

    def __init__(self, layout: SegmentLayout) -> None:
        self._layout = layout
        self._shm, views = layout.attach()
        self._hashes = views["hashes"]
        self._starts = views["starts"]
        self._hit_chrom = views["hit_chrom"]
        self._hit_pos = views["hit_pos"]
        self._hit_strand = views["hit_strand"]
        self._chrom_names = list(layout.meta["chrom_names"])
        self.k = int(layout.meta["k"])
        self.w = int(layout.meta["w"])
        self.max_occurrences = int(layout.meta["max_occurrences"])
        self.indexed_minimizers = int(layout.meta["indexed_minimizers"])
        self.dropped_minimizers = int(layout.meta["dropped_minimizers"])

    @classmethod
    def attach(cls, layout: SegmentLayout) -> "SharedMinimizerIndex":
        return cls(layout)

    def lookup(self, minimizer_hash: int) -> List:
        """All reference occurrences of a hash, in index insertion order."""
        from repro.mapping.index import IndexHit

        hashes = self._hashes
        position = int(np.searchsorted(hashes, np.uint64(minimizer_hash)))
        if position >= hashes.shape[0] or int(hashes[position]) != minimizer_hash:
            return []
        start = int(self._starts[position])
        end = int(self._starts[position + 1])
        names = self._chrom_names
        chroms = self._hit_chrom
        positions = self._hit_pos
        strands = self._hit_strand
        return [
            IndexHit(
                chrom=names[chroms[i]],
                position=int(positions[i]),
                strand=int(strands[i]),
            )
            for i in range(start, end)
        ]

    def lookup_many(self, minimizers: Iterable) -> List[Tuple[object, object]]:
        out: List[Tuple[object, object]] = []
        for minimizer in minimizers:
            for hit in self.lookup(minimizer.hash):
                out.append((minimizer, hit))
        return out

    def __len__(self) -> int:
        return int(self._hashes.shape[0])

    def __contains__(self, minimizer_hash: int) -> bool:
        hashes = self._hashes
        position = int(np.searchsorted(hashes, np.uint64(minimizer_hash)))
        return position < hashes.shape[0] and int(hashes[position]) == minimizer_hash

    def close(self) -> None:
        self._hashes = self._starts = None
        self._hit_chrom = self._hit_pos = self._hit_strand = None
        if self._shm is not None:
            shm, self._shm = self._shm, None
            try:
                shm.close()
            except BufferError:
                pass


def host_index(index) -> Tuple[SharedSegment, SegmentLayout]:
    """Flatten a built :class:`MinimizerIndex` into one shared segment."""
    table = index._table  # insertion order per hash is the contract
    hashes = np.fromiter(table.keys(), dtype=np.uint64, count=len(table))
    order = np.argsort(hashes, kind="stable")
    hashes = hashes[order]
    keys = list(table.keys())
    chrom_names: List[str] = []
    chrom_ids: Dict[str, int] = {}
    starts = np.zeros(len(table) + 1, dtype=np.int64)
    hit_chrom: List[int] = []
    hit_pos: List[int] = []
    hit_strand: List[int] = []
    for slot, key_index in enumerate(order):
        hits = table[keys[int(key_index)]]
        starts[slot + 1] = starts[slot] + len(hits)
        for hit in hits:
            chrom_id = chrom_ids.get(hit.chrom)
            if chrom_id is None:
                chrom_id = chrom_ids[hit.chrom] = len(chrom_names)
                chrom_names.append(hit.chrom)
            hit_chrom.append(chrom_id)
            hit_pos.append(hit.position)
            hit_strand.append(hit.strand)
    return pack_arrays(
        {
            "hashes": hashes,
            "starts": starts,
            "hit_chrom": np.array(hit_chrom, dtype=np.int32),
            "hit_pos": np.array(hit_pos, dtype=np.int64),
            "hit_strand": np.array(hit_strand, dtype=np.int8),
        },
        meta={
            "chrom_names": chrom_names,
            "k": index.k,
            "w": index.w,
            "max_occurrences": index.max_occurrences,
            "indexed_minimizers": index.indexed_minimizers,
            "dropped_minimizers": index.dropped_minimizers,
        },
    )


# --------------------------------------------------------------------------- #
# Worker side of the executor (module-level so it pickles under spawn)
# --------------------------------------------------------------------------- #
_WORKER: Optional["_WorkerState"] = None


class _WorkerState:
    """Per-worker-process state: attached resources + a warm engine."""

    def __init__(self, bundle: Dict[str, object]) -> None:
        import os

        from repro.batch.engine import BatchAlignmentEngine
        from repro.telemetry.trace import NULL_TRACER, Tracer

        self.config = bundle["config"]
        self.engine = BatchAlignmentEngine(self.config, **bundle["engine_kwargs"])
        # Worker-side tracer: spans recorded here are drained and shipped
        # back with each wave's alignments, so the driver-side tracer can
        # absorb them onto one timeline (separate pid tracks).
        if bundle.get("trace"):
            self.tracer = Tracer(process_name=f"shm-worker-{os.getpid()}")
        else:
            self.tracer = NULL_TRACER
        self.genome = None
        self.mapper = None
        genome_layout = bundle.get("genome")
        index_layout = bundle.get("index")
        mapper_params = bundle.get("mapper_params")
        if genome_layout is not None:
            self.genome = SharedGenome.attach(genome_layout)
        if index_layout is not None and mapper_params is not None:
            from repro.mapping.mapper import Mapper

            self.mapper = Mapper(
                self.genome,
                index=SharedMinimizerIndex.attach(index_layout),
                **mapper_params,
            )


def _init_worker(bundle: Dict[str, object]) -> None:
    global _WORKER
    _WORKER = _WorkerState(bundle)


def _worker_ping(delay: float = 0.0) -> int:
    """Warm-up task: forces spawn + imports + resource attachment.

    Also runs a one-lane alignment so the engine's first-call costs
    (numpy ufunc setup, lazy allocations) are paid here rather than by the
    first real wave.  The ``delay`` keeps the task resident long enough
    that a pool-wide warm() round touches *every* worker instead of one
    fast worker absorbing all the pings.
    """
    _WORKER.engine.align_pairs([("ACGT", "ACGT")])
    if delay:
        import time

        time.sleep(delay)
    import os

    return os.getpid()


def _worker_align(layout: SegmentLayout) -> List:
    """Align one wave shipped as a shared pair block."""
    return _WORKER.engine.align_pairs(unpack_pairs(layout))


def _worker_align_traced(layout: SegmentLayout) -> Tuple[List, List, str]:
    """Traced :func:`_worker_align`: also ship this wave's spans back.

    Returns ``(alignments, span records, process name)``; the driver-side
    executor absorbs the records so cross-process waves land on the same
    exported timeline as the driver's stages.
    """
    tracer = _WORKER.tracer
    wave_id = layout.meta.get("wave_id")
    with tracer.span(
        "worker.align.wave", wave_id=wave_id, lanes=layout.meta.get("count")
    ):
        alignments = _WORKER.engine.align_pairs(unpack_pairs(layout))
    return alignments, tracer.drain(), tracer.process_name


def _worker_map(name: str, sequence: str) -> List[Tuple[object, str, str]]:
    """Map one read against the shared index + genome.

    Returns (candidate, pattern, text) triples in mapper order — the same
    payload :meth:`repro.pipeline.mapstage.MapStage.map_record` produces.
    """
    mapper = _WORKER.mapper
    candidates = mapper.map_sequence(name, sequence)
    return [
        (candidate,) + mapper.candidate_region_sequence(candidate, sequence)
        for candidate in candidates
    ]


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #
class SharedMemoryExecutor:
    """Spawn pool whose workers share genome/index segments built once.

    Parameters
    ----------
    workers:
        Worker process count.
    config:
        Aligner configuration shipped once at pool start (defaults to the
        paper's improved GenASM).
    engine_kwargs:
        Forwarded to each worker's :class:`BatchAlignmentEngine`.
    mapper:
        Optional :class:`~repro.mapping.mapper.Mapper`; when given, its
        genome and minimizer index are hosted in shared segments and every
        worker rebuilds an identical mapper over them, enabling
        :meth:`submit_map`.
    shared_layouts:
        Optional ``(genome_layout, index_layout)`` pair of already-hosted
        segments (e.g. from a
        :class:`~repro.service.registry.ReferenceRegistry`).  Workers
        attach these instead of this executor hosting its own copies, so
        many executors — and the requests they serve — share one physical
        genome/index.  Requires ``mapper`` (for the mapper parameters);
        the segments stay owned by whoever hosted them: :meth:`close`
        does **not** unlink them.
    tracer:
        Optional driver-side :class:`~repro.telemetry.trace.Tracer`.  When
        given (and enabled), each worker builds its own tracer, records a
        ``worker.align.wave`` span per wave, and ships the span records
        back with the wave's alignments; this executor absorbs them so one
        exported timeline covers driver stages and worker waves.
    eager:
        Start the pool at construction (default starts lazily on first
        submit).

    The executor is reusable across pipeline runs — keeping it alive keeps
    the pool warm and the resource segments hosted, which is the intended
    mode for service-style callers; :meth:`close` (or the context-manager
    exit) tears everything down and unlinks every segment this executor
    ever created.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        config=None,
        engine_kwargs: Optional[Dict[str, object]] = None,
        mapper=None,
        shared_layouts: Optional[Tuple[SegmentLayout, SegmentLayout]] = None,
        tracer=None,
        eager: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if shared_layouts is not None and mapper is None:
            raise ValueError(
                "shared_layouts requires a mapper (its parameters are "
                "shipped alongside the pre-hosted segments)"
            )
        from repro.core.config import GenASMConfig
        from repro.telemetry.trace import get_tracer

        self.workers = workers
        self.config = config if config is not None else GenASMConfig()
        self.tracer = get_tracer(tracer)
        self.engine_kwargs = dict(engine_kwargs or {})
        self.mapper = mapper
        self.shared_layouts = shared_layouts
        self._pool = None
        self._resources: List[SharedSegment] = []
        self._wave_segments: Dict[object, SharedSegment] = {}
        self._segment_names: List[str] = []
        self._closed = False
        if eager:
            self.start()

    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        return self._pool is not None

    def start(self) -> None:
        """Host the shared resources and start the worker pool (idempotent)."""
        if self._pool is not None:
            return
        if self._closed:
            raise RuntimeError("executor already closed")
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        bundle: Dict[str, object] = {
            "config": self.config,
            "engine_kwargs": self.engine_kwargs,
            "trace": self.tracer.enabled,
        }
        if self.mapper is not None:
            if self.shared_layouts is not None:
                # Pre-hosted by the caller (reference registry): attach,
                # don't copy, don't own — close() leaves them linked.
                genome_layout, index_layout = self.shared_layouts
            else:
                genome_segment, genome_layout = host_genome(self.mapper.genome)
                index_segment, index_layout = host_index(self.mapper.index)
                self._resources += [genome_segment, index_segment]
                self._segment_names += [genome_segment.name, index_segment.name]
            bundle["genome"] = genome_layout
            bundle["index"] = index_layout
            bundle["mapper_params"] = {
                "k": self.mapper.k,
                "w": self.mapper.w,
                "min_chain_score": self.mapper.min_chain_score,
                "min_chain_anchors": self.mapper.min_chain_anchors,
                "region_padding": self.mapper.region_padding,
                "all_chains": self.mapper.all_chains,
            }
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=get_context("spawn"),
            initializer=_init_worker,
            initargs=(bundle,),
        )

    def warm(self, *, delay: float = 0.2, timeout: Optional[float] = 60.0) -> List[int]:
        """Spawn and initialise every worker now; returns their pids.

        Each worker pays interpreter start-up, imports and segment
        attachment exactly once; warming moves that cost out of the first
        submitted wave (service-style callers warm at deploy time).
        """
        self.start()
        from concurrent.futures import wait

        futures = [
            self._pool.submit(_worker_ping, delay) for _ in range(self.workers)
        ]
        wait(futures, timeout=timeout)
        return sorted({f.result() for f in futures if f.done() and not f.cancelled()})

    # ------------------------------------------------------------------ #
    def submit_wave(self, pairs: Sequence[Tuple[str, str]], *, wave_id=None):
        """Dispatch one wave of (pattern, text) pairs; returns its future.

        The pairs are packed into a per-wave shared segment and only the
        :class:`SegmentLayout` crosses the process boundary.  The segment
        is unlinked automatically when the wave completes (or fails, or is
        cancelled) — :meth:`close` sweeps any still outstanding.
        ``wave_id`` labels the wave in worker-side trace spans.
        """
        self.start()
        traced = self.tracer.enabled
        meta = {"wave_id": wave_id} if wave_id is not None else None
        segment, layout = pack_pairs(pairs, meta=meta)
        self._segment_names.append(segment.name)
        task = _worker_align_traced if traced else _worker_align
        try:
            future = self._pool.submit(task, layout)
        except BaseException:
            # Submission can fail after the segment exists (pool already
            # broken by a worker crash, or shutting down) — the segment
            # must not outlive the failed handoff.
            segment.unlink()
            raise
        self._wave_segments[future] = segment
        future.add_done_callback(self._release_wave_segment)
        if not traced:
            return future
        # Traced waves resolve to (alignments, spans, worker name); callers
        # must still see a future of bare alignments, so wrap: absorb the
        # worker spans here and resolve the outer future with the payload.
        from concurrent.futures import Future

        outer: Future = Future()
        outer.set_running_or_notify_cancel()

        def _absorb(done) -> None:
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            alignments, records, worker_name = done.result()
            self.tracer.absorb(records, process_name=worker_name)
            outer.set_result(alignments)

        future.add_done_callback(_absorb)
        return outer

    def submit_map(self, name: str, sequence: str):
        """Dispatch one read-mapping task against the shared index."""
        if self.mapper is None:
            raise RuntimeError("executor was built without a mapper")
        self.start()
        return self._pool.submit(_worker_map, name, sequence)

    def run_alignments(self, pairs: Sequence[Tuple[str, str]]) -> List:
        """Align ``pairs`` across the pool; results in input order.

        The batch is split into ``workers`` contiguous chunks, each
        dispatched as one wave, and the per-chunk results concatenated —
        order in, order out, byte-identical to the in-process engine.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        self.start()
        chunk_count = min(self.workers, len(pairs))
        size = math.ceil(len(pairs) / chunk_count)
        futures = [
            self.submit_wave(pairs[start : start + size])
            for start in range(0, len(pairs), size)
        ]
        out: List = []
        for future in futures:
            out.extend(future.result())
        return out

    # ------------------------------------------------------------------ #
    def _release_wave_segment(self, future) -> None:
        segment = self._wave_segments.pop(future, None)
        if segment is not None:
            segment.unlink()

    def outstanding_waves(self) -> int:
        """Waves whose segments are still owned (in flight)."""
        return len(self._wave_segments)

    def segment_names(self) -> List[str]:
        """Every segment name this executor ever created (test hook)."""
        return list(self._segment_names)

    def close(self, *, cancel: bool = False) -> None:
        """Shut the pool down and unlink every owned segment (idempotent).

        ``cancel=True`` drops queued waves instead of draining them (the
        mid-stream cancellation path); their segments are unlinked either
        way.
        """
        self._closed = True
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=cancel)
        for segment in list(self._wave_segments.values()):
            segment.unlink()
        self._wave_segments.clear()
        for segment in self._resources:
            segment.unlink()
        self._resources.clear()

    def __enter__(self) -> "SharedMemoryExecutor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-exit safety net
        try:
            self.close()
        except Exception:
            pass

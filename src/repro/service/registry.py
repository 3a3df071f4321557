"""Reference registry: build each genome's index once, share it everywhere.

Building a :class:`~repro.mapping.mapper.Mapper` (and hosting its genome +
:class:`~repro.mapping.index.MinimizerIndex` in shared memory) is the
expensive, per-reference part of serving alignment requests.  A service
front-end sees the *same* reference from many independent clients, so the
registry caches those builds keyed by **genome identity** — a digest of the
chromosome names and sequences, not object identity — plus the mapper
parameters that shape the index:

* :meth:`ReferenceRegistry.mapper` — one in-process mapper per
  (genome, parameters), shared by every request that maps reads;
* :meth:`ReferenceRegistry.hosted_layouts` — the genome/index shared
  segments, hosted once and **owned by the registry** (unlinked at
  :meth:`close`, never by borrowing executors);
* :meth:`ReferenceRegistry.executor` — a
  :class:`~repro.parallel.shm.SharedMemoryExecutor` built with
  ``shared_layouts`` pointing at the registry's segments, so multiple
  executors (different worker counts, different requests) attach the same
  physical pages.

``stats`` counts builds versus cache hits, which the registry tests and
the E3 experiment report.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

__all__ = ["ReferenceRegistry", "genome_key"]


def genome_key(genome) -> str:
    """Content digest identifying a reference genome.

    Two genome objects with the same ordered chromosome names and
    sequences share a key regardless of object identity; ``genome`` is
    anything exposing an ordered ``chromosomes`` name→sequence mapping
    (the same contract as :func:`repro.parallel.shm.host_genome`).
    """
    digest = hashlib.sha1()
    for name in genome.chromosomes:
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(genome.chromosomes[name].encode("ascii"))
        digest.update(b"\0")
    return digest.hexdigest()


def _params_key(mapper_params: Dict[str, object]) -> Tuple:
    return tuple(sorted(mapper_params.items()))


class ReferenceRegistry:
    """Cache of mappers, hosted segments and executors per reference.

    The registry owns everything it builds: :meth:`close` (or the
    context-manager exit) shuts down cached executors and unlinks hosted
    segments.  Executors handed out by :meth:`executor` must therefore not
    outlive the registry — the service front-end holds one registry for
    its whole lifetime, which is the intended shape.
    """

    def __init__(self) -> None:
        self._mappers: Dict[Tuple, object] = {}
        self._hosted: Dict[Tuple, Tuple] = {}
        self._executors: Dict[Tuple, object] = {}
        self._closed = False
        #: Build-versus-reuse evidence, per resource kind.
        self.stats = {
            "mapper_builds": 0,
            "mapper_hits": 0,
            "host_builds": 0,
            "host_hits": 0,
            "executor_builds": 0,
            "executor_hits": 0,
        }

    # ------------------------------------------------------------------ #
    def mapper(self, genome, **mapper_params):
        """The shared mapper for ``genome`` under ``mapper_params``.

        Built (and its minimizer index indexed) on first use per
        (genome identity, parameters); every later call with an
        identical-content genome returns the same instance.
        """
        self._check_open()
        key = (genome_key(genome), _params_key(mapper_params))
        mapper = self._mappers.get(key)
        if mapper is None:
            from repro.mapping.mapper import Mapper

            mapper = Mapper(genome, **mapper_params)
            self._mappers[key] = mapper
            self.stats["mapper_builds"] += 1
        else:
            self.stats["mapper_hits"] += 1
        return mapper

    def hosted_layouts(self, genome, **mapper_params):
        """The ``(genome_layout, index_layout)`` shared segments for ``genome``.

        Hosted once per (genome identity, parameters); the registry owns
        the segments and unlinks them at :meth:`close`.  Hand the layouts
        to ``SharedMemoryExecutor(shared_layouts=...)`` so the executor
        attaches instead of hosting its own copies.
        """
        self._check_open()
        key = (genome_key(genome), _params_key(mapper_params))
        hosted = self._hosted.get(key)
        if hosted is None:
            from repro.parallel.shm import host_genome, host_index

            mapper = self.mapper(genome, **mapper_params)
            genome_segment, genome_layout = host_genome(mapper.genome)
            index_segment, index_layout = host_index(mapper.index)
            hosted = (genome_segment, genome_layout, index_segment, index_layout)
            self._hosted[key] = hosted
            self.stats["host_builds"] += 1
        else:
            self.stats["host_hits"] += 1
        return hosted[1], hosted[3]

    def executor(
        self,
        genome,
        *,
        workers: int = 2,
        config=None,
        warm: bool = False,
        **mapper_params,
    ):
        """A shared-memory executor attached to the registry's segments.

        Cached per (genome identity, mapper parameters, config, workers);
        ``warm=True`` spawns and initialises every worker before returning.
        The executor borrows the registry's hosted genome/index segments —
        closing it never unlinks them.
        """
        self._check_open()
        from repro.core.config import GenASMConfig

        config = config if config is not None else GenASMConfig()
        key = (genome_key(genome), _params_key(mapper_params), config, workers)
        executor = self._executors.get(key)
        if executor is None:
            from repro.parallel.shm import SharedMemoryExecutor

            executor = SharedMemoryExecutor(
                workers,
                config=config,
                mapper=self.mapper(genome, **mapper_params),
                shared_layouts=self.hosted_layouts(genome, **mapper_params),
            )
            self._executors[key] = executor
            self.stats["executor_builds"] += 1
        else:
            self.stats["executor_hits"] += 1
        if warm:
            executor.warm()
        return executor

    # ------------------------------------------------------------------ #
    def hosted_segment_names(self):
        """Names of every segment the registry hosts (test hook)."""
        return [
            segment.name
            for hosted in self._hosted.values()
            for segment in (hosted[0], hosted[2])
        ]

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("reference registry already closed")

    def close(self) -> None:
        """Shut down cached executors and unlink hosted segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()
        for hosted in self._hosted.values():
            hosted[0].unlink()
            hosted[2].unlink()
        self._hosted.clear()
        self._mappers.clear()

    def __enter__(self) -> "ReferenceRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-exit safety net
        try:
            self.close()
        except Exception:
            pass

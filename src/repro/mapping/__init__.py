"""Minimizer-based read mapping (the minimap2 role in the paper's pipeline).

The paper obtains candidate (read, reference) pairs by running minimap2
with ``-P`` (report all chains) and aligning every candidate location with
every aligner under test.  This package provides the same artefact, with
every step over NumPy arrays:

* :mod:`repro.mapping.minimizers` — (w, k) minimizer extraction;
* :mod:`repro.mapping.index` — a sorted-hash (CSR) table of reference
  minimizers, searched once per read;
* :mod:`repro.mapping.chaining` — colinear anchor chaining;
* :mod:`repro.mapping.mapper` — the end-to-end mapper producing
  :class:`~repro.mapping.mapper.CandidateMapping` objects (all chains, not
  just the best one).
"""

from repro.mapping.minimizers import Minimizers, extract_minimizers
from repro.mapping.index import MinimizerIndex
from repro.mapping.chaining import Chain, chain_anchors
from repro.mapping.mapper import CandidateMapping, Mapper

__all__ = [
    "Minimizers",
    "extract_minimizers",
    "MinimizerIndex",
    "Chain",
    "chain_anchors",
    "CandidateMapping",
    "Mapper",
]

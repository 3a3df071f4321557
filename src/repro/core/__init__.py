"""Core GenASM algorithm: bitvector DP (DC), traceback (TB), the three
algorithmic improvements from the IPPS 2022 paper, and the windowed
long-read aligner."""

from repro.core.aligner import GenASMAligner, align_pair
from repro.core.alignment import Alignment
from repro.core.cigar import Cigar, CigarOp
from repro.core.config import GenASMConfig
from repro.core.genasm_dc import genasm_dc
from repro.core.genasm_tb import genasm_traceback
from repro.core.metrics import AccessCounter, MemoryFootprint

__all__ = [
    "GenASMAligner",
    "align_pair",
    "Alignment",
    "Cigar",
    "CigarOp",
    "GenASMConfig",
    "genasm_dc",
    "genasm_traceback",
    "AccessCounter",
    "MemoryFootprint",
]

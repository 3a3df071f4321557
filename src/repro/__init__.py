"""repro — reproduction of *Algorithmic Improvement and GPU Acceleration of
the GenASM Algorithm* (Lindegger et al., IPPS 2022).

The package is organised as a set of substrates plus the paper's core
contribution:

``repro.core``
    The GenASM bitvector alignment algorithm (DC + TB), the three
    algorithmic improvements introduced by the paper, and the windowed
    long-read aligner built on top of them.
``repro.baselines``
    The comparison aligners used in the paper's evaluation: a KSW2-like
    banded affine-gap aligner, an Edlib-like Myers bit-vector aligner, and
    full dynamic-programming oracles used for ground truth.
``repro.genomics``
    Synthetic genomes, a PBSIM2-like long-read simulator, an Illumina-like
    short-read simulator and FASTA/FASTQ I/O.
``repro.mapping``
    A minimizer-based seed-and-chain read mapper that produces the
    candidate (read, reference) pairs the paper aligns (the role minimap2
    plays in the paper).
``repro.gpu``
    A SIMT execution-model simulator standing in for the NVIDIA A6000 used
    in the paper, plus GenASM GPU kernels expressed against it.
``repro.parallel``
    The worker pool: a warm spawn pool running the vectorized engine on
    waves whose pairs go in, and alignments come out, by pickle.
``repro.batch``
    The vectorized batched-alignment engine: many window pairs evaluated
    in lockstep as NumPy structure-of-arrays uint64 lanes, byte-identical
    to the scalar path.
``repro.pipeline``
    The streaming pipeline: ingest, mapping, wave accumulation and
    (optionally process-sharded) wave execution overlapped behind
    ``StreamingPipeline``, emitting results in input order.
``repro.io``
    Standard alignment output: SAM/PAF emitters with minimap2-style MAPQ,
    usable offline (``write_sam``/``write_paf``) or as streaming sinks on
    the pipeline's ``sink=`` seam.
``repro.harness``
    Dataset construction, the experiment registry (E1–E5 and ablations),
    the declarative experiment-grid runner (``repro.harness.grid``) and
    report generation.

Quickstart::

    from repro import GenASMAligner
    aln = GenASMAligner().align("ACGTACGTAC", "ACGAACGTTAC")
    print(aln.edit_distance, aln.cigar)
"""

from repro.batch import BatchAlignmentEngine
from repro.core.aligner import GenASMAligner, align_pair
from repro.core.alignment import Alignment
from repro.core.cigar import Cigar, CigarOp
from repro.core.config import GenASMConfig
from repro.pipeline import MappedAlignment, PipelineStats, StreamingPipeline

__all__ = [
    "GenASMAligner",
    "GenASMConfig",
    "Alignment",
    "Cigar",
    "CigarOp",
    "align_pair",
    "BatchAlignmentEngine",
    "StreamingPipeline",
    "MappedAlignment",
    "PipelineStats",
    "__version__",
]

__version__ = "1.0.0"

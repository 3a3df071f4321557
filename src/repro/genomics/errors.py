"""Sequencing-error models.

A :class:`ErrorModel` describes per-base substitution/insertion/deletion
probabilities; :func:`mutate_sequence` applies it and returns both the
mutated sequence and the ground-truth edit operations, so read simulators
can report the *true* edit distance of every simulated read — the accuracy
experiments compare aligner output against this ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.cigar import Cigar, CigarOp
from repro.genomics.sequences import DNA_ALPHABET

__all__ = ["ErrorModel", "mutate_sequence"]


@dataclass(frozen=True)
class ErrorModel:
    """Independent per-base error channel.

    Rates are probabilities per reference base consumed.  The defaults
    approximate PacBio CLR chemistry (~10 % total error dominated by
    insertions), which is what PBSIM2 produces for the paper's dataset.
    """

    substitution_rate: float = 0.02
    insertion_rate: float = 0.05
    deletion_rate: float = 0.03

    def __post_init__(self) -> None:
        for name in ("substitution_rate", "insertion_rate", "deletion_rate"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.total_rate >= 1.0:
            raise ValueError("total error rate must be below 1.0")

    @property
    def total_rate(self) -> float:
        """Total per-base error probability."""
        return self.substitution_rate + self.insertion_rate + self.deletion_rate

    @property
    def accuracy(self) -> float:
        """Expected per-base accuracy (1 − total error rate)."""
        return 1.0 - self.total_rate

    # Convenience presets -------------------------------------------------- #
    @classmethod
    def pacbio_clr(cls) -> "ErrorModel":
        """~10 % error, insertion-dominated (PacBio CLR / PBSIM2 default)."""
        return cls(substitution_rate=0.02, insertion_rate=0.05, deletion_rate=0.03)

    @classmethod
    def illumina(cls) -> "ErrorModel":
        """~0.5 % error, substitution-dominated (Illumina short reads)."""
        return cls(substitution_rate=0.004, insertion_rate=0.0005, deletion_rate=0.0005)

    @classmethod
    def exact(cls) -> "ErrorModel":
        """No errors at all (useful in tests)."""
        return cls(0.0, 0.0, 0.0)


def mutate_sequence(
    sequence: str,
    model: ErrorModel,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[str, Cigar]:
    """Apply the error channel to ``sequence``.

    Returns the mutated sequence and the CIGAR describing the mutated
    sequence (as the pattern/read) against the original (as the text), so
    ``cigar.edit_distance`` is the true number of introduced edits.
    """
    rng = rng if rng is not None else np.random.default_rng()
    out: List[str] = []
    ops: List[CigarOp] = []
    bases = DNA_ALPHABET
    sub, ins, dele = model.substitution_rate, model.insertion_rate, model.deletion_rate

    for base in sequence:
        # Insertions before the base (geometric, at most a couple in practice).
        while rng.random() < ins:
            out.append(bases[rng.integers(0, 4)])
            ops.append(CigarOp.INSERTION)
        r = rng.random()
        if r < dele:
            ops.append(CigarOp.DELETION)
            continue
        if r < dele + sub:
            choices = [b for b in bases if b != base]
            out.append(choices[rng.integers(0, 3)])
            ops.append(CigarOp.MISMATCH)
        else:
            out.append(base)
            ops.append(CigarOp.MATCH)
    # Trailing insertions.
    while rng.random() < ins:
        out.append(bases[rng.integers(0, 4)])
        ops.append(CigarOp.INSERTION)

    return "".join(out), Cigar.from_ops(ops)

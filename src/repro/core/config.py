"""Configuration of the GenASM aligner and its algorithmic improvements.

The defaults mirror the GenASM / IPPS-2022 setup for long reads: windows of
``W = 64`` characters with an overlap of ``O = 24`` characters between
consecutive windows, and a per-window error budget ``k`` derived from the
expected error rate.  All three improvements introduced by the paper are
enabled by default; the baseline (MICRO 2020) behaviour is obtained with
:meth:`GenASMConfig.baseline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["GenASMConfig"]


@dataclass(frozen=True)
class GenASMConfig:
    """Parameters of the (windowed) GenASM aligner.

    Attributes
    ----------
    window_size:
        ``W`` — number of pattern characters aligned per window.  GenASM
        uses 64 so that one window's bitvector fits a machine word.
    window_overlap:
        ``O`` — number of trailing window columns whose traceback is
        discarded and re-aligned by the next window.  Overlap absorbs the
        error of cutting the alignment at an arbitrary column.
    error_rate:
        Expected per-window error rate used to derive the error budget
        ``k`` when :attr:`max_errors` is not given explicitly.
    max_errors:
        ``k`` — per-window error budget (number of bitvector rows minus
        one).  ``None`` derives it as ``ceil(window_size * error_rate)``
        clamped to at least 1 and at most ``window_size``.
    text_slack:
        Extra text characters given to each window beyond the pattern
        window length, so that deletions/insertions do not starve the text.
    entry_compression:
        Improvement 1 — store only the ANDed bitvector ``R[j][d]`` instead
        of the four intermediate vectors, re-deriving traceback operations
        on the fly.
    early_termination:
        Improvement 2 — evaluate rows (error levels) outermost and stop as
        soon as a row already contains the full-window solution.
    traceback_band:
        Improvement 3 — store only the diagonal band of bits that the
        traceback can reach, instead of full-width bitvectors.
    word_bits:
        Machine word width used by the memory model and the GPU kernels.
    match_priority:
        Traceback tie-break order.  GenASM prefers matches, then
        substitutions, then deletions, then insertions; keeping the order
        configurable lets tests demonstrate that the edit distance is
        invariant to it.
    traceback_skip_ahead:
        Consume whole match runs per lockstep traceback step (only
        effective when ``M`` leads :attr:`match_priority`; byte-identical
        either way).  Exists as a toggle so the differential harness can
        sweep it; leave on.
    """

    window_size: int = 64
    window_overlap: int = 24
    error_rate: float = 0.15
    max_errors: Optional[int] = None
    text_slack: int = 8
    entry_compression: bool = True
    early_termination: bool = True
    traceback_band: bool = True
    word_bits: int = 64
    match_priority: str = "MSDI"
    traceback_skip_ahead: bool = True

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if not (0 <= self.window_overlap < self.window_size):
            raise ValueError("window_overlap must satisfy 0 <= O < W")
        if not (0.0 <= self.error_rate <= 1.0):
            raise ValueError("error_rate must be in [0, 1]")
        if self.max_errors is not None and self.max_errors < 0:
            raise ValueError("max_errors must be non-negative")
        if self.text_slack < 0:
            raise ValueError("text_slack must be non-negative")
        if sorted(self.match_priority) != sorted("MSDI"):
            raise ValueError("match_priority must be a permutation of 'MSDI'")

    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        """Effective per-window error budget."""
        if self.max_errors is not None:
            return min(self.max_errors, self.window_size)
        derived = int(-(-self.window_size * self.error_rate // 1))  # ceil
        return max(1, min(derived, self.window_size))

    @property
    def window_step(self) -> int:
        """Number of committed pattern columns per window (``W − O``)."""
        return self.window_size - self.window_overlap

    @property
    def improved(self) -> bool:
        """Whether any of the paper's improvements is enabled."""
        return self.entry_compression or self.early_termination or self.traceback_band

    # ------------------------------------------------------------------ #
    @classmethod
    def baseline(cls, **overrides) -> "GenASMConfig":
        """GenASM as published at MICRO 2020, without the IPPS improvements."""
        cfg = cls(
            entry_compression=False,
            early_termination=False,
            traceback_band=False,
        )
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def improved_default(cls, **overrides) -> "GenASMConfig":
        """All three IPPS-2022 improvements enabled (the default)."""
        cfg = cls()
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def short_read(cls, read_length: int = 150, **overrides) -> "GenASMConfig":
        """A configuration suited to Illumina-length reads.

        Short reads are aligned in a single window covering the whole read,
        with a tighter error budget (short reads have ~1 % error rates).
        """
        cfg = cls(
            window_size=max(read_length, 1),
            window_overlap=0,
            error_rate=0.05,
            text_slack=max(4, read_length // 16),
        )
        return replace(cfg, **overrides) if overrides else cfg

    def with_improvements(
        self,
        *,
        entry_compression: Optional[bool] = None,
        early_termination: Optional[bool] = None,
        traceback_band: Optional[bool] = None,
    ) -> "GenASMConfig":
        """Return a copy with the given improvement toggles overridden."""
        return replace(
            self,
            entry_compression=self.entry_compression
            if entry_compression is None
            else entry_compression,
            early_termination=self.early_termination
            if early_termination is None
            else early_termination,
            traceback_band=self.traceback_band
            if traceback_band is None
            else traceback_band,
        )

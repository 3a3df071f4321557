"""Memory-footprint and memory-access accounting (experiments E3 and E4).

The IPPS 2022 paper's headline algorithmic results are a **24× reduction in
memory footprint** and a **12× reduction in the number of memory accesses**
to the GenASM DP table.  Both are *algorithmic* properties — they depend on
the window size ``W``, the error budget ``k`` and the number of DP rows
actually evaluated — so they can be reproduced exactly without the paper's
hardware.  This module provides:

* :class:`AccessCounter` — a counter threaded through the DC and TB kernels
  that tallies DP-table reads and writes (in units of stored entries) and
  the corresponding byte traffic.
* :class:`MemoryFootprint` — an analytic model of the bytes of DP-table
  state a single window requires, for the baseline and for any combination
  of the three improvements.

The "footprint" follows the paper's definition: the working set of the
traceback-relevant DP state for one alignment window, i.e. what a GPU
thread block has to keep resident (baseline: in global memory, improved:
in shared memory/registers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import GenASMConfig
from repro.core.improvements import entry_bytes

__all__ = ["AccessCounter", "MemoryFootprint", "footprint_report"]


@dataclass
class AccessCounter:
    """Tallies of DP-table traffic produced while running GenASM.

    All counts are in *entry accesses* (one stored bitvector word read or
    written); ``bytes_read``/``bytes_written`` additionally weight each
    access by the width of the stored unit, which is what the traceback-band
    improvement shrinks.
    """

    dp_writes: int = 0
    dp_reads: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    entries_computed: int = 0
    rows_computed: int = 0
    rows_skipped: int = 0
    tb_steps: int = 0
    windows: int = 0

    def record_write(self, count: int = 1, unit_bytes: int = 8) -> None:
        """Record ``count`` DP-table writes of ``unit_bytes`` each."""
        self.dp_writes += count
        self.bytes_written += count * unit_bytes

    def record_read(self, count: int = 1, unit_bytes: int = 8) -> None:
        """Record ``count`` DP-table reads of ``unit_bytes`` each."""
        self.dp_reads += count
        self.bytes_read += count * unit_bytes

    @property
    def total_accesses(self) -> int:
        """Total DP-table accesses (reads + writes)."""
        return self.dp_reads + self.dp_writes

    @property
    def total_bytes(self) -> int:
        """Total DP-table byte traffic (reads + writes)."""
        return self.bytes_read + self.bytes_written

    def merge(self, other: "AccessCounter") -> "AccessCounter":
        """Accumulate another counter into this one and return ``self``."""
        for name in (
            "dp_writes",
            "dp_reads",
            "bytes_written",
            "bytes_read",
            "entries_computed",
            "rows_computed",
            "rows_skipped",
            "tb_steps",
            "windows",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reports."""
        return {
            "dp_writes": self.dp_writes,
            "dp_reads": self.dp_reads,
            "total_accesses": self.total_accesses,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "total_bytes": self.total_bytes,
            "entries_computed": self.entries_computed,
            "rows_computed": self.rows_computed,
            "rows_skipped": self.rows_skipped,
            "tb_steps": self.tb_steps,
            "windows": self.windows,
        }


@dataclass(frozen=True)
class MemoryFootprint:
    """Analytic per-window DP-table footprint model.

    Parameters mirror one GenASM window: pattern window of ``m`` characters,
    text window of ``n`` characters, error budget ``k``.  The model follows
    the storage layout of the implementations in :mod:`repro.core`:

    baseline (MICRO 2020)
        every text position × every error level stores **four** intermediate
        bitvectors (match, substitution, insertion, deletion), each
        ``ceil(m / 64)`` 64-bit words wide;
    entry compression
        one stored bitvector instead of four;
    traceback band
        only ``min(m, 2k + 2)`` bits of each stored bitvector are reachable
        by the traceback, so entries shrink to the smallest power-of-two
        storage unit that holds the band;
    early termination
        only rows ``0 … d*`` are evaluated and therefore stored, where
        ``d*`` is the actual window edit distance (``rows_used``).

    Both entry sizes come from :func:`repro.core.improvements.entry_bytes`,
    the rule the DC kernels charge their writes by.
    """

    pattern_window: int
    text_window: int
    max_errors: int
    rows_used: Optional[int] = None
    committed_columns: Optional[int] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(
        cls, config: GenASMConfig, rows_used: Optional[int] = None
    ) -> "MemoryFootprint":
        """Build the model for one (non-final) window of ``config``."""
        return cls(
            pattern_window=config.window_size,
            text_window=config.window_size + config.text_slack,
            max_errors=config.k,
            rows_used=rows_used,
            committed_columns=config.window_step,
        )

    # -- building blocks ------------------------------------------------ #
    def rows(self, early_termination: bool) -> int:
        """Number of DP rows stored (error levels), honouring early termination."""
        total = self.max_errors + 1
        if early_termination and self.rows_used is not None:
            return max(1, min(self.rows_used, total))
        return total

    def columns(self, traceback_band: bool) -> int:
        """Number of text columns whose entries are stored.

        The traceback of a non-final window stops after the committed
        ``W − O`` pattern columns, so (improvement 3) only the last
        ``committed + k + 1`` text columns can ever be read back.
        """
        if not traceback_band or self.committed_columns is None:
            return self.text_window
        reachable = self.committed_columns + self.max_errors + 2
        return min(self.text_window, reachable)

    # -- footprints ------------------------------------------------------ #
    def bytes_for(
        self,
        *,
        entry_compression: bool,
        early_termination: bool,
        traceback_band: bool,
    ) -> int:
        """DP-table bytes for one window under the given improvement set."""
        vectors_per_entry = 1 if entry_compression else 4
        entry = entry_bytes(self.pattern_window, self.max_errors, traceback_band)
        rows = self.rows(early_termination)
        columns = self.columns(traceback_band)
        return columns * rows * vectors_per_entry * entry

    def bytes_for_config(self, config: GenASMConfig) -> int:
        """DP-table bytes for one window of the given configuration."""
        return self.bytes_for(
            entry_compression=config.entry_compression,
            early_termination=config.early_termination,
            traceback_band=config.traceback_band,
        )

    @property
    def baseline_bytes(self) -> int:
        """Footprint of baseline GenASM-TB storage."""
        return self.bytes_for(
            entry_compression=False, early_termination=False, traceback_band=False
        )

    @property
    def improved_bytes(self) -> int:
        """Footprint with all three improvements enabled."""
        return self.bytes_for(
            entry_compression=True, early_termination=True, traceback_band=True
        )

    @property
    def reduction_factor(self) -> float:
        """Baseline / improved footprint ratio (the paper reports 24×)."""
        return self.baseline_bytes / max(1, self.improved_bytes)

    def breakdown(self) -> Dict[str, float]:
        """Per-improvement footprint contributions, for the ablation bench."""
        base = self.baseline_bytes
        out: Dict[str, float] = {"baseline_bytes": base}
        for name, kwargs in (
            ("entry_compression", dict(entry_compression=True, early_termination=False, traceback_band=False)),
            ("early_termination", dict(entry_compression=False, early_termination=True, traceback_band=False)),
            ("traceback_band", dict(entry_compression=False, early_termination=False, traceback_band=True)),
            ("all", dict(entry_compression=True, early_termination=True, traceback_band=True)),
        ):
            b = self.bytes_for(**kwargs)
            out[f"{name}_bytes"] = b
            out[f"{name}_reduction"] = base / max(1, b)
        return out


def footprint_report(
    config: GenASMConfig, rows_used: Optional[int] = None
) -> Dict[str, float]:
    """One-call footprint summary used by benchmarks and EXPERIMENTS.md."""
    model = MemoryFootprint.from_config(config, rows_used=rows_used)
    report = model.breakdown()
    report["reduction_factor"] = model.reduction_factor
    report["baseline_kib"] = model.baseline_bytes / 1024.0
    report["improved_kib"] = model.improved_bytes / 1024.0
    return report

"""Public GenASM aligner API.

:class:`GenASMAligner` is the user-facing entry point of the library: it
wraps the windowed GenASM-DC/TB pipeline, selects between the baseline
(MICRO 2020) behaviour and the improved (IPPS 2022) behaviour through
:class:`repro.core.config.GenASMConfig`, and attaches the bookkeeping the
experiments need (windows, DP rows evaluated, stored bytes, DP-table
accesses).

Typical use::

    from repro import GenASMAligner, GenASMConfig

    aligner = GenASMAligner()                       # improved algorithm
    baseline = GenASMAligner(GenASMConfig.baseline())

    alignment = aligner.align(read, reference_span)
    print(alignment.edit_distance, alignment.cigar)
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.alignment import Alignment
from repro.core.config import GenASMConfig
from repro.core.genasm_dc import genasm_distance_only
from repro.core.metrics import AccessCounter, MemoryFootprint
from repro.core.windowing import align_windowed

__all__ = ["GenASMAligner", "align_pair"]


class GenASMAligner:
    """Windowed GenASM aligner (baseline or improved, per configuration).

    Parameters
    ----------
    config:
        Algorithm parameters and improvement toggles.  Defaults to the
        improved IPPS-2022 configuration; use
        :meth:`GenASMConfig.baseline` for MICRO-2020 GenASM.
    name:
        Label attached to produced alignments (useful when several aligner
        instances are compared in one report).
    """

    def __init__(
        self, config: Optional[GenASMConfig] = None, *, name: Optional[str] = None
    ) -> None:
        self.config = config if config is not None else GenASMConfig()
        self.name = name or (
            "genasm-improved" if self.config.improved else "genasm-baseline"
        )

    # ------------------------------------------------------------------ #
    def align(
        self,
        pattern: str,
        text: str,
        *,
        counter: Optional[AccessCounter] = None,
    ) -> Alignment:
        """Align ``pattern`` (read) against a prefix of ``text`` (reference).

        Returns an :class:`Alignment` whose CIGAR consumes the whole
        pattern and a prefix of the text (semi-global, start-anchored).
        The alignment's ``metadata`` carries the per-pair measurements used
        by experiments E3/E4: stored DP bytes, DP accesses, rows computed
        and window count.
        """
        counter = counter if counter is not None else AccessCounter()
        result = align_windowed(pattern, text, self.config, counter=counter)
        footprint = MemoryFootprint.from_config(self.config)
        metadata = {
            "windows": result.windows,
            "rows_computed": result.rows_computed,
            "peak_window_bytes": result.peak_window_bytes,
            "total_stored_bytes": result.total_stored_bytes,
            "dp_accesses": counter.total_accesses,
            "dp_bytes": counter.total_bytes,
            "model_window_bytes": footprint.bytes_for_config(self.config),
        }
        return Alignment(
            pattern=pattern,
            text=text,
            cigar=result.cigar,
            edit_distance=result.cigar.edit_distance,
            text_start=0,
            text_end=result.text_consumed,
            aligner=self.name,
            metadata=metadata,
        )

    def align_batch(
        self,
        pairs: Iterable[Tuple[str, str]],
        *,
        counter: Optional[AccessCounter] = None,
    ) -> List[Alignment]:
        """Align a batch of (pattern, text) pairs sequentially.

        A shared :class:`AccessCounter` can be supplied to accumulate
        DP-table traffic over the whole batch (experiment E4 does this).
        """
        return [self.align(p, t, counter=counter) for p, t in pairs]

    def edit_distance(
        self, pattern: str, text: str, max_errors: Optional[int] = None
    ) -> Optional[int]:
        """Edit distance of ``pattern`` vs. the best-matching substring of ``text``.

        Runs GenASM-DC only (no traceback storage); returns ``None`` when
        the distance exceeds ``max_errors``.  Intended for filter-style use
        and for cheap distance queries on short sequences — long sequences
        should use :meth:`align`, whose windowing keeps the cost linear.
        """
        return genasm_distance_only(
            pattern,
            text,
            max_errors,
            early_termination=self.config.early_termination,
        )

    # ------------------------------------------------------------------ #
    def window_footprint(self) -> MemoryFootprint:
        """Analytic per-window memory-footprint model for this configuration."""
        return MemoryFootprint.from_config(self.config)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GenASMAligner(name={self.name!r}, config={self.config!r})"


def align_pair(
    pattern: str, text: str, config: Optional[GenASMConfig] = None
) -> Alignment:
    """One-shot convenience wrapper: align a single pair with GenASM."""
    return GenASMAligner(config).align(pattern, text)

"""Per-request latency accounting for the alignment service.

:class:`~repro.pipeline.stats.PipelineStats` is throughput-shaped: it
answers "how many pairs per second did the waves sustain".  A service has a
second axis — *how long did each client wait* — and tail latency per tenant
is what the paper's "millions of users" framing actually constrains, so
:class:`LatencyStats` records a completion-latency sample per request and
reports nearest-rank percentiles (p50/p95/p99) per tenant and overall.

Samples are kept in a bounded per-tenant window (a long-lived service
serves requests forever); the running count/sum/max stay exact over the
whole run, and the percentiles describe the recent window — the same
bounded-window-plus-exact-aggregates contract
:attr:`PipelineStats.wave_lane_counts <repro.pipeline.stats.PipelineStats.wave_lane_counts>`
follows.

:class:`ServiceStats` bundles both axes: the wave-level
:class:`PipelineStats` the accumulator feeds, the per-tenant
:class:`LatencyStats`, request/pair counters (overall and per submitting
tenant, so fairness analysis can compare submitted vs completed), per-
tenant in-flight high-water marks (the fairness-limit evidence), and a
bounded request-completion order trace that the starvation regression
test reads.

Like :class:`PipelineStats`, everything here also publishes into the
unified metrics registry via :meth:`ServiceStats.publish` (names under
``service_*``; see :mod:`repro.telemetry.metrics` for the scheme and
:mod:`repro.telemetry.exporters` for the text exposition).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.pipeline.stats import PipelineStats

__all__ = [
    "DEFAULT_LATENCY_WINDOW",
    "LatencyStats",
    "ServiceStats",
    "percentile",
]

#: Per-tenant latency samples retained for percentile estimation.
DEFAULT_LATENCY_WINDOW = 4096


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 on an empty input).

    Nearest-rank (the classic "smallest value with at least q% of the mass
    at or below it") rather than interpolation: every reported latency is
    one a request actually experienced, and small windows don't invent
    values between two real tails.
    """
    # Validate q unconditionally: an out-of-range quantile is a caller bug
    # regardless of whether samples happen to be empty right now.
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = min(max(1, math.ceil(q / 100.0 * len(ordered))), len(ordered))
    return float(ordered[rank - 1])


class LatencyStats:
    """Bounded per-tenant request-latency samples with exact aggregates.

    ``record(tenant, seconds)`` once per completed request;
    ``summary(tenant)`` (or ``as_dict()`` for every tenant plus the
    cross-tenant ``"*"`` view) reports request counts and p50/p95/p99 /
    mean / max latency in milliseconds.
    """

    def __init__(self, *, window: int = DEFAULT_LATENCY_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self._samples: Dict[str, Deque[float]] = {}
        self._count: Dict[str, int] = {}
        self._sum: Dict[str, float] = {}
        self._max: Dict[str, float] = {}

    def record(self, tenant: str, seconds: float) -> None:
        """Record one request's submit-to-complete latency."""
        window = self._samples.get(tenant)
        if window is None:
            window = self._samples[tenant] = deque(maxlen=self.window)
            self._count[tenant] = 0
            self._sum[tenant] = 0.0
            self._max[tenant] = 0.0
        window.append(seconds)
        self._count[tenant] += 1
        self._sum[tenant] += seconds
        self._max[tenant] = max(self._max[tenant], seconds)

    def tenants(self) -> List[str]:
        return sorted(self._samples)

    def count(self, tenant: Optional[str] = None) -> int:
        """Requests recorded for ``tenant`` (every tenant when ``None``)."""
        if tenant is not None:
            return self._count.get(tenant, 0)
        return sum(self._count.values())

    def summary(self, tenant: Optional[str] = None) -> Dict[str, float]:
        """Latency summary for one tenant (or across all when ``None``).

        Percentiles come from the bounded recent window; ``requests`` /
        ``mean_ms`` / ``max_ms`` are exact over the whole run.
        """
        if tenant is not None:
            samples: List[float] = list(self._samples.get(tenant, ()))
            count = self._count.get(tenant, 0)
            total = self._sum.get(tenant, 0.0)
            peak = self._max.get(tenant, 0.0)
        else:
            samples = [s for window in self._samples.values() for s in window]
            count = sum(self._count.values())
            total = sum(self._sum.values())
            peak = max(self._max.values(), default=0.0)
        return {
            "requests": count,
            "p50_ms": percentile(samples, 50) * 1e3,
            "p95_ms": percentile(samples, 95) * 1e3,
            "p99_ms": percentile(samples, 99) * 1e3,
            "mean_ms": (total / count * 1e3) if count else 0.0,
            "max_ms": peak * 1e3,
        }

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant summaries plus the cross-tenant ``"*"`` aggregate."""
        out = {tenant: self.summary(tenant) for tenant in self.tenants()}
        out["*"] = self.summary()
        return out


#: Request completions retained in the :attr:`ServiceStats.completion_order`
#: trace (enough for fairness tests; bounded for long-lived services).
_COMPLETION_TRACE = 4096


@dataclass
class ServiceStats:
    """Both axes of one service run: wave throughput and request latency.

    Attributes
    ----------
    pipeline:
        The :class:`PipelineStats` the service's accumulator and align
        stage feed — waves, fill efficiency, flush causes.
    latency:
        Per-tenant request-latency percentiles (:class:`LatencyStats`).
    requests_submitted, requests_completed:
        Requests accepted by :meth:`~repro.service.AlignmentService.submit`
        and requests whose futures resolved.
    pairs_submitted, pairs_admitted, pairs_completed:
        Pair-granular progress: queued by clients, admitted into the
        accumulator by the round-robin sweep, and routed back.
    tenant_requests_submitted, tenant_pairs_submitted:
        The same submission counters broken out per tenant (requests and
        pairs accepted under each tenant label).  Paired with the
        per-tenant completion counts :attr:`latency` tracks, these are
        the submitted-vs-completed comparison fairness analysis needs.
    max_inflight:
        Per-tenant high-water mark of pairs admitted-but-unrouted — the
        evidence the per-tenant fairness limit actually bounds.
    completion_order:
        ``(tenant, request_id)`` in the order futures resolved, bounded to
        the most recent entries (the starvation regression reads this).
    """

    pipeline: PipelineStats = field(default_factory=PipelineStats)
    latency: LatencyStats = field(default_factory=LatencyStats)
    requests_submitted: int = 0
    requests_completed: int = 0
    pairs_submitted: int = 0
    pairs_admitted: int = 0
    pairs_completed: int = 0
    tenant_requests_submitted: Dict[str, int] = field(default_factory=dict)
    tenant_pairs_submitted: Dict[str, int] = field(default_factory=dict)
    max_inflight: Dict[str, int] = field(default_factory=dict)
    completion_order: Deque[Tuple[str, int]] = field(
        default_factory=lambda: deque(maxlen=_COMPLETION_TRACE)
    )

    def record_submit(self, tenant: str, pairs: int) -> None:
        """One request of ``pairs`` pairs accepted under ``tenant``."""
        self.requests_submitted += 1
        self.pairs_submitted += pairs
        self.tenant_requests_submitted[tenant] = (
            self.tenant_requests_submitted.get(tenant, 0) + 1
        )
        self.tenant_pairs_submitted[tenant] = (
            self.tenant_pairs_submitted.get(tenant, 0) + pairs
        )

    def record_admitted(self, tenant: str, inflight: int) -> None:
        """One pair entered the accumulator; ``inflight`` is the tenant's new depth."""
        self.pairs_admitted += 1
        if inflight > self.max_inflight.get(tenant, 0):
            self.max_inflight[tenant] = inflight

    def record_request_done(
        self, tenant: str, request_id: int, seconds: float, pairs: int
    ) -> None:
        self.requests_completed += 1
        self.pairs_completed += pairs
        self.latency.record(tenant, seconds)
        self.completion_order.append((tenant, request_id))

    # ------------------------------------------------------------------ #
    def publish(self, registry) -> None:
        """Publish service counters into a telemetry ``MetricsRegistry``.

        Names live under ``service_*`` (and the embedded wave-level stats
        under ``pipeline_*`` via :meth:`PipelineStats.publish
        <repro.pipeline.stats.PipelineStats.publish>`).  Publishing is a
        snapshot — counters are ``set_total``'d, so re-publishing the same
        stats never double-counts.  See :mod:`repro.telemetry.metrics`.
        """
        for name, value in (
            ("service_requests_submitted_total", self.requests_submitted),
            ("service_requests_completed_total", self.requests_completed),
            ("service_pairs_submitted_total", self.pairs_submitted),
            ("service_pairs_admitted_total", self.pairs_admitted),
            ("service_pairs_completed_total", self.pairs_completed),
        ):
            registry.counter(name).set_total(value)
        for tenant, count in sorted(self.tenant_requests_submitted.items()):
            registry.counter(
                "service_tenant_requests_submitted_total", tenant=tenant
            ).set_total(count)
        for tenant, pairs in sorted(self.tenant_pairs_submitted.items()):
            registry.counter(
                "service_tenant_pairs_submitted_total", tenant=tenant
            ).set_total(pairs)
        for tenant in self.latency.tenants():
            registry.counter(
                "service_tenant_requests_completed_total", tenant=tenant
            ).set_total(self.latency.count(tenant))
        for tenant, peak in sorted(self.max_inflight.items()):
            registry.gauge(
                "service_max_inflight_pairs", tenant=tenant
            ).set(peak)
        for tenant, latency in self.latency.as_dict().items():
            label = {"tenant": tenant}
            for quantile in ("p50", "p95", "p99"):
                registry.gauge(
                    "service_request_latency_ms", quantile=quantile, **label
                ).set(latency[f"{quantile}_ms"])
            registry.gauge(
                "service_request_latency_ms", quantile="mean", **label
            ).set(latency["mean_ms"])
            registry.gauge(
                "service_request_latency_ms", quantile="max", **label
            ).set(latency["max_ms"])
        self.pipeline.publish(registry)

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        """Flat report-friendly view (what the E3 experiment rows embed)."""
        return {
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "pairs_submitted": self.pairs_submitted,
            "pairs_admitted": self.pairs_admitted,
            "pairs_completed": self.pairs_completed,
            "tenant_submitted": {
                tenant: {
                    "requests": self.tenant_requests_submitted.get(tenant, 0),
                    "pairs": self.tenant_pairs_submitted.get(tenant, 0),
                }
                for tenant in sorted(self.tenant_requests_submitted)
            },
            "max_inflight": dict(self.max_inflight),
            "latency": self.latency.as_dict(),
            "pipeline": self.pipeline.as_dict(),
        }

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"requests={self.requests_completed}/{self.requests_submitted} "
            f"pairs={self.pairs_completed}/{self.pairs_submitted} "
            f"waves={self.pipeline.waves} "
            f"fill={self.pipeline.wave_fill_efficiency:.3f} "
            f"flushes={self.pipeline.flushes}"
        ]
        for tenant, summary in sorted(self.latency.as_dict().items()):
            if tenant == "*":
                submitted_part = ""
            else:
                submitted = self.tenant_requests_submitted.get(tenant, 0)
                submitted_part = f"/{submitted}"
            lines.append(
                f"  tenant {tenant}: requests={summary['requests']}"
                f"{submitted_part} "
                f"p50={summary['p50_ms']:.2f}ms p95={summary['p95_ms']:.2f}ms "
                f"p99={summary['p99_ms']:.2f}ms max={summary['max_ms']:.2f}ms"
            )
        return "\n".join(lines)

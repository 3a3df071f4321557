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
bounded-window-plus-exact-totals contract
:attr:`PipelineStats.wave_lane_counts <repro.pipeline.stats.PipelineStats.wave_lane_counts>`
follows.

:class:`ServiceStats` bundles both axes: the wave-level
:class:`PipelineStats` the accumulator feeds, the per-tenant
:class:`LatencyStats`, request/pair counters (per submitting tenant, so
fairness analysis can compare submitted vs completed), per-tenant
in-flight high-water marks (the fairness-limit evidence), and a bounded
request-completion order trace that the starvation regression test reads.

All three share one :class:`~repro.telemetry.metrics.MetricsRegistry`
(``service.stats.registry``), which stores every count, so one
:func:`~repro.telemetry.exporters.prometheus_text` exports the
``service_*`` and ``pipeline_*`` families of a service together.  Only
the sample windows and the completion trace live outside it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.pipeline.stats import PipelineStats
from repro.telemetry.metrics import MetricsRegistry, Stored

__all__ = [
    "DEFAULT_LATENCY_WINDOW",
    "LatencyStats",
    "ServiceStats",
    "percentile",
]

#: Per-tenant latency samples retained for percentile estimation.
DEFAULT_LATENCY_WINDOW = 4096

#: Bucket bounds of the per-tenant request-latency histogram (seconds).
LATENCY_BUCKETS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

_LATENCY = "service_request_latency_seconds"
_LATENCY_MAX = "service_request_latency_max_seconds"


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
    """Bounded per-tenant request-latency samples with exact totals.

    ``record(tenant, seconds)`` once per completed request;
    ``summary(tenant)`` (or ``as_dict()`` for every tenant plus the
    cross-tenant ``"*"`` view) reports request counts and p50/p95/p99 /
    mean / max latency in milliseconds.  Counts and sums live in the
    ``service_request_latency_seconds{tenant}`` histograms, maxima in
    ``service_request_latency_max_seconds{tenant}`` gauges.
    """

    def __init__(
        self,
        *,
        window: int = DEFAULT_LATENCY_WINDOW,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self.registry = registry if registry is not None else MetricsRegistry()
        self._samples: Dict[str, Deque[float]] = {}

    def record(self, tenant: str, seconds: float) -> None:
        """Record one request's submit-to-complete latency."""
        self._samples.setdefault(tenant, deque(maxlen=self.window)).append(seconds)
        self.registry.histogram(
            _LATENCY,
            "submit-to-complete request latency",
            buckets=LATENCY_BUCKETS,
            tenant=tenant,
        ).observe(seconds)
        self.registry.gauge(
            _LATENCY_MAX, "slowest request latency", tenant=tenant
        ).set_max(seconds)

    def tenants(self) -> List[str]:
        return sorted(h.labels["tenant"] for h in self.registry.family(_LATENCY))

    def _totals(self, tenant: str) -> Tuple[int, float, float]:
        """Exact ``(count, sum, max)`` of one tenant's latencies (zeros if none)."""
        histogram = self.registry.get(_LATENCY, tenant=tenant)
        if histogram is None:
            return 0, 0.0, 0.0
        peak = self.registry.get(_LATENCY_MAX, tenant=tenant) or 0.0
        return histogram["count"], histogram["sum"], peak

    def count(self, tenant: Optional[str] = None) -> int:
        """Requests recorded for ``tenant`` (every tenant when ``None``)."""
        tenants = self.tenants() if tenant is None else [tenant]
        return sum(self._totals(name)[0] for name in tenants)

    def summary(self, tenant: Optional[str] = None) -> Dict[str, float]:
        """Latency summary for one tenant (or across all when ``None``).

        Percentiles come from the bounded recent window; ``requests`` /
        ``mean_ms`` / ``max_ms`` are exact over the whole run.
        """
        samples: List[float] = []
        count, total, peak = 0, 0.0, 0.0
        for name in self.tenants() if tenant is None else [tenant]:
            samples.extend(self._samples.get(name, ()))
            tenant_count, tenant_sum, tenant_max = self._totals(name)
            count += tenant_count
            total += tenant_sum
            peak = max(peak, tenant_max)
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


class ServiceStats:
    """Both axes of one service run: wave throughput and request latency.

    Attributes
    ----------
    registry:
        The :class:`~repro.telemetry.metrics.MetricsRegistry` that
        :attr:`pipeline`, :attr:`latency` and these counters share.
    pipeline:
        The :class:`PipelineStats` the service's accumulator and align
        stage feed — waves, fill efficiency, flush causes.
    latency:
        Per-tenant request-latency percentiles (:class:`LatencyStats`).
    requests_submitted, requests_completed, requests_failed:
        Requests accepted by :meth:`~repro.service.AlignmentService.submit`,
        requests whose futures resolved with alignments, and requests
        whose futures failed because a wave carrying them raised.
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

    pairs_admitted = Stored("service_pairs_admitted_total", "pairs admitted")
    pairs_completed = Stored("service_pairs_completed_total", "pairs routed back")
    requests_failed = Stored("service_requests_failed_total", "requests failed")

    def __init__(self, *, wave_size: int = 0) -> None:
        self.registry = MetricsRegistry()
        self.pipeline = PipelineStats(wave_size=wave_size, registry=self.registry)
        self.latency = LatencyStats(registry=self.registry)
        self.completion_order: Deque[Tuple[str, int]] = deque(maxlen=_COMPLETION_TRACE)
        self._metrics = Stored.bind(self, self.registry)

    def _per_tenant(self, name: str) -> Dict[str, int]:
        return {m.labels["tenant"]: int(m.value()) for m in self.registry.family(name)}

    @property
    def tenant_requests_submitted(self) -> Dict[str, int]:
        return self._per_tenant("service_requests_submitted_total")

    @property
    def tenant_pairs_submitted(self) -> Dict[str, int]:
        return self._per_tenant("service_pairs_submitted_total")

    @property
    def max_inflight(self) -> Dict[str, int]:
        return self._per_tenant("service_max_inflight_pairs")

    @property
    def requests_submitted(self) -> int:
        return sum(self.tenant_requests_submitted.values())

    @property
    def pairs_submitted(self) -> int:
        return sum(self.tenant_pairs_submitted.values())

    @property
    def requests_completed(self) -> int:
        return self.latency.count()

    # ------------------------------------------------------------------ #
    def record_submit(self, tenant: str, pairs: int) -> None:
        """One request of ``pairs`` pairs accepted under ``tenant``."""
        self.registry.counter(
            "service_requests_submitted_total", "requests accepted", tenant=tenant
        ).inc()
        self.registry.counter(
            "service_pairs_submitted_total", "pairs accepted", tenant=tenant
        ).inc(pairs)

    def record_admitted(self, tenant: str, inflight: int) -> None:
        """One pair entered the accumulator; ``inflight`` is the tenant's new depth."""
        self._metrics["pairs_admitted"].inc()
        self.registry.gauge(
            "service_max_inflight_pairs",
            "admitted-but-unrouted pairs high-water mark",
            tenant=tenant,
        ).set_max(inflight)

    def record_request_done(
        self, tenant: str, request_id: int, seconds: float, pairs: int
    ) -> None:
        self._metrics["pairs_completed"].inc(pairs)
        self.latency.record(tenant, seconds)
        self.completion_order.append((tenant, request_id))

    def record_request_failed(self) -> None:
        """One request's future failed with its wave's exception."""
        self._metrics["requests_failed"].inc()

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        """Flat report-friendly view: counts ``int``, latencies in ms."""
        requests, pairs = self.tenant_requests_submitted, self.tenant_pairs_submitted
        return {
            "requests_submitted": sum(requests.values()),
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "pairs_submitted": sum(pairs.values()),
            "pairs_admitted": self.pairs_admitted,
            "pairs_completed": self.pairs_completed,
            "tenant_submitted": {
                tenant: {"requests": requests[tenant], "pairs": pairs.get(tenant, 0)}
                for tenant in sorted(requests)
            },
            "max_inflight": self.max_inflight,
            "latency": self.latency.as_dict(),
            "pipeline": self.pipeline.as_dict(),
        }

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        submitted = self.tenant_requests_submitted
        lines = [
            f"requests={self.requests_completed}/{sum(submitted.values())} "
            f"pairs={self.pairs_completed}/{self.pairs_submitted} "
            f"failed={self.requests_failed} "
            f"waves={self.pipeline.waves} "
            f"fill={self.pipeline.wave_fill_efficiency:.3f} "
            f"flushes={self.pipeline.flushes}"
        ]
        for tenant, summary in sorted(self.latency.as_dict().items()):
            submitted_part = "" if tenant == "*" else f"/{submitted.get(tenant, 0)}"
            lines.append(
                f"  tenant {tenant}: requests={summary['requests']}"
                f"{submitted_part} "
                f"p50={summary['p50_ms']:.2f}ms p95={summary['p95_ms']:.2f}ms "
                f"p99={summary['p99_ms']:.2f}ms max={summary['max_ms']:.2f}ms"
            )
        return "\n".join(lines)

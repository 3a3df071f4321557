"""Alignment as a service: the multi-client front-end over shared waves.

The subpackage turns the repo's single-caller pipeline into the service
shape the paper's throughput claims assume — many independent clients,
one warm execution core:

* :class:`~repro.service.frontend.AlignmentService` — accept requests,
  coalesce pairs from different tenants into shared lockstep waves, route
  each lane's alignment back to the submitting future, enforce per-tenant
  fairness (round-robin admission, in-flight caps);
* :class:`~repro.service.stats.ServiceStats` /
  :class:`~repro.service.stats.LatencyStats` — per-tenant p50/p95/p99
  request latency alongside the wave-level throughput accounting.

Results are byte-identical to offline runs over the same pairs; see
``tests/test_service.py``.
"""

from repro.service.frontend import AlignmentService, ServiceRequest, ServiceWork
from repro.service.stats import (
    LATENCY_WINDOW,
    LatencyStats,
    ServiceStats,
    percentile,
)

__all__ = [
    "AlignmentService",
    "ServiceRequest",
    "ServiceWork",
    "LATENCY_WINDOW",
    "LatencyStats",
    "ServiceStats",
    "percentile",
]

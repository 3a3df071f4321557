"""Metrics registry: the one store of every counter, gauge and histogram.

:class:`~repro.pipeline.stats.PipelineStats`,
:class:`~repro.service.stats.ServiceStats` and
:class:`~repro.service.stats.LatencyStats` keep no numbers of their own:
each holds a :class:`MetricsRegistry` (``stats.registry``), reads every
attribute it reports from it, and changes a number with one call on one
metric.  Metrics are identified by a **name plus a small label set**
(Prometheus-style, e.g. ``pipeline_flushes_total{cause="size"}``), and
one :meth:`MetricsRegistry.snapshot` (or the text exposition in
:mod:`repro.telemetry.exporters`) reads everything.

Metric types follow the Prometheus vocabulary:

* :class:`Counter` — monotonically increasing totals (``inc``).
* :class:`Gauge` — point-in-time values (``set``, ``inc``) and
  high-water marks (``set_max``).
* :class:`Histogram` — bucketed distributions (``observe``) with exact
  running count and sum.

Every update holds its metric's own lock, and get-or-create holds the
registry's, so threads that update the same stats concurrently — the
service's client threads and its dispatcher — lose nothing.

Naming scheme: ``<subsystem>_<what>`` with ``_total`` suffixing counters,
``_seconds``/``_ms``/``_bytes`` suffixing unit-carrying values, and labels
for the enumerable dimensions (``stage``, ``cause``, ``tenant``) rather
than name-mangling them in.  Label values may come from clients (tenant
names), so :func:`metric_key` and the text exposition escape them.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Stored",
    "escape_label_value",
    "metric_key",
]

#: Default histogram bucket upper bounds (generic positive-value spread;
#: pass explicit buckets for unit-specific metrics).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)

_TYPES = ("counter", "gauge", "histogram")


def escape_label_value(value: object) -> str:
    """A label value as the text exposition format writes it.

    Backslash, double quote and newline are escaped, so a value cannot
    close its label set or start a new sample line.
    """
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical ``name{k="v",...}`` identity of one labelled metric."""
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{escape_label_value(labels[k])}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class _Metric:
    """Shared identity and lock of the three metric types."""

    metric_type = "untyped"

    def __init__(self, name: str, labels: Dict[str, object]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.key = metric_key(name, labels)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.key}={self.value()!r}>"


class Counter(_Metric):
    """Monotonically increasing total."""

    metric_type = "counter"

    def __init__(self, name: str, labels: Dict[str, object]) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge for ups and downs")
        with self._lock:
            self._value += amount

    def value(self) -> float:
        return self._value


class Gauge(_Metric):
    """Point-in-time value that may go up and down."""

    metric_type = "gauge"

    def __init__(self, name: str, labels: Dict[str, object]) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if that is higher (a high-water mark)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def value(self) -> float:
        return self._value


class Histogram(_Metric):
    """Cumulative-bucket distribution (Prometheus histogram semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket always
    exists.  :meth:`value` reports ``{"count", "sum", "buckets"}`` with
    cumulative per-bound counts, which is what the text exposition emits.
    """

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        labels: Dict[str, object],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)  # first bound >= value
        with self._lock:
            self._sum += value
            self._count += 1
            self._counts[index] += 1

    def value(self) -> Dict[str, object]:
        with self._lock:
            counts, total, count = list(self._counts), self._sum, self._count
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, counts[:-1]):
            running += bucket
            cumulative.append((bound, running))
        return {
            "count": count,
            "sum": total,
            "buckets": cumulative,  # (+Inf cumulative == count)
        }


class Stored:
    """A stats-class attribute whose value lives in the instance's registry.

    Declared once in the class body —
    ``reads = Stored("pipeline_reads_total", "reads ingested")`` — it names
    a counter when the name ends in ``_total`` (the naming scheme) and a
    gauge otherwise.  The owner's ``__init__`` keeps
    ``self._metrics = Stored.bind(self, registry)``, which creates every
    declared metric up front (so the exposition lists them all, even at
    zero) and maps attribute names to metrics for the owner's updates.
    Reading the attribute returns the metric's value through ``cast``
    (``int`` for counts, ``float`` for seconds).  Assigning is one
    ``Gauge.set`` and only gauges allow it; counters change by ``inc``.
    """

    def __init__(self, name: str, help: str = "", cast: type = int) -> None:
        self.kind = "counter" if name.endswith("_total") else "gauge"
        self.name, self.help, self.cast = name, help, cast

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return self.cast(obj._metrics[self.attr].value())

    def __set__(self, obj, value: float) -> None:
        if self.kind != "gauge":
            raise AttributeError(f"{self.attr} is a counter; it changes only by inc()")
        obj._metrics[self.attr].set(value)

    @staticmethod
    def bind(obj, registry: "MetricsRegistry") -> Dict[str, _Metric]:
        """Create the metrics ``obj``'s class declares; attribute -> metric."""
        return {
            attr: getattr(registry, spec.kind)(spec.name, spec.help)
            for attr, spec in vars(type(obj)).items()
            if isinstance(spec, Stored)
        }


class MetricsRegistry:
    """Get-or-create home of every named metric; one snapshot reads all.

    ``counter(name, **labels)`` (and ``gauge``/``histogram``) returns the
    existing metric for that exact name+labels identity or creates it —
    so writers need no registration phase, and two writers naming the
    same metric share it.  Re-registering a name as a different type
    raises (one name, one type, any labels).  Thread-safe: get-or-create
    holds the registry lock, and each update holds its metric's lock.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._families: Dict[str, Tuple[str, str]] = {}  # name -> (type, help)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        return self._get_or_create("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        return self._get_or_create("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._get_or_create("histogram", name, help, labels, buckets=buckets)

    def _get_or_create(
        self,
        metric_type: str,
        name: str,
        help: str,
        labels: Dict[str, object],
        *,
        buckets: Optional[Sequence[float]] = None,
    ) -> _Metric:
        key = metric_key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                if metric.metric_type != metric_type:
                    raise ValueError(
                        f"metric {key!r} already registered as "
                        f"{metric.metric_type}, not {metric_type}"
                    )
                return metric
            family = self._families.get(name)
            if family is not None and family[0] != metric_type:
                raise ValueError(
                    f"metric family {name!r} already registered as "
                    f"{family[0]}, not {metric_type}"
                )
            if family is None or (help and not family[1]):
                self._families[name] = (metric_type, help)
            if metric_type == "counter":
                metric = Counter(name, labels)
            elif metric_type == "gauge":
                metric = Gauge(name, labels)
            else:
                metric = Histogram(
                    name, labels, buckets if buckets is not None else DEFAULT_BUCKETS
                )
            self._metrics[key] = metric
            return metric

    # ------------------------------------------------------------------ #
    def get(self, name: str, **labels: object):
        """The current value of one metric (``None`` if never registered)."""
        with self._lock:
            metric = self._metrics.get(metric_key(name, labels))
        return None if metric is None else metric.value()

    def families(self) -> Dict[str, Tuple[str, str]]:
        """``name -> (type, help)`` for every registered metric family."""
        with self._lock:
            return dict(self._families)

    def metrics(self) -> List[_Metric]:
        """Every registered metric, sorted by canonical key."""
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.key)

    def family(self, name: str) -> List[_Metric]:
        """Every metric named ``name`` (one per label set), sorted by key."""
        with self._lock:
            members = [m for m in self._metrics.values() if m.name == name]
        return sorted(members, key=lambda m: m.key)

    def snapshot(self) -> Dict[str, object]:
        """Flat ``canonical key -> value`` view of every metric.

        Counter/gauge values are floats; histogram values are their
        ``{"count", "sum", "buckets"}`` dicts.
        """
        with self._lock:
            return {key: metric.value() for key, metric in sorted(self._metrics.items())}

"""Exporters: Chrome-trace JSON, Prometheus text exposition, human summary.

Three read-side views over the telemetry layer:

* :func:`chrome_trace` / :func:`write_chrome_trace` — convert a tracer's
  :class:`~repro.telemetry.trace.SpanRecord` buffer into the Chrome Trace
  Event Format (the ``{"traceEvents": [...]}`` JSON that
  ``chrome://tracing`` and https://ui.perfetto.dev load directly).  Spans
  become complete (``"ph": "X"``) events, instants become ``"ph": "i"``;
  multi-process runs render as separate ``pid`` tracks with
  process-name metadata rows.
* :func:`prometheus_text` — the text exposition format of a
  :class:`~repro.telemetry.metrics.MetricsRegistry` (``# HELP``/``# TYPE``
  headers, ``name{labels} value`` samples, cumulative histogram buckets),
  scrape-able or just diff-able in CI logs.
* :func:`summary` — a sorted human-readable dump of the same registry for
  smoke output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.telemetry.metrics import MetricsRegistry, escape_label_value
from repro.telemetry.trace import SpanRecord, Tracer

__all__ = [
    "chrome_trace",
    "prometheus_text",
    "summary",
    "write_chrome_trace",
]


def _coerce_records(source: Union[Tracer, Iterable[SpanRecord]]):
    if hasattr(source, "records"):
        return source.records(), dict(getattr(source, "process_names", {}))
    return list(source), {}


def chrome_trace(
    source: Union[Tracer, Iterable[SpanRecord]],
    *,
    process_names: Optional[Dict[int, str]] = None,
) -> Dict[str, object]:
    """Build a Chrome Trace Event Format document from recorded events.

    ``source`` is a :class:`Tracer` (its buffer is snapshotted, and its
    ``process_names`` label the pid tracks) or a bare record iterable.
    Timestamps are rebased to the earliest event and expressed in
    microseconds, as the format expects; attribute dicts ride in ``args``.
    """
    records, names = _coerce_records(source)
    if process_names:
        names.update(process_names)
    events: List[Dict[str, object]] = []
    origin = min((record.start for record in records), default=0.0)
    for pid in sorted({record.pid for record in records}):
        label = names.get(pid, f"pid-{pid}")
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for record in records:
        event: Dict[str, object] = {
            "name": record.name,
            "cat": "repro",
            "pid": record.pid,
            "tid": record.tid,
            "ts": (record.start - origin) * 1e6,
            "args": dict(record.attrs),
        }
        if record.kind == "instant":
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = max(0.0, record.duration) * 1e6
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Union[str, Path],
    source: Union[Tracer, Iterable[SpanRecord]],
    *,
    process_names: Optional[Dict[int, str]] = None,
) -> Path:
    """Serialise :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    document = chrome_trace(source, process_names=process_names)
    path.write_text(json.dumps(document, indent=None, separators=(",", ":")) + "\n")
    return path


# --------------------------------------------------------------------------- #
def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers bare, floats repr'd."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_text(labels: Dict[str, object], extra: Sequence = ()) -> str:
    items = [(k, labels[k]) for k in sorted(labels)] + list(extra)
    if not items:
        return ""
    return "{" + ",".join(f'{k}="{escape_label_value(v)}"' for k, v in items) + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    families = registry.families()
    lines: List[str] = []
    seen_family = set()
    for metric in registry.metrics():
        if metric.name not in seen_family:
            seen_family.add(metric.name)
            metric_type, help_text = families[metric.name]
            if help_text:
                lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric_type}")
        if metric.metric_type == "histogram":
            value = metric.value()
            cumulative = 0
            for bound, running in value["buckets"]:
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_label_text(metric.labels, [('le', _format_value(bound))])}"
                    f" {running}"
                )
                cumulative = running
            lines.append(
                f"{metric.name}_bucket"
                f"{_label_text(metric.labels, [('le', '+Inf')])} {value['count']}"
            )
            lines.append(
                f"{metric.name}_sum{_label_text(metric.labels)} "
                f"{_format_value(value['sum'])}"
            )
            lines.append(
                f"{metric.name}_count{_label_text(metric.labels)} {value['count']}"
            )
        else:
            lines.append(
                f"{metric.name}{_label_text(metric.labels)} "
                f"{_format_value(metric.value())}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def summary(registry: MetricsRegistry) -> str:
    """Sorted human-readable one-metric-per-line dump of a registry."""
    lines: List[str] = []
    for metric in registry.metrics():
        if metric.metric_type == "histogram":
            value = metric.value()
            count = value["count"]
            mean = (value["sum"] / count) if count else 0.0
            lines.append(f"{metric.key}  count={count} mean={mean:.3f}")
        else:
            lines.append(f"{metric.key}  {_format_value(metric.value())}")
    return "\n".join(lines)

"""Exporters for recorded traces and metrics.

Four formats, all derived from one :class:`~repro.obs.tracer.Tracer`:

* :func:`chrome_trace` — the Chrome trace-event JSON format (open the file
  in Perfetto / ``chrome://tracing``).  Every span becomes a complete
  ("X") event; every track (the main one plus one per source) becomes
  its own thread row via ``thread_name`` metadata events, so each
  source's statements render on their own timeline.
* :func:`metrics_dict` / :func:`write_metrics` — machine-readable counters,
  gauges, and histogram summaries plus per-category span rollups.
* :func:`prometheus_text` / :func:`write_prometheus` — the Prometheus text
  exposition format: counters as ``repro_<name>_total``, gauges as
  ``repro_<name>``, histograms as summaries with p50/p95/p99 quantile
  labels.  Dotted scopes (``lane_busy_seconds.DB1``) become a
  ``scope`` label.
* :func:`text_summary` — a human-readable digest for the CLI.

Every exporter emits deterministically ordered output (sorted keys,
sorted metric names), so artifacts from two identical runs diff cleanly.
"""

from __future__ import annotations

import json
import re

from repro.obs.metrics import QUANTILES
from repro.obs.tracer import Tracer

#: Synthetic process id used for all trace events (one middleware process).
TRACE_PID = 1


def _json_value(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def chrome_trace(tracer: Tracer) -> dict:
    """The trace as a Chrome trace-event object (``traceEvents`` list)."""
    tracks = tracer.tracks()
    tids = {track: index for index, track in enumerate(tracks)}
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": TRACE_PID, "tid": 0,
         "args": {"name": "repro middleware"}}]
    for track, tid in tids.items():
        events.append({"ph": "M", "name": "thread_name", "pid": TRACE_PID,
                       "tid": tid, "args": {"name": track}})
        events.append({"ph": "M", "name": "thread_sort_index",
                       "pid": TRACE_PID, "tid": tid,
                       "args": {"sort_index": tid}})
    for span in sorted(tracer.spans, key=lambda s: s.start):
        args = {key: _json_value(value) for key, value in span.attrs.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.category,
            "ts": round(span.start * 1e6, 3),      # microseconds
            "dur": round(span.duration * 1e6, 3),
            "pid": TRACE_PID,
            "tid": tids[span.track],
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the Chrome trace JSON to ``path``; returns the span count."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(tracer), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return len(tracer.spans)


def span_rollup(tracer: Tracer) -> dict:
    """Per-category span statistics: count and total self-clock seconds."""
    rollup: dict[str, dict] = {}
    for span in tracer.spans:
        entry = rollup.setdefault(span.category,
                                  {"count": 0, "total_seconds": 0.0})
        entry["count"] += 1
        entry["total_seconds"] += span.duration
    for entry in rollup.values():
        entry["total_seconds"] = round(entry["total_seconds"], 6)
    return dict(sorted(rollup.items()))


def metrics_dict(tracer: Tracer) -> dict:
    """Counters, gauges, and span rollups as one JSON-ready object."""
    snapshot = tracer.metrics.snapshot()
    snapshot["spans"] = span_rollup(tracer)
    return snapshot


def write_metrics(tracer: Tracer, path: str) -> dict:
    """Write :func:`metrics_dict` to ``path``; returns the object."""
    payload = metrics_dict(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def text_summary(tracer: Tracer) -> str:
    """Human-readable metrics + span digest (the CLI's ``--metrics``)."""
    snapshot = tracer.metrics.snapshot()
    lines = ["== spans by category =="]
    for category, entry in span_rollup(tracer).items():
        lines.append(f"  {category:<12s} {entry['count']:>6d} span(s)  "
                     f"{entry['total_seconds']:>10.4f}s")
    lines.append("== counters ==")
    for name, value in snapshot["counters"].items():
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<34s} {shown:>14s}")
    lines.append("== gauges ==")
    for name, value in snapshot["gauges"].items():
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<34s} {shown:>14s}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("== histograms ==")
        for name, digest in histograms.items():
            lines.append(
                f"  {name:<34s} n={digest['count']:<6d}"
                f" p50={digest.get('p50', 0.0):.6f}"
                f" p95={digest.get('p95', 0.0):.6f}"
                f" p99={digest.get('p99', 0.0):.6f}"
                f" max={digest.get('max', 0.0):.6f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------
#: Prefix for every exported metric name.
PROMETHEUS_NAMESPACE = "repro"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _prom_split(name: str) -> tuple[str, str]:
    """``lane_busy_seconds.DB1`` -> (``lane_busy_seconds``, ``DB1``).

    The first dot splits the base metric from its scope; the base is
    sanitized to Prometheus' ``[a-zA-Z0-9_]`` alphabet.
    """
    base, _, scope = name.partition(".")
    return _INVALID_CHARS.sub("_", base), scope


def _prom_format(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _grouped(flat: dict) -> dict:
    """Group ``{"name" | "name.scope": value}`` by sanitized base name."""
    grouped: dict[str, dict[str, float]] = {}
    for name, value in flat.items():
        base, scope = _prom_split(name)
        grouped.setdefault(base, {})[scope] = value
    return dict(sorted(grouped.items()))


def _prom_lines(base: str, kind: str, samples: dict) -> list[str]:
    full = f"{PROMETHEUS_NAMESPACE}_{base}"
    lines = [f"# TYPE {full} {kind}"]
    for scope, value in sorted(samples.items()):
        label = f'{{scope="{scope}"}}' if scope else ""
        lines.append(f"{full}{label} {_prom_format(value)}")
    return lines


def prometheus_text(tracer) -> str:
    """The metrics in the Prometheus text exposition format.

    Accepts a :class:`~repro.obs.tracer.Tracer` *or* a bare
    :class:`~repro.obs.metrics.MetricsRegistry` (anything with a
    ``snapshot()``) — the evaluation service scrapes its own registry
    without a tracer.  Counters export as ``repro_<name>_total``, gauges
    as ``repro_<name>``, histograms as Prometheus *summaries*: one
    ``quantile``-labelled sample per p50/p95/p99 plus ``_sum`` and
    ``_count``.  Dotted scopes become a ``scope`` label, so
    ``lane_busy_seconds.DB1`` and the unscoped total stay one metric
    family.  Output order is deterministic.
    """
    snapshot = getattr(tracer, "metrics", tracer).snapshot()
    lines: list[str] = []
    for base, samples in _grouped(snapshot["counters"]).items():
        lines.extend(_prom_lines(f"{base}_total", "counter", samples))
    for base, samples in _grouped(snapshot["gauges"]).items():
        lines.extend(_prom_lines(base, "gauge", samples))
    histograms = snapshot.get("histograms", {})
    for base, scoped in _grouped(histograms).items():
        full = f"{PROMETHEUS_NAMESPACE}_{base}"
        lines.append(f"# TYPE {full} summary")
        for scope, digest in sorted(scoped.items()):
            scope_label = f'scope="{scope}",' if scope else ""
            for q in QUANTILES:
                value = digest.get(f"p{int(q * 100)}", 0.0)
                lines.append(f'{full}{{{scope_label}quantile="{q}"}} '
                             f"{_prom_format(value)}")
            suffix = f'{{scope="{scope}"}}' if scope else ""
            lines.append(f"{full}_sum{suffix} "
                         f"{_prom_format(digest.get('sum', 0.0))}")
            lines.append(f"{full}_count{suffix} {digest['count']}")
    return "\n".join(lines) + "\n"


def write_prometheus(tracer, path: str) -> int:
    """Write :func:`prometheus_text` to ``path``; returns the line count."""
    text = prometheus_text(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text.count("\n")

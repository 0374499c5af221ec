"""Observability for the AIG middleware: tracing, metrics, calibration,
profiling, and cross-run persistence.

Zero-dependency (stdlib only).  The subsystem's pieces:

* :mod:`repro.obs.tracer` — hierarchical spans with per-source tracks; the
  no-op :data:`NULL_TRACER` is the default everywhere, so tracing costs
  nothing unless a recording :class:`Tracer` is passed to
  ``Middleware(tracer=...)``.
* :mod:`repro.obs.metrics` — named counters, gauges, and histograms
  (rows materialized, bytes shipped, per-node latency
  distributions, …), owned by the tracer.
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``), metrics JSON, the Prometheus text exposition
  format, and a text summary — all deterministically ordered.
* :mod:`repro.obs.calibrate` — the cost-model calibration report: modeled
  ``eval_cost``/``size`` joined against measured per-node wall time and
  bytes, with q-error aggregates (``python -m repro calibrate``).
* :mod:`repro.obs.ledger` — the persistent run ledger: one JSONL record
  per evaluation (plan fingerprint, config, per-node measurements,
  metrics deltas), size-rotated, corruption-tolerant reader.
* :mod:`repro.obs.profile` — EXPLAIN ANALYZE: the calibration records of
  a run rendered in plan order with per-node status and the worst
  offenders (``python -m repro profile`` / ``explain --analyze``).

See ``docs/OBSERVABILITY.md`` for the span taxonomy and metric names.
"""

from repro.obs.calibrate import (
    CalibrationReport,
    NodeCalibration,
    build_calibration,
    q_error,
)
from repro.obs.export import (
    chrome_trace,
    metrics_dict,
    prometheus_text,
    span_rollup,
    text_summary,
    write_chrome_trace,
    write_metrics,
    write_prometheus,
)
from repro.obs.ledger import RunLedger, build_run_record, metrics_delta
from repro.obs.logconfig import configure_logging, level_for
from repro.obs.metrics import (
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.profile import profile_evaluation, render_profile
from repro.obs.tracer import MAIN_TRACK, NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Tracer", "NullTracer", "Span", "NULL_TRACER", "MAIN_TRACK",
    "MetricsRegistry", "NullMetrics", "NULL_METRICS", "Histogram",
    "chrome_trace", "write_chrome_trace", "metrics_dict", "write_metrics",
    "span_rollup", "text_summary", "prometheus_text", "write_prometheus",
    "CalibrationReport", "NodeCalibration", "build_calibration", "q_error",
    "RunLedger", "build_run_record", "metrics_delta",
    "render_profile", "profile_evaluation",
    "configure_logging", "level_for",
]

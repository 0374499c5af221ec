"""Counters and gauges for the AIG middleware.

A :class:`MetricsRegistry` is a flat, thread-safe map of named numbers:

* **counters** accumulate (``add``) — rows materialized, bytes shipped,
  queries executed, violations found, per-source busy seconds (dotted
  names like ``lane_busy_seconds.DB1`` scope a metric to one source);
* **gauges** hold the latest value (``set_gauge``) — QDG size, predicted
  plan cost, merge savings, document size, unfolding depth;
* **histograms** accumulate a distribution (``observe``) — per-node and
  end-to-end latency.  The snapshot reports count/sum/min/max and the
  p50/p95/p99 quantiles; the Prometheus exporter
  (:func:`repro.obs.export.prometheus_text`) renders them as summaries.

The resilience layer (:mod:`repro.resilience`, docs/RESILIENCE.md) adds
one counter: ``deadline_aborts``, one per statement its deadline cut
short.

Incremental re-evaluation (``Middleware(incremental=True)``,
docs/INCREMENTAL.md) adds counters ``incremental_cache_hits`` (nodes
replayed from the result cache) and ``incremental_cache_misses`` (nodes
that executed with caching enabled), plus per-run gauges
``incremental_reused_nodes`` and ``incremental_tainted_nodes``.

:data:`NULL_METRICS` is the no-op twin used by the null tracer so
instrumented code never needs an ``if tracing`` branch.
"""

from __future__ import annotations

import threading

#: Quantiles reported by :meth:`Histogram.summary` (and the Prometheus
#: summary export).
QUANTILES = (0.5, 0.95, 0.99)


class Histogram:
    """A thread-safe latency/size distribution.

    Raw observations are kept (runs observe at most a few thousand values —
    one per QDG node plus one per evaluation), so quantiles are exact: the
    nearest-rank percentile over a sorted copy.  All readers are safe to
    call while writers are still observing.
    """

    __slots__ = ("_lock", "_values", "_sum")

    def __init__(self):
        self._lock = threading.Lock()
        self._values: list[float] = []
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(value)
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._values)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in (0, 1]; 0.0 when empty."""
        with self._lock:
            if not self._values:
                return 0.0
            ordered = sorted(self._values)
        rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
        return ordered[min(rank, len(ordered)) - 1]

    def summary(self) -> dict:
        """JSON-ready digest: count, sum, min/max, and p50/p95/p99."""
        with self._lock:
            values = list(self._values)
            total = self._sum
        if not values:
            return {"count": 0, "sum": 0.0}
        ordered = sorted(values)
        digest = {"count": len(ordered), "sum": round(total, 6),
                  "min": round(ordered[0], 6), "max": round(ordered[-1], 6)}
        for q in QUANTILES:
            rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
            digest[f"p{int(q * 100)}"] = round(
                ordered[min(rank, len(ordered)) - 1], 6)
        return digest


class MetricsRegistry:
    """Thread-safe named counters, gauges, and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- writers --------------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` (created at 0 on first touch, so an
        ``add(name, 0)`` makes the metric visible without counting)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    # -- readers --------------------------------------------------------
    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self) -> dict:
        """A JSON-ready copy with deterministically sorted keys:
        ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``."""
        with self._lock:
            counters = dict(sorted(self._counters.items()))
            gauges = dict(sorted(self._gauges.items()))
            histograms = dict(sorted(self._histograms.items()))
        return {"counters": counters,
                "gauges": gauges,
                "histograms": {name: h.summary()
                               for name, h in histograms.items()}}

    def __len__(self) -> int:
        with self._lock:
            return (len(self._counters) + len(self._gauges)
                    + len(self._histograms))


class NullMetrics:
    """No-op registry with the same interface (the disabled default)."""

    def add(self, name: str, value: float = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> float:
        return 0

    def gauge(self, name: str, default: float = 0.0) -> float:
        return default

    def histogram(self, name: str) -> None:
        return None

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def __len__(self) -> int:
        return 0


#: Shared no-op registry (the null tracer's ``metrics``).
NULL_METRICS = NullMetrics()

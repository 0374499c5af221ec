"""Observability overhead guards: tracing, histograms, streaming parity.

The observability subsystem's contract is that the instrumented hot path is
unchanged when tracing is disabled: the default :data:`NULL_TRACER` span
costs two ``perf_counter`` calls — exactly the timing reads the engine's
simulated clock needed anyway — plus one kwargs dict.  Several measurements
keep that honest:

* a **microbenchmark** of the null span itself, asserted against a
  generous absolute bound (median well under 5 µs per span; in practice
  it is a few hundred nanoseconds);
* a **histogram microbenchmark**: ``MetricsRegistry.observe`` must stay
  cheap enough to sit on the per-node completion path (bound 20 µs per
  observation, in practice around a microsecond including the lock);
* **macro comparisons** of full evaluations with the no-op tracer vs. a
  recording :class:`Tracer` — for the materialized path and the
  streaming path — so the cost of *enabling* tracing is on record for
  both execution modes (it is small: a tiny hospital run opens a few
  dozen spans).

All results land in ``BENCH_obs.json`` at the repo root, which
``tools/bench_regress.py`` diffs against the committed baseline in CI.
"""

import statistics
import time

from repro.hospital import build_hospital_aig, make_sources
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.relational import Network
from repro.runtime import Middleware

from conftest import BENCH_OBS_JSON, record_json, report

SPANS_PER_BATCH = 20_000
BATCHES = 5
MAX_MEDIAN_NULL_SPAN_SECONDS = 5e-6

OBSERVES_PER_BATCH = 20_000
MAX_MEDIAN_OBSERVE_SECONDS = 20e-6

#: A recording run must not blow up vs. the disabled baseline: thread
#: timing noise on a ~tens-of-ms run dwarfs the actual span cost, so the
#: bound is generous (3x + 250 ms slack) but still catches an accidental
#: O(rows) cost landing on the tracing path.
MACRO_FACTOR = 3.0
MACRO_SLACK_SECONDS = 0.25


def _null_span_seconds() -> float:
    """Median per-span cost of the disabled tracer over several batches."""
    samples = []
    for _ in range(BATCHES):
        started = time.perf_counter()
        for _ in range(SPANS_PER_BATCH):
            with NULL_TRACER.span("node", "query", track="DB1", rows=1):
                pass
        samples.append((time.perf_counter() - started) / SPANS_PER_BATCH)
    return statistics.median(samples)


def _observe_seconds() -> float:
    """Median per-observation cost of a live histogram."""
    metrics = MetricsRegistry()
    samples = []
    for _ in range(BATCHES):
        started = time.perf_counter()
        for index in range(OBSERVES_PER_BATCH):
            metrics.observe("node_latency_seconds", index * 1e-6)
        samples.append((time.perf_counter() - started) / OBSERVES_PER_BATCH)
    return statistics.median(samples)


def _middleware(tracer):
    from tests.conftest import load_tiny_hospital
    sources = make_sources()
    load_tiny_hospital(sources)
    return Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                      workers=4, tracer=tracer)


def _evaluate(tracer):
    middleware = _middleware(tracer)
    started = time.perf_counter()
    middleware.evaluate({"date": "d1"})
    return time.perf_counter() - started


def _evaluate_stream(tracer):
    middleware = _middleware(tracer)
    started = time.perf_counter()
    middleware.evaluate_stream({"date": "d1"}, lambda _: None)
    return time.perf_counter() - started


def test_null_span_overhead_guard(benchmark):
    """The disabled-tracing span must stay effectively free."""
    per_span = benchmark.pedantic(_null_span_seconds, rounds=1, iterations=1)

    # A tiny run opens ~40 spans; even a large one stays under a few
    # thousand — scale the per-span cost to a generous span count to show
    # the aggregate is invisible next to any real run.
    aggregate_for_5k = per_span * 5000
    text = ("No-op tracer overhead\n"
            f"per span: {per_span * 1e9:.0f} ns (bound "
            f"{MAX_MEDIAN_NULL_SPAN_SECONDS * 1e6:.1f} µs)\n"
            f"5000 spans: {aggregate_for_5k * 1e3:.3f} ms")
    report("trace_overhead_null_span", "\n" + text)
    record_json("trace_overhead_null_span", {
        "per_span_ns": round(per_span * 1e9, 1),
        "bound_ns": MAX_MEDIAN_NULL_SPAN_SECONDS * 1e9,
    }, path=BENCH_OBS_JSON)
    assert per_span < MAX_MEDIAN_NULL_SPAN_SECONDS, per_span


def test_histogram_observe_overhead_guard(benchmark):
    """A live histogram observation must stay cheap (per-node hot path)."""
    per_observe = benchmark.pedantic(_observe_seconds, rounds=1, iterations=1)
    text = ("Histogram observe overhead\n"
            f"per observe: {per_observe * 1e9:.0f} ns (bound "
            f"{MAX_MEDIAN_OBSERVE_SECONDS * 1e6:.1f} µs)")
    report("trace_overhead_histogram", "\n" + text)
    record_json("trace_overhead_histogram", {
        "per_observe_ns": round(per_observe * 1e9, 1),
        "bound_ns": MAX_MEDIAN_OBSERVE_SECONDS * 1e9,
    }, path=BENCH_OBS_JSON)
    assert per_observe < MAX_MEDIAN_OBSERVE_SECONDS, per_observe


def _macro_pair(evaluate):
    """Run disabled-vs-recording interleaved (warm caches), return stats."""
    evaluate(None)
    null_wall = evaluate(None)
    tracer = Tracer()
    recording_wall = evaluate(tracer)
    return null_wall, recording_wall, len(tracer.spans)


def _report_macro(name, title, null_wall, recording_wall, spans):
    delta = recording_wall - null_wall
    text = (f"{title}\n"
            f"disabled: {null_wall * 1e3:.1f} ms   "
            f"recording: {recording_wall * 1e3:.1f} ms   "
            f"delta {delta * 1e3:+.1f} ms over {spans} span(s)")
    report(name, "\n" + text)
    record_json(name, {
        "disabled_wall_ms": round(null_wall * 1e3, 2),
        "recording_wall_ms": round(recording_wall * 1e3, 2),
        "spans": spans,
    }, path=BENCH_OBS_JSON)
    assert spans > 0
    assert recording_wall < null_wall * MACRO_FACTOR + MACRO_SLACK_SECONDS


def test_recording_vs_null_macro(benchmark):
    """Materialized evaluation: recording tracer vs. the no-op default."""
    null_wall, recording_wall, spans = benchmark.pedantic(
        lambda: _macro_pair(_evaluate), rounds=1, iterations=1)
    _report_macro("trace_overhead_macro",
                  "Evaluation wall: recording tracer vs. disabled",
                  null_wall, recording_wall, spans)


def test_streaming_recording_vs_null_macro(benchmark):
    """Streaming evaluation: same span taxonomy, same overhead contract."""
    null_wall, recording_wall, spans = benchmark.pedantic(
        lambda: _macro_pair(_evaluate_stream), rounds=1, iterations=1)
    _report_macro("trace_overhead_stream_macro",
                  "Streaming wall: recording tracer vs. disabled",
                  null_wall, recording_wall, spans)


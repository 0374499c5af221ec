"""Observability subsystem: tracer, metrics, exporters, calibration, CLI.

The load-bearing guarantees tested here:

* spans nest correctly — including under concurrent execution, where each
  worker lane gets its own track and per-lane query spans never overlap;
* tracing is *inert*: the generated document, shipped bytes, and reported
  violations are byte-identical with tracing on vs. off — on the
  materialized *and* the streaming path;
* histograms report exact nearest-rank quantiles and survive concurrent
  observers; every exporter emits deterministically sorted keys;
* one ``demo --trace`` run yields a valid Chrome trace (≥ 8 categories,
  one thread row per lane) and a metrics export with ≥ 10 named metrics;
* the calibration report joins modeled estimates to measured timings.
"""

import json
import logging
import threading

import pytest

from repro import Middleware, Network, serialize
from repro.hospital import build_hospital_aig, make_sources
from repro.obs import (
    MAIN_TRACK, MetricsRegistry, NullTracer, NULL_TRACER, Tracer,
    build_calibration, chrome_trace, configure_logging, level_for,
    metrics_dict, q_error, text_summary, write_chrome_trace, write_metrics,
)
from repro.__main__ import main
from tests.conftest import load_tiny_hospital


def traced_middleware(violation_mode="abort", sources=None):
    if sources is None:
        sources = make_sources()
        load_tiny_hospital(sources)
    tracer = Tracer()
    middleware = Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                            violation_mode=violation_mode, tracer=tracer)
    return middleware, tracer


class TestSpanModel:
    def test_nesting_same_thread(self):
        tracer = Tracer()
        with tracer.span("outer", "pipeline") as outer:
            assert tracer.current() is outer
            with tracer.span("inner", "compile") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.track == outer.track == MAIN_TRACK
        assert tracer.current() is None
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert inner.start >= outer.start
        assert inner.end <= outer.end

    def test_explicit_parent_crosses_threads(self):
        tracer = Tracer()
        with tracer.span("coordinator", "execute") as run_span:
            def worker():
                with tracer.span("q", "query", track="DB1",
                                 parent=run_span):
                    pass
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        child = next(s for s in tracer.spans if s.name == "q")
        assert child.parent_id == run_span.span_id
        assert child.track == "DB1"

    def test_track_inherited_from_stack(self):
        tracer = Tracer()
        with tracer.span("q", "query", track="DB2"):
            with tracer.span("ship", "ship") as ship:
                assert ship.track == "DB2"

    def test_tracks_order_main_first(self):
        tracer = Tracer()
        with tracer.span("b", "query", track="DB2"):
            pass
        with tracer.span("a", "pipeline"):
            pass
        with tracer.span("c", "query", track="DB1"):
            pass
        assert tracer.tracks() == [MAIN_TRACK, "DB1", "DB2"]

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", "query"):
                raise ValueError("nope")
        (span,) = tracer.spans
        assert span.attrs["error"] == "ValueError"
        assert span.end is not None

    def test_set_attaches_attributes(self):
        tracer = Tracer()
        with tracer.span("q", "query", rows=1) as span:
            span.set(rows=7, bytes=90)
        assert span.attrs == {"rows": 7, "bytes": 90}


class TestNullTracer:
    def test_records_nothing_but_times(self):
        tracer = NullTracer()
        with tracer.span("q", "query", track="DB1", rows=3) as span:
            pass
        assert tracer.spans == []
        assert tracer.categories() == set()
        assert tracer.tracks() == []
        assert span.duration >= 0.0
        assert span.end is not None

    def test_metrics_are_noop(self):
        NULL_TRACER.metrics.add("x", 5)
        NULL_TRACER.metrics.set_gauge("g", 1.0)
        NULL_TRACER.metrics.observe("h", 0.25)
        assert NULL_TRACER.metrics.counter("x") == 0
        assert NULL_TRACER.metrics.histogram("h") is None
        assert len(NULL_TRACER.metrics) == 0
        assert NULL_TRACER.metrics.snapshot() == {"counters": {},
                                                  "gauges": {},
                                                  "histograms": {}}

    def test_swallows_nothing(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.span("q", "query"):
                raise KeyError("through")


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        metrics = MetricsRegistry()
        metrics.add("rows")
        metrics.add("rows", 4)
        metrics.add("visible", 0)
        metrics.set_gauge("depth", 3)
        metrics.set_gauge("depth", 8)
        assert metrics.counter("rows") == 5
        assert metrics.gauge("depth") == 8
        snap = metrics.snapshot()
        assert snap["counters"] == {"rows": 5, "visible": 0}
        assert snap["gauges"] == {"depth": 8}
        assert len(metrics) == 3

    def test_concurrent_adds_do_not_lose_updates(self):
        metrics = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                metrics.add("hits")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter("hits") == 8000


class TestHistograms:
    def test_quantiles_are_exact_nearest_rank(self):
        from repro.obs import Histogram
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.sum == 5050.0
        assert histogram.percentile(0.5) == 50.0
        assert histogram.percentile(0.95) == 95.0
        assert histogram.percentile(0.99) == 99.0
        digest = histogram.summary()
        assert digest["min"] == 1.0 and digest["max"] == 100.0
        assert digest["p50"] == 50.0 and digest["p99"] == 99.0

    def test_empty_and_single(self):
        from repro.obs import Histogram
        empty = Histogram()
        assert empty.summary() == {"count": 0, "sum": 0.0}
        assert empty.percentile(0.99) == 0.0
        single = Histogram()
        single.observe(0.125)
        digest = single.summary()
        assert digest["p50"] == digest["p99"] == digest["max"] == 0.125

    def test_registry_snapshot_includes_histograms(self):
        metrics = MetricsRegistry()
        metrics.observe("latency", 1.0)
        metrics.observe("latency", 3.0)
        snap = metrics.snapshot()
        assert snap["histograms"]["latency"]["count"] == 2
        assert snap["histograms"]["latency"]["sum"] == 4.0
        assert metrics.histogram("latency").count == 2
        assert len(metrics) == 1

    def test_concurrent_observes_do_not_lose_values(self):
        metrics = MetricsRegistry()

        def hammer():
            for index in range(1000):
                metrics.observe("lat", float(index))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.histogram("lat").count == 8000


class TestDeterministicExports:
    def test_snapshot_keys_sorted(self):
        metrics = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            metrics.add(name)
            metrics.set_gauge(f"g_{name}", 1.0)
            metrics.observe(f"h_{name}", 1.0)
        snap = metrics.snapshot()
        for family in ("counters", "gauges", "histograms"):
            assert list(snap[family]) == sorted(snap[family])

    def test_json_exports_are_sorted_and_stable(self, tmp_path):
        middleware, tracer = traced_middleware()
        middleware.evaluate({"date": "d1"})
        metrics_path = tmp_path / "metrics.json"
        payload = write_metrics(tracer, str(metrics_path))
        text = metrics_path.read_text()
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        trace_path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(trace_path))
        loaded = trace_path.read_text()
        assert loaded == json.dumps(json.loads(loaded), indent=1,
                                    sort_keys=True) + "\n"


class TestInstrumentedRun:
    """One traced end-to-end run, inspected from every exporter."""

    @pytest.fixture(scope="class")
    def run(self):
        middleware, tracer = traced_middleware()
        report = middleware.evaluate({"date": "d1"})
        # the tagging span and the document gauge: made at the first read
        serialize(report.document)
        return middleware, tracer, report

    def test_span_categories_cover_pipeline(self, run):
        _, tracer, _ = run
        expected = {"pipeline", "unfold", "compile", "qdg", "optimize",
                    "execute", "query", "collect", "ship", "tagging"}
        assert expected <= tracer.categories()
        assert len(tracer.categories()) >= 8

    def test_one_track_per_lane(self, run):
        _, tracer, _ = run
        tracks = tracer.tracks()
        assert tracks[0] == MAIN_TRACK
        assert {"DB1", "DB3", "DB4", "Mediator"} <= set(tracks)

    def test_lane_spans_never_overlap(self, run):
        _, tracer, _ = run
        execute = next(s for s in tracer.spans if s.name == "execute")
        for track in tracer.tracks():
            lane = sorted((s for s in tracer.spans
                           if s.track == track
                           and s.parent_id == execute.span_id),
                          key=lambda s: s.start)
            for before, after in zip(lane, lane[1:]):
                assert before.end <= after.start

    def test_all_spans_closed_and_within_pipeline(self, run):
        _, tracer, _ = run
        pipeline = next(s for s in tracer.spans
                        if s.category == "pipeline")
        for span in tracer.spans:
            assert span.end is not None
            assert span.end >= span.start
            assert span.start >= pipeline.start - 1e-9

    def test_core_metrics_present(self, run):
        _, tracer, _ = run
        snap = tracer.metrics.snapshot()
        for counter in ("queries_executed", "bytes_shipped", "rows_emitted",
                        "rows_materialized", "violations_found"):
            assert counter in snap["counters"], counter
        for gauge in ("qdg_nodes", "plan_cost_estimate_seconds",
                      "optimizer_merge_savings_seconds",
                      "response_time_seconds", "document_nodes"):
            assert gauge in snap["gauges"], gauge
        assert len(snap["counters"]) + len(snap["gauges"]) >= 10

    def test_metrics_agree_with_report(self, run):
        _, tracer, report = run
        metrics = tracer.metrics
        assert metrics.counter("bytes_shipped") == report.bytes_shipped
        assert metrics.counter("queries_executed") == report.node_count
        assert metrics.gauge("response_time_seconds") == pytest.approx(
            report.response_time)
        # elements + text nodes, set from the tagger's counts
        assert metrics.gauge("document_nodes") == report.document.size()
        assert metrics.gauge("document_nodes") > \
            sum(1 for _ in report.document.iter())

    def test_chrome_trace_shape(self, run):
        _, tracer, _ = run
        trace = chrome_trace(tracer)
        events = trace["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == set(tracer.tracks())
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(tracer.spans)
        for event in xs:
            assert {"name", "cat", "ts", "dur", "pid", "tid",
                    "args"} <= set(event)
            assert event["dur"] >= 0
            assert "span_id" in event["args"]
        assert len({e["cat"] for e in xs}) >= 8
        json.dumps(trace)   # must be JSON-serializable as-is

    def test_write_exports(self, run, tmp_path):
        _, tracer, _ = run
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        count = write_chrome_trace(tracer, str(trace_path))
        assert count == len(tracer.spans) > 0
        loaded = json.loads(trace_path.read_text())
        assert loaded["traceEvents"]
        payload = write_metrics(tracer, str(metrics_path))
        assert json.loads(metrics_path.read_text()) == payload
        assert "spans" in payload and "counters" in payload

    def test_text_summary_mentions_key_metrics(self, run):
        _, tracer, _ = run
        text = text_summary(tracer)
        assert "spans by category" in text
        assert "bytes_shipped" in text
        assert "qdg_nodes" in text


class TestTracingEquivalence:
    """Tracing must not change a single observable output."""

    def test_document_and_bytes_identical(self):
        results = []
        for tracer in (None, Tracer()):
            sources = make_sources()
            load_tiny_hospital(sources)
            middleware = Middleware(build_hospital_aig(), sources,
                                    Network.mbps(1.0), tracer=tracer)
            results.append(middleware.evaluate({"date": "d1"}))
        off, on = results
        assert serialize(on.document) == serialize(off.document)
        assert on.bytes_shipped == off.bytes_shipped
        assert on.node_count == off.node_count
        assert on.response_time == pytest.approx(off.response_time,
                                                 rel=0.05)

    def test_streaming_bytes_identical(self):
        outputs = []
        for tracer in (None, Tracer()):
            sources = make_sources()
            load_tiny_hospital(sources)
            middleware = Middleware(build_hospital_aig(), sources,
                                    Network.mbps(1.0), tracer=tracer)
            chunks: list[str] = []
            report = middleware.evaluate_stream({"date": "d1"},
                                                chunks.append)
            outputs.append(("".join(chunks), report.characters,
                            report.bytes_shipped))
        off, on = outputs
        assert on == off
        assert on[0]  # non-empty document streamed

    def test_streaming_emits_evaluate_span_taxonomy(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        tracer = Tracer()
        middleware = Middleware(build_hospital_aig(), sources,
                                Network.mbps(1.0), tracer=tracer)
        middleware.evaluate_stream({"date": "d1"}, lambda _: None)
        categories = tracer.categories()
        # same taxonomy as evaluate(): no streaming-only category names
        expected = {"pipeline", "unfold", "compile", "qdg", "optimize",
                    "execute", "query", "collect", "ship", "tagging"}
        assert expected <= categories
        assert "streaming-tagging" not in categories
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["evaluations"] == 1
        assert "streamed_elements" in snap["gauges"]
        assert "document_characters" in snap["gauges"]
        assert snap["histograms"]["evaluation_latency_seconds"]["count"] == 1
        assert snap["histograms"]["node_latency_seconds"]["count"] > 0

    def test_violations_identical(self):
        results = []
        for tracer in (None, Tracer()):
            sources = make_sources()
            load_tiny_hospital(sources)
            sources["DB3"].execute_script(
                "DELETE FROM billing WHERE trId='t4'")
            middleware = Middleware(build_hospital_aig(), sources,
                                    Network.mbps(1.0),
                                    violation_mode="report", tracer=tracer)
            results.append(middleware.evaluate({"date": "d1"}))
        off, on = results
        assert [str(v) for v in on.violations] == \
            [str(v) for v in off.violations]
        assert len(on.violations) >= 1
        assert serialize(on.document) == serialize(off.document)


class TestCalibration:
    def test_q_error(self):
        assert q_error(10, 10) == 1.0
        assert q_error(20, 10) == 2.0
        assert q_error(10, 20) == 2.0
        # count dimensions floor at 1: empty result vs. modeled 1 row
        assert q_error(1, 0, floor=1.0) == 1.0

    def test_report_joins_model_and_measurement(self):
        middleware, _ = traced_middleware()
        middleware.evaluate({"date": "d1"})
        report = middleware.calibration_report()
        assert report.nodes
        by_name = {node.name: node for node in report.nodes}
        prepared = middleware.prepare(middleware.last_plan.depth)
        assert prepared is middleware.last_plan
        executed = set(prepared.graph.nodes) & set(prepared.estimates)
        assert set(by_name) == executed
        for node in report.nodes:
            assert node.rows_q >= 1.0
            assert node.bytes_q >= 1.0
            assert node.seconds_q >= 1.0
            assert node.measured_seconds >= 0.0
        agg = report.aggregates()
        assert agg["nodes"] == len(report.nodes)
        assert agg["seconds_q_error"]["max"] >= \
            agg["seconds_q_error"]["median"]
        json.dumps(report.to_dict())
        text = report.to_text()
        assert "cost-model calibration" in text
        assert "q-error" in text

    def test_requires_a_prior_run(self):
        from repro.errors import EvaluationError
        middleware, _ = traced_middleware()
        with pytest.raises(EvaluationError):
            middleware.calibration_report()

    def test_build_calibration_skips_unjoined(self):
        middleware, _ = traced_middleware()
        middleware.evaluate({"date": "d1"})
        graph, estimates = (middleware.last_plan.graph,
                            middleware.last_plan.estimates)
        timings = middleware._last_result.timings
        partial = dict(list(timings.items())[:2])
        report = build_calibration(graph, estimates, partial)
        assert len(report.nodes) == len(set(partial) & set(estimates))


class TestCli:
    def test_demo_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(["demo", "--trace", str(trace_path),
                     "--metrics", "--metrics-json", str(metrics_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "spans by category" in out
        trace = json.loads(trace_path.read_text())
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len({e["cat"] for e in xs}) >= 8
        lanes = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert MAIN_TRACK in lanes and len(lanes) >= 2
        payload = json.loads(metrics_path.read_text())
        named = len(payload["counters"]) + len(payload["gauges"])
        assert named >= 10

    def test_calibrate_subcommand(self, tmp_path, capsys):
        json_path = tmp_path / "calibration.json"
        code = main(["calibrate", "--scale", "tiny",
                     "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost-model calibration" in out
        assert "q-error" in out
        payload = json.loads(json_path.read_text())
        assert payload["nodes"]
        assert payload["aggregates"]["nodes"] == len(payload["nodes"])
        for node in payload["nodes"]:
            assert {"name", "modeled_seconds", "measured_seconds",
                    "seconds_q_error"} <= set(node)

    def test_demo_untraced_still_works(self, capsys):
        assert main(["demo", "--quiet"]) == 0
        assert "report for" in capsys.readouterr().out


class TestLogging:
    def test_level_mapping(self):
        assert level_for() == logging.WARNING
        assert level_for(verbose=1) == logging.INFO
        assert level_for(verbose=2) == logging.DEBUG
        assert level_for(verbose=5) == logging.DEBUG
        assert level_for(verbose=3, quiet=True) == logging.ERROR

    def test_configure_is_idempotent(self):
        logger = configure_logging(verbose=1)
        configure_logging(verbose=2)
        logger = configure_logging()
        cli_handlers = [h for h in logger.handlers
                        if getattr(h, "_repro_cli", False)]
        assert len(cli_handlers) == 1
        assert logger.level == logging.WARNING
        assert logger.name == "repro"

    def test_modules_use_repro_namespace(self):
        import importlib
        for name in ("repro.runtime.engine", "repro.runtime.executor",
                     "repro.runtime.middleware", "repro.optimizer.merge"):
            module = importlib.import_module(name)
            assert module.logger.name.startswith("repro.")


class TestNodeTimingCompat:
    def test_old_positional_construction(self):
        from repro.runtime.engine import NodeTiming
        timing = NodeTiming("q1", "DB1", 0.5, 1.5, 10, 200)
        assert timing.rows_materialized == 0
        assert timing.overhead_seconds == 0.0
        assert timing.output_rows == 10

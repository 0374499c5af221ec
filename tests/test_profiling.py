"""Persistent profiling layer: run ledger, EXPLAIN ANALYZE, and the
Prometheus export.

The load-bearing guarantees tested here:

* structural fingerprints are value/version-independent — two separately
  built middlewares over the same AIG key their plans identically;
* the run ledger appends one JSONL record per evaluation, rotates at the
  size bound, and its reader tolerates a torn trailing line;
* a plan is priced by the cost model alone: repeated evaluations at
  one depth run the one prepared plan;
* ``render_profile`` / ``repro profile`` / ``repro explain --analyze``
  annotate every executed node with estimated vs measured numbers;
* the Prometheus export exposes counters, gauges, and p50/p95/p99
  latency summaries deterministically.
"""

import json

import pytest

from repro import Middleware, Network, serialize
from repro.hospital import build_hospital_aig, make_sources
from repro.obs import (
    RunLedger,
    Tracer,
    profile_evaluation,
    prometheus_text,
    write_prometheus,
)
from repro.runtime.incremental import plan_fingerprint, structural_fingerprint
from repro.__main__ import main
from tests.conftest import load_tiny_hospital


def fresh_middleware(**kwargs):
    sources = make_sources()
    load_tiny_hospital(sources)
    return Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                      **kwargs)


class TestStructuralFingerprints:
    def test_same_plan_same_fingerprint_across_instances(self):
        first = fresh_middleware()
        second = fresh_middleware()
        first.evaluate({"date": "d1"})
        second.evaluate({"date": "d2"})    # different root value
        assert plan_fingerprint(first.last_plan.graph) == \
            plan_fingerprint(second.last_plan.graph)
        firsts = {name: structural_fingerprint(node)
                  for name, node in first.last_plan.graph.nodes.items()}
        seconds = {name: structural_fingerprint(node)
                   for name, node in second.last_plan.graph.nodes.items()}
        assert firsts == seconds

    def test_data_changes_do_not_move_fingerprints(self):
        middleware = fresh_middleware()
        middleware.evaluate({"date": "d1"})
        before = plan_fingerprint(middleware.last_plan.graph)
        middleware.sources["DB3"].execute_script(
            "DELETE FROM billing WHERE trId='t4'")
        assert plan_fingerprint(middleware.last_plan.graph) == before

    def test_distinct_nodes_distinct_fingerprints(self):
        middleware = fresh_middleware()
        middleware.evaluate({"date": "d1"})
        prints = [structural_fingerprint(node)
                  for node in middleware.last_plan.graph.nodes.values()]
        assert len(set(prints)) == len(prints)


class TestRunLedger:
    def test_append_and_read(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        ledger.append({"kind": "evaluate", "n": 1})
        ledger.append({"kind": "evaluate", "n": 2})
        records = ledger.records()
        assert [r["n"] for r in records] == [1, 2]
        assert all(r["schema"] == 1 and "timestamp" in r for r in records)
        assert len(ledger) == 2

    def test_rotation_keeps_bounded_backups(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(str(path), max_bytes=200, backups=2)
        for n in range(12):
            ledger.append({"n": n, "pad": "x" * 60})
        assert path.exists()
        assert (tmp_path / "runs.jsonl.1").exists()
        assert (tmp_path / "runs.jsonl.2").exists()
        assert not (tmp_path / "runs.jsonl.3").exists()
        records = ledger.records()
        # oldest records were dropped with the oldest backup, order holds
        numbers = [r["n"] for r in records]
        assert numbers == sorted(numbers)
        assert numbers[-1] == 11
        assert len(numbers) < 12

    def test_corrupt_trailing_line_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(str(path))
        ledger.append({"n": 1})
        ledger.append({"n": 2})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"n": 3, "truncated": "mid-wri')  # torn append
        assert [r["n"] for r in ledger.records()] == [1, 2]
        # appending after the torn line still works; the reader skips
        # only the corrupt line
        ledger.append({"n": 4})
        recovered = [r["n"] for r in ledger.records()]
        assert 4 in recovered and 3 not in recovered

    def test_non_object_lines_ignored(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('[1, 2]\n\n{"ok": true}\n')
        assert RunLedger(str(path)).records() == [{"ok": True}]


class TestMiddlewareLedger:
    def test_two_runs_matching_fingerprints(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        middleware = fresh_middleware(ledger=path, tracer=Tracer())
        first = middleware.evaluate({"date": "d1"})
        second = middleware.evaluate({"date": "d1"})
        records = RunLedger(path).records()
        assert len(records) == 2
        assert records[0]["plan_fingerprint"] == \
            records[1]["plan_fingerprint"]
        assert records[0]["kind"] == "evaluate"
        assert records[0]["run"]["document_bytes"] == \
            len(serialize(first.document).encode("utf-8"))
        assert records[0]["config"]["merging"] is True
        assert records[0]["plan"]["node_count"] == first.node_count
        nodes = records[0]["nodes"]
        assert nodes
        for node in nodes:
            assert node["fingerprint"]
            assert node["output_rows"] >= 0
            assert node["eval_seconds"] >= 0.0
        # per-run metrics are deltas: the second record counts only the
        # second run's queries
        assert records[1]["metrics"]["counters"]["queries_executed"] == \
            second.queries_executed
        assert records[1]["run"]["peak_rss_bytes"] is None or \
            records[1]["run"]["peak_rss_bytes"] > 0

    #: One record as the commit before the data-plane knobs were removed
    #: wrote it (``pushdown=True, columnar=True``; ``nodes`` emptied) —
    #: also the last shape to carry ``config.workers``.
    OLD_RECORD = (
        '{"config": {"columnar_batch_rows": 1024, "cost_feedback": false, '
        '"deadline": null, "emulate_overheads": false, "incremental": false, '
        '"max_unfold_depth": 64, "merging": true, "on_source_failure": '
        '"abort", "pushdown": true, "query_overhead": 0.25, "retries": null, '
        '"scheduling": "static", "shards": 1, "unfold_depth": 4, '
        '"violation_mode": "abort", "workers": 1}, "constraints": [], '
        '"kind": "evaluate", "metrics": {"counters": {}, "gauges": {}, '
        '"histograms": {}}, "nodes": [], "plan": {"estimated_cost": 1.354307, '
        '"node_count": 10, "response_time": 1.133014, "unfold_depth": 4}, '
        '"plan_fingerprint": "dc7f314d591bdfd2b62e81d4fe748f5e4b220bed97d4d2'
        '4cdc1a2f069cc5c1ce", "run": {"bytes_shipped": 1051, "degraded": '
        'false, "document_bytes": 668, "measured_seconds": 0.005671, '
        '"peak_rss_bytes": 46485504, "queries_executed": 10, "reused_nodes": '
        '0, "tainted_nodes": 0, "violations": 0}, "schema": 1, '
        '"timestamp": 1790807767.388}\n')

    def test_ledger_with_removed_knobs_still_loads(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(self.OLD_RECORD, encoding="utf-8")
        fresh_middleware(ledger=str(path)).evaluate({"date": "d1"})
        old, new = RunLedger(str(path)).records()
        assert old["config"]["pushdown"] is True
        assert "pushdown" not in new["config"]
        assert "columnar_batch_rows" not in new["config"]
        assert old["config"]["workers"] == 1
        assert "workers" not in new["config"]
        assert old["config"]["cost_feedback"] is False
        assert "cost_feedback" not in new["config"]
        # the same document, though not the same plan: guards have since
        # been fused with their collections (fewer nodes, new fingerprint)
        assert new["run"]["document_bytes"] == old["run"]["document_bytes"]

    def test_streaming_run_recorded(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        middleware = fresh_middleware(ledger=path)
        chunks: list[str] = []
        report = middleware.evaluate_stream({"date": "d1"}, chunks.append)
        (record,) = RunLedger(path).records()
        assert record["kind"] == "stream"
        assert record["run"]["document_bytes"] == \
            len("".join(chunks).encode("utf-8"))
        assert record["run"]["streamed_elements"] == report.elements
        assert record["plan_fingerprint"]

    @pytest.mark.parametrize("indent", [None, 2])
    def test_stream_and_evaluate_record_the_same_bytes(self, tmp_path,
                                                       indent):
        # non-ASCII PCDATA: 2-, 3- and 4-byte UTF-8 sequences, so
        # characters and bytes differ (the streamed record used to hold
        # the character count)
        from tests.test_tagging_program import (CATALOG_SCHEMA,
                                                build_catalog_aig)
        from repro.relational import DataSource
        source = DataSource(CATALOG_SCHEMA)
        source.load_rows("items", [
            ("sku1", "caf\u00e9", "1", "d1"),
            ("sku2", "\u65e5\u672c", "2", "d1"),
            ("sku3", "\U0001f600 <&>", "3", "d1")])
        path = str(tmp_path / "ledger.jsonl")
        tracer = Tracer()
        middleware = Middleware(build_catalog_aig(), {"WH": source},
                                ledger=path, tracer=tracer)
        document = middleware.evaluate({"day": "d1"}).document
        chunks: list[str] = []
        report = middleware.evaluate_stream({"day": "d1"}, chunks.append,
                                            indent=indent)
        body = "".join(chunks)
        evaluated, streamed = RunLedger(path).records()
        compact = len(serialize(document).encode("utf-8"))
        assert evaluated["run"]["document_bytes"] == compact
        assert streamed["run"]["document_bytes"] == len(body.encode("utf-8"))
        if indent is None:
            assert streamed["run"]["document_bytes"] == compact
        # the gauge keeps its meaning: characters, fewer than bytes here
        assert report.characters == len(body) < len(body.encode("utf-8"))
        assert tracer.metrics.gauge("document_characters") == len(body)

    def test_evaluate_counts_bytes_without_serializing(self, tmp_path,
                                                       monkeypatch):
        """The recorded bytes are the compact document's, on hospital and on
        non-ASCII text, and ``evaluate`` writes the tree zero times."""
        import importlib
        from tests.test_tagging_program import (CATALOG_SCHEMA,
                                                build_catalog_aig)
        from repro.relational import DataSource

        module = importlib.import_module("repro.xmlmodel.serialize")
        calls = []
        real = module.serialize
        monkeypatch.setattr(module, "serialize", lambda *args, **kwargs: (
            calls.append(args), real(*args, **kwargs))[1])
        source = DataSource(CATALOG_SCHEMA)
        source.load_rows("items", [("sku1", "café \U0001f600", "1", "d1"),
                                   ("sku2", "<&>", "2", "d1")])
        cases = [(fresh_middleware, {"date": "d1"}),
                 (lambda **kwargs: Middleware(build_catalog_aig(),
                                              {"WH": source}, **kwargs),
                  {"day": "d1"})]
        for make, root in cases:
            path = str(tmp_path / f"{len(root)}{sorted(root)[0]}.jsonl")
            document = make(ledger=path).evaluate(root).document
            assert calls == []
            (record,) = RunLedger(path).records()
            assert record["run"]["document_bytes"] == \
                len(serialize(document).encode("utf-8"))

    def test_ledger_never_changes_the_document(self, tmp_path):
        plain = fresh_middleware().evaluate({"date": "d1"})
        ledgered = fresh_middleware(
            ledger=str(tmp_path / "l.jsonl")).evaluate({"date": "d1"})
        assert serialize(ledgered.document) == serialize(plain.document)


class TestOnePlanPerDepth:
    @pytest.mark.parametrize("incremental", [False, True])
    def test_repeated_runs_prepare_once(self, incremental):
        middleware = fresh_middleware(incremental=incremental)
        middleware.evaluate({"date": "d1"})
        first = middleware.last_plan
        for _ in range(3):
            middleware.evaluate({"date": "d1"})
        assert middleware.prepare_count == 1
        assert middleware.last_plan is first
        assert list(middleware._prepared) == [first.depth]


class TestExplainAnalyze:
    def test_render_joins_est_and_measured(self):
        middleware = fresh_middleware()
        report, calibration, text = profile_evaluation(middleware,
                                                       {"date": "d1"})
        assert "EXPLAIN ANALYZE" in text
        assert "rows est/act" in text
        assert "summary:" in text
        assert f"{report.node_count} node(s)" in text
        profiled = calibration.nodes
        assert profiled
        rendered_names = text
        for node in profiled:
            assert node.rows_q >= 1.0
            assert node.seconds_q >= 1.0
            shown = node.name if len(node.name) <= 37 else node.name[:34]
            assert shown in rendered_names
            json.dumps(node.to_dict())
        assert sorted(node.checks for node in profiled if node.checks) == [
            "subset patient(treatment.trId ⊆ item.trId)",
            "unique patient(item.trId -> item)"]
        assert "guard unique patient(item.trId -> item)" in text

    def test_worst_offenders_flagged_cold(self):
        middleware = fresh_middleware()
        _, _, text = profile_evaluation(middleware, {"date": "d1"})
        # the untuned model mis-prices the tiny dataset, so a cold run
        # must flag offenders
        assert "worst cost-model offenders" in text

    def test_cli_profile_two_runs_learns(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        prom_path = tmp_path / "metrics.prom"
        code = main(["profile", "--runs", "2",
                     "--ledger", str(ledger_path),
                     "--prometheus", str(prom_path),
                     "--json", str(tmp_path / "profile.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- run 1/2 --" in out and "-- run 2/2 --" in out
        assert "EXPLAIN ANALYZE" in out
        records = RunLedger(str(ledger_path)).records()
        assert len(records) == 2
        assert records[0]["plan_fingerprint"] == \
            records[1]["plan_fingerprint"]
        # one prepared plan: the model's price is the same on both runs
        assert records[0]["plan"]["estimated_cost"] == \
            records[1]["plan"]["estimated_cost"]
        prom = prom_path.read_text()
        assert "repro_evaluation_latency_seconds" in prom
        payload = json.loads((tmp_path / "profile.json").read_text())
        assert payload["nodes"]
        # one record shape: the same keys as `repro calibrate --json`
        for node in payload["nodes"]:
            assert {"checks", "members", "modeled_seconds",
                    "measured_seconds", "bytes_q_error"} <= set(node)

    def test_cli_profile_appends_to_a_ledger_with_removed_knobs(
            self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text(TestMiddlewareLedger.OLD_RECORD, encoding="utf-8")
        assert main(["profile", "--ledger", str(path)]) == 0
        assert "1 record(s) appended" in capsys.readouterr().out
        old, new = RunLedger(str(path)).records()
        assert old["config"]["workers"] == 1
        assert "workers" not in new["config"]
        assert "cost_feedback" not in new["config"]
        assert new["plan_fingerprint"] and new["nodes"]

    def test_cli_explain_analyze(self, capsys):
        assert main(["explain", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "AIG middleware plan" in out
        assert "EXPLAIN ANALYZE" in out


class TestPrometheusExport:
    @pytest.fixture(scope="class")
    def traced_run(self):
        tracer = Tracer()
        middleware = fresh_middleware(tracer=tracer)
        middleware.evaluate({"date": "d1"})
        return tracer

    def test_counter_gauge_summary_families(self, traced_run):
        text = prometheus_text(traced_run)
        assert "# TYPE repro_queries_executed_total counter" in text
        assert "# TYPE repro_qdg_nodes gauge" in text
        assert "# TYPE repro_evaluation_latency_seconds summary" in text
        assert "# TYPE repro_node_latency_seconds summary" in text
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'quantile="{quantile}"' in text
        assert "repro_evaluation_latency_seconds_count 1" in text
        # dotted scopes become labels, keeping one family per base name
        assert 'repro_lane_busy_seconds_total{scope="DB1"}' in text
        assert 'scope="DB1",quantile=' in text

    def test_deterministic_and_writable(self, traced_run, tmp_path):
        first = prometheus_text(traced_run)
        assert first == prometheus_text(traced_run)
        path = tmp_path / "metrics.prom"
        lines = write_prometheus(traced_run, str(path))
        assert path.read_text() == first
        assert lines == first.count("\n")

"""Statistics on demand (``relational/statistics.py``): counts, not clocks.

A fresh ``Middleware`` reads nothing; the first ``prepare`` reads exactly
the statistics its plan asks for, once each, as catalog reads — outside
``DataSource.execute``'s accounting and the fault injector's hooks; a read
that fails is advisory; ``invalidate_plans`` forgets what was read; and the
plans are the ones an eager scan of the same sources gives.
"""

import importlib.util
import json
import threading
from pathlib import Path

import pytest

from repro.errors import EvaluationError
from repro.fuzz import build_scenario, generate_scenario
from repro.fuzz.oracle import backend_mixes
from repro.hospital import build_hospital_aig, make_sources
from repro.datagen import make_loaded_sources
from repro.obs import Tracer
from repro.optimizer import CostModel
from repro.relational import (DataSource, Network, SourceSchema,
                              StatisticsCatalog)
from repro.relational.schema import relation
from repro.resilience import FaultInjector
from repro.runtime import Middleware
from repro.sqlq import parse_query
from repro.xmlmodel import serialize
from tests.conftest import load_tiny_hospital, trace_statements

_spec = importlib.util.spec_from_file_location(
    "plan_identity", Path(__file__).resolve().parents[1] / "tools"
    / "plan_identity.py")
plan_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(plan_identity)  # also puts benchmarks/e2e on the path

from workloads import (build_catalog_aig,  # noqa: E402
                       close_sources, make_catalog_sources)

#: the cold ``catalog-stream`` plan is one node nothing joins against: its
#: ``$day`` filter is the one distinct count an estimate consumes
CATALOG_READS = {("WH", "items", "cardinality", None),
                 ("WH", "items", "distinct", "day")}
#: every read a :class:`StatisticsCatalog` can issue starts so
CATALOG_SQL = ("SELECT COUNT(", "SELECT CAST(")


def asked(middleware) -> list:
    return [read[:4] for read in middleware.stats.reads]


class TestColdPath:
    def test_a_fresh_middleware_issues_no_statement(self):
        hospital = make_sources()
        load_tiny_hospital(hospital)
        catalog = make_catalog_sources(1, 200)
        for aig, sources in ((build_hospital_aig(), hospital),
                             (build_catalog_aig(), catalog)):
            statements = trace_statements(sources)
            middleware = Middleware(aig, sources)
            assert statements == []
            assert middleware.stats.reads == []
            assert all(source.total_queries == 0
                       for source in sources.values())

    def test_cold_document_reads_what_its_plan_asks_and_nothing_else(self):
        sources = make_catalog_sources(1, 2000)
        statements = trace_statements(sources)
        middleware = Middleware(build_catalog_aig(), sources)
        chunks = []
        report = middleware.evaluate_stream({"day": "2026-08-03"},
                                            chunks.append)
        reads = asked(middleware)
        assert set(reads) == CATALOG_READS and len(reads) == 2
        # $day is a parameter, not a literal: no most-common-value query,
        # and no column the query does not reference was looked at
        assert not any("GROUP BY" in sql or '"u' in sql
                       for _, sql in statements)
        # 2 catalog reads + the plan's one statement, which alone is
        # counted as a query
        assert len(statements) == 3
        assert report.queries_executed == 1
        assert sources["WH"].total_queries == 1
        # a second prepare of the same plan, and of another depth, hit the
        # memo
        middleware.prepare(None)
        middleware.prepare(2)
        assert len(asked(middleware)) == 2 and len(statements) == 3

    def test_each_statistic_is_read_once_across_threads(self):
        sources = make_catalog_sources(1, 2000)
        statements = trace_statements(sources)
        middleware = Middleware(build_catalog_aig(), sources)
        errors = []

        def guarded(work):
            def run():
                try:
                    work()
                except BaseException as error:  # re-raised below
                    errors.append(error)
            return threading.Thread(target=run)

        threads = [
            guarded(lambda: middleware.evaluate_stream(
                {"day": "2026-08-04"}, lambda chunk: None)),
            guarded(lambda: middleware.prepare(1)),
            guarded(lambda: middleware.prepare(2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        reads = asked(middleware)
        assert sorted(reads, key=str) == sorted(CATALOG_READS, key=str)
        assert sum("COUNT(" in sql for _, sql in statements) == 2

    def test_hospital_reads_only_referenced_columns(self):
        sources, dataset = make_loaded_sources("tiny", seed=5)
        middleware = Middleware(build_hospital_aig(), sources,
                                Network.mbps(1.0))
        middleware.evaluate({"date": dataset.busiest_date()})
        reads = asked(middleware)
        assert len(reads) == len(set(reads))
        assert {kind for _, _, kind, _ in reads} == {"cardinality",
                                                     "distinct"}
        # every column asked about is one some query of the AIG names
        text = " ".join(
            str(function) for rule in middleware.aig.rules.values()
            for function in vars(rule).values())
        assert all(column in text for _, _, _, column in reads if column)

    def test_mcv_list_is_read_iff_a_literal_is_compared(self):
        source = DataSource(SourceSchema("DB", (relation("t", "k", "v"),)))
        source.load_rows("t", [(f"id{i}", "hot") for i in range(90)]
                         + [(f"id{90 + i}", f"cold{i}") for i in range(10)])
        # the selected column's distinct count is never wanted: nothing
        # joins against the estimate and the query is no DISTINCT
        for text, kinds in (
                ("select t.k from DB:t t where t.v = $x",
                 ["cardinality", "distinct"]),
                ("select t.k from DB:t t where t.v = 'hot'",
                 ["cardinality", "distinct", "mcv"]),
                # an all-distinct column has no common value to ask for
                ("select t.v from DB:t t where t.k = 'id3'",
                 ["cardinality", "distinct"])):
            catalog = StatisticsCatalog.from_sources([source])
            CostModel(catalog)._estimate_query(parse_query(text), {})
            assert [read[2] for read in catalog.reads] == kinds, text

    def test_reads_are_spans_and_counted(self):
        sources = make_catalog_sources(1, 200)
        tracer = Tracer()
        middleware = Middleware(build_catalog_aig(), sources, tracer=tracer)
        middleware.evaluate_stream({"day": "2026-08-03"}, lambda chunk: None)
        spans = tracer.spans_by_category("statistics")
        assert {(span.attrs["source"], span.attrs["relation"],
                 span.attrs["kind"], span.attrs["column"])
                for span in spans} == CATALOG_READS
        # under a span of the prepare that asked
        by_id = {span.span_id: span for span in tracer.spans}
        assert {by_id[span.parent_id].name for span in spans} <= {
            "specialize", "build-qdg", "merge+schedule", "decompose"}
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["statistics_reads"] == 2
        assert "statistics_read_failures" not in counters
        text = middleware.explain()
        assert "-- statistics read" in text
        assert "  WH:items distinct(day)  " in text


class TestConsumedDistinct:
    """An estimate's output distinct counts are read where a join or a
    ``DISTINCT`` consumes them, inside ``prepare``, and nowhere else."""

    @staticmethod
    def _model():
        source = DataSource(SourceSchema("DB", (
            relation("t", "k", "v", "w"), relation("u", "k", "x"))))
        source.load_rows("t", [(f"k{i % 7}", f"v{i % 3}", "w")
                               for i in range(50)])
        source.load_rows("u", [(f"k{i}", f"x{i}") for i in range(20)])
        catalog = StatisticsCatalog.from_sources([source])
        return catalog, CostModel(catalog)

    def test_a_join_reads_the_producers_join_column_only(self):
        catalog, model = self._model()
        producer = model._estimate_query(
            parse_query("select t.k, t.v, t.w from DB:t t"), {})
        assert [read[:4] for read in catalog.reads] == [
            ("DB", "t", "cardinality", None)]
        model._estimate_query(
            parse_query("select u.x, p.v from DB:u u, @producer p "
                        "where u.k = p.k"), {"producer": producer})
        assert [read[:4] for read in catalog.reads][1:] == [
            ("DB", "u", "cardinality", None),
            ("DB", "u", "distinct", "k"),
            ("DB", "t", "distinct", "k")]
        # read once: the producer keeps the value
        assert producer.distinct["k"] == 7
        assert len(catalog.reads) == 4

    def test_select_distinct_reads_every_output_column(self):
        catalog, model = self._model()
        estimate = model._estimate_query(
            parse_query("select distinct t.k, t.v from DB:t t"), {})
        assert [read[2:4] for read in catalog.reads] == [
            ("cardinality", None), ("distinct", "k"), ("distinct", "v")]
        assert estimate.cardinality == 21

    def test_reads_are_the_same_with_a_feedback_store(self):
        from repro.obs.feedback import CostFeedbackStore
        sources, dataset = make_loaded_sources("tiny", seed=5)
        date = dataset.busiest_date()
        store = CostFeedbackStore()

        def evaluated(**config):
            middleware = Middleware(build_hospital_aig(), sources,
                                    Network.mbps(1.0), **config)
            middleware.evaluate({"date": date})
            return middleware

        plain = evaluated()
        evaluated(cost_feedback=store)
        assert store.generation > 0
        # a fresh catalog planned from the store's corrections
        corrected = evaluated(cost_feedback=store)
        assert asked(corrected) == asked(plain)
        catalog = make_catalog_sources(1, 200)
        for _ in range(2):
            middleware = Middleware(build_catalog_aig(), catalog,
                                    cost_feedback=store)
            middleware.evaluate_stream({"day": "2026-08-03"},
                                       lambda chunk: None)
            assert set(asked(middleware)) == CATALOG_READS
        close_sources(sources)
        close_sources(catalog)

    @pytest.mark.parametrize("workload", ["hospital", "catalog"])
    def test_no_read_after_prepare_returns(self, workload):
        if workload == "hospital":
            sources, dataset = make_loaded_sources("tiny", seed=5)
            # deep enough that no run re-prepares at a doubled depth
            middleware = Middleware(build_hospital_aig(), sources,
                                    Network.mbps(1.0), unfold_depth=8)
            root = {"date": dataset.busiest_date()}
        else:
            sources = make_catalog_sources(1, 200)
            middleware = Middleware(build_catalog_aig(), sources)
            root = {"day": "2026-08-03"}
        middleware.prepare(middleware._initial_depth())
        reads = list(middleware.stats.reads)
        statements = trace_statements(sources)
        middleware.evaluate(dict(root))
        middleware.evaluate_stream(dict(root), lambda chunk: None)
        middleware.explain()
        middleware.calibration_report()
        assert statements and not any(sql.lstrip().startswith(CATALOG_SQL)
                                      for _, sql in statements)
        assert middleware.stats.reads == reads
        close_sources(sources)


class TestStaleStatistics:
    """``invalidate_plans`` is documented as the call to make after the
    data shifted; the re-prepare must see current statistics."""

    def test_reprepare_after_invalidation_reads_current_values(self):
        sources = make_catalog_sources(1, 500)
        middleware = Middleware(build_catalog_aig(), sources)
        before = middleware.prepare(None).cost
        grown = make_catalog_sources(2, 5500)["WH"].execute(
            "SELECT * FROM items").rows[500:]
        sources["WH"].load_rows("items", grown)
        assert middleware.prepare(None).cost == before     # still cached
        middleware.invalidate_plans()
        assert middleware.stats.reads == []
        after = middleware.prepare(None).cost
        fresh = Middleware(build_catalog_aig(), sources).prepare(None).cost
        assert after == fresh != before

    def test_invalidate_endpoint_refreshes_statistics(self):
        from repro.service import EvaluationService
        from repro.service.server import start_background
        from http.client import HTTPConnection

        service = EvaluationService()
        sources = make_catalog_sources(1, 500)
        state = service.register_tenant("catalog", build_catalog_aig(),
                                        sources, {"incremental": False})
        # registration prepared the plan: the first request reads nothing
        assert state.middleware.prepare_count == 1
        assert len(state.middleware.stats.reads) == 2
        before = state.middleware.prepare(None).cost
        server, _ = start_background(service)

        def post(path, payload=None):
            connection = HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=60)
            try:
                connection.request("POST", path, json.dumps(payload or {}))
                response = connection.getresponse()
                return response.status, response.read()
            finally:
                connection.close()

        try:
            rows = make_catalog_sources(2, 5500)["WH"].execute(
                "SELECT * FROM items").rows[500:]
            assert post("/tenants/catalog/load", {
                "source": "WH", "relation": "items",
                "rows": rows})[0] == 200
            assert post("/tenants/catalog/invalidate")[0] == 200
            status, _ = post("/evaluate", {"tenant": "catalog",
                                           "root": {"day": "2026-08-03"}})
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
        after = state.middleware.prepare(None).cost
        fresh = Middleware(build_catalog_aig(), sources).prepare(None).cost
        assert after == fresh != before


class TestChainStatistic:
    """``unfold_depth="auto"``: the depth estimate is a statistic too —
    read once, kept while the chain relation is unchanged, and its
    federation attaches only the sources the chains live in."""

    def test_estimate_is_kept_until_the_chain_relation_changes(
            self, monkeypatch):
        from repro.relational.source import Federation
        opened, closed = [], []
        real_init, real_close = Federation.__init__, Federation.close
        monkeypatch.setattr(
            Federation, "__init__",
            lambda self, sources: (opened.append(
                sorted(source.name for source in sources)),
                real_init(self, sources))[1])
        monkeypatch.setattr(
            Federation, "close",
            lambda self: (closed.append(self), real_close(self))[1])

        sources, dataset = make_loaded_sources("tiny", seed=5,
                                               backend="file:csv")
        date = dataset.busiest_date()
        fixed = Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                           unfold_depth=8).evaluate({"date": date})
        middleware = Middleware(build_hospital_aig(), sources,
                                Network.mbps(1.0), unfold_depth="auto")
        depth = middleware._initial_depth()
        # one federation, over DB4 alone (procedure + treatment live
        # there), closed again
        assert opened == [["DB4"]] and len(closed) == 1
        first = middleware.evaluate({"date": date})
        counts = {name: source.total_queries
                  for name, source in sources.items()}
        second = middleware.evaluate({"date": date})
        assert len(opened) == 1
        # the second document cost each source its plan statements only
        assert {name: source.total_queries - counts[name]
                for name, source in sources.items()} == {
            name: len(sequence) for name, sequence
            in middleware.prepare(second.unfold_depth).plan.items()
            if name in sources}
        assert first.unfold_depth == second.unfold_depth == depth
        assert serialize(first.document) == serialize(second.document) \
            == serialize(fixed.document)
        # a write to the chain relations: a fresh estimate, of the new
        # 12-node chain
        sources["DB4"].load_rows("treatment", [
            (f"x{i}", f"step {i}") for i in range(12)])
        assert len(opened) == 1     # nobody asked yet
        sources["DB4"].load_rows("procedure", [
            (f"x{i}", f"x{i + 1}") for i in range(11)])
        assert depth < 13 == middleware._initial_depth()
        assert len(opened) == len(closed) == 2
        # ... and none for a write elsewhere
        sources["DB3"].load_rows("billing", [("x1", "1")])
        assert middleware._initial_depth() == 13
        assert len(opened) == 2
        close_sources(sources)


class TestPlanIdentity:
    """``prepare()`` on demand == ``prepare()`` over an eager snapshot."""

    @pytest.mark.parametrize("label", [
        "hospital-daily", "hospital-daily unmerged", "groups-constraints",
        "catalog-stream"])
    def test_benchmark_workloads_at_full_size(self, label):
        config, scenario = next(
            (config, scenario) for name, scenario, config
            in plan_identity.cases() if name == label)
        sources = scenario.make_sources(1, scenario.full)
        try:
            aig = scenario.build_aig()
            depth = Middleware(aig, sources, **config)._initial_depth()
            # the reads as prepare left them: the signature reads the rest
            same, on_demand, reads = plan_identity.identical(
                aig, sources, depth, **config)
            assert same
            assert on_demand.stats.read_failures == 0
            if label == "catalog-stream":
                assert set(reads) == CATALOG_READS and len(reads) == 2
        finally:
            close_sources(sources)

    @pytest.mark.parametrize("seed", range(45))
    def test_fuzz_specs_on_every_backend_mix(self, seed):
        spec = generate_scenario(seed)
        names = {table.source for table in spec.tables}
        for mix in (None, *backend_mixes(names).values()):
            aig, sources = build_scenario(spec, backends=mix)
            try:
                depth = Middleware(aig, sources)._initial_depth()
                for merging in (True, False):
                    same, on_demand, _ = plan_identity.identical(
                        aig, sources, depth, merging=merging)
                    assert same, (seed, mix, merging)
                    assert on_demand.stats.read_failures == 0
            finally:
                close_sources(sources)

    def test_table_stats_stay_positional_for_synthetic_catalogs(self):
        from repro.relational import TableStats
        stats = TableStats(1000, {"a": 5}, {"a": (("x", 900),)})
        assert stats.distinct_count("a") == 5
        assert stats.distinct_count("b") == 1000
        assert stats.equality_selectivity("a", "x") == pytest.approx(0.9)


def _tiny(**config):
    sources = make_sources()
    load_tiny_hospital(sources)
    return sources, Middleware(build_hospital_aig(), sources,
                               Network.mbps(1.0), **config)


class TestFailurePaths:
    """A statistic read is advisory; an injected fault never reaches one."""

    @pytest.mark.parametrize("break_it,broken", [
        (lambda sources: sources["DB4"].execute_script(
            "DROP TABLE procedure"), ("DB4", "procedure", "trId1")),
        (lambda sources: sources["DB2"].execute_script(
            "DROP TABLE cover"), ("DB2", "cover", "trId")),
        (lambda sources: sources["DB3"].close(), ("DB3", "billing", "trId")),
        (lambda sources: sources["DB1"].close(), ("DB1", "patient", "SSN")),
    ], ids=["drop-procedure", "drop-cover", "close-DB3", "close-DB1"])
    def test_failed_read_ends_as_a_run_whose_statistics_were_read(
            self, break_it, broken):
        def outcome(middleware):
            with pytest.raises(EvaluationError) as caught:
                middleware.evaluate({"date": "d1"})
            # up to the shipped table's per-source serial number
            return (type(caught.value).__name__,
                    str(caught.value).splitlines()[0])

        # reference: statistics read while the source was whole (where the
        # eager scan used to read them), broken afterwards
        sources, whole = _tiny()
        whole.prepare(4)
        break_it(sources)
        expected = outcome(whole)

        sources, middleware = _tiny(tracer=Tracer())
        break_it(sources)
        assert outcome(middleware) == expected
        failures = middleware.stats.read_failures
        assert failures > 0
        assert middleware.tracer.metrics.snapshot()["counters"][
            "statistics_read_failures"] == failures
        # nothing of a failed read was kept: asking again reads again
        source, relation, column = broken
        table = middleware.stats.table(source, relation)
        assert table.cardinality == 1000        # the neutral default
        assert table.distinct_count(column) == 1000
        assert middleware.stats.read_failures == failures + 2

    @pytest.mark.parametrize("spec", [
        "DB1:error@1", "DB2:error@2,DB4:error@1"])
    def test_seeded_fault_hits_the_same_plan_statement(self, spec):
        def run(prepare_first):
            sources, middleware = _tiny()
            if prepare_first:     # statistics read before the injector
                middleware.prepare(4)
            injector = FaultInjector.from_spec(spec).install(sources)
            with pytest.raises(EvaluationError) as caught:
                middleware.evaluate({"date": "d1"})
            return (str(caught.value).splitlines()[0], injector.fired,
                    injector._statement_counts,
                    {name: source.total_queries
                     for name, source in sources.items()})

        assert run(prepare_first=False) == run(prepare_first=True)

    def test_reads_are_not_plan_statements(self):
        sources, middleware = _tiny()
        injector = FaultInjector.from_spec("DB1:slow@1:0.001").install(
            sources)
        middleware.prepare(4)
        assert len(middleware.stats.reads) > 0
        assert injector._statement_counts == {}
        assert all(source.total_queries == 0 for source in sources.values())

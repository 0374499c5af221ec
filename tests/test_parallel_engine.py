"""Equivalence and unit tests for the concurrent plan executor.

The load-bearing invariant: however many worker lanes execute the plan,
the produced document, the reported violations, and the shipped byte count
are identical to the sequential engine and to the conceptual evaluator.
``response_time`` combines *measured* SQLite timings with the modeled
clock, so two runs of the very same configuration differ by measurement
noise; comparisons therefore use a small relative tolerance instead of
exact equality.
"""

from itertools import combinations

import pytest

from repro.errors import EvaluationError, PlanError, ReproError
from repro.aig import AIG, ConceptualEvaluator, assign, query
from repro.datagen import make_loaded_sources
from repro.dtd import parse_dtd
from repro.hospital import build_hospital_aig, make_sources
from repro.obs import Tracer
from repro.relational import Catalog, DataSource, Network
from repro.relational.schema import SourceSchema, relation
from repro.resilience.faults import FaultClause, FaultInjector
from repro.relational.source import ResultSet, intern_columns
from repro.runtime import Middleware
from repro.runtime.engine import Engine
from repro.runtime.executor import resolve_workers
from repro.xmlmodel import serialize
from tests.conftest import load_tiny_hospital

SCALES = ("tiny", "small")
RESPONSE_TOLERANCE = 0.10   # generous: CI runners inflate measured evals


def _run(scale, workers):
    aig = build_hospital_aig()
    sources, dataset = make_loaded_sources(scale)
    middleware = Middleware(aig, sources, Network.mbps(1.0),
                            unfold_depth="auto", workers=workers)
    return middleware.evaluate({"date": dataset.busiest_date()})


@pytest.fixture(scope="module")
def baselines():
    """Per-scale sequential report + conceptual document."""
    results = {}
    for scale in SCALES:
        report = _run(scale, 1)
        aig = build_hospital_aig()
        sources, dataset = make_loaded_sources(scale)
        conceptual = ConceptualEvaluator(
            aig, list(sources.values())).evaluate(
                {"date": dataset.busiest_date()})
        results[scale] = (report, conceptual)
    return results


class TestEquivalenceGrid:
    # ids keep the "static" they carried while a scheduling policy was a
    # second axis (every schedule is static now)
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("workers", [pytest.param(1, id="1-static"),
                                         pytest.param(4, id="4-static")])
    def test_matches_sequential_and_conceptual(self, baselines, scale,
                                               workers):
        baseline, conceptual = baselines[scale]
        report = _run(scale, workers)
        assert serialize(report.document) == serialize(baseline.document)
        assert serialize(report.document) == serialize(conceptual)
        assert report.violations == baseline.violations == []
        assert report.bytes_shipped == baseline.bytes_shipped
        # The modeled clock is a function of per-source order and the
        # measurements; only the measured eval component wobbles.
        relative = abs(report.response_time - baseline.response_time) \
            / baseline.response_time
        assert relative < RESPONSE_TOLERANCE

    def test_auto_workers(self, baselines):
        baseline, _ = baselines["tiny"]
        report = _run("tiny", "auto")
        assert serialize(report.document) == serialize(baseline.document)
        assert report.workers >= 4   # DB1..DB4 + Mediator participate


def _fleet():
    """Three independent single-source star sections: a plan with width
    (the merged hospital plan is a chain, nothing in it can overlap)."""
    names = ("A", "B", "C")
    dtd = parse_dtd(
        f"<!ELEMENT fleet ({', '.join('sec' + n for n in names)})>"
        + "".join(f"<!ELEMENT sec{n} (row{n}*)><!ELEMENT row{n} (#PCDATA)>"
                  for n in names))
    schemas = [SourceSchema(f"DB{n}", (relation("rows", "v"),))
               for n in names]
    aig = AIG(dtd, Catalog(schemas))
    aig.rule("fleet", inh={f"sec{n}": assign() for n in names})
    sources = {}
    for n, schema in zip(names, schemas):
        aig.inh(f"row{n}", "val")
        aig.rule(f"sec{n}", inh={
            f"row{n}": query(f"select r.v as val from DB{n}:rows r")})
        sources[schema.source] = DataSource(schema)
        sources[schema.source].load_rows(
            "rows", [(f"{n}{index}",) for index in range(3)])
    return aig.validate(), sources


class TestLaneOverlap:
    def _overlapping_lane_pairs(self, workers):
        aig, sources = _fleet()
        tracer = Tracer()
        middleware = Middleware(aig, sources, workers=workers, tracer=tracer)
        middleware.prepare(None)
        # A real wait inside each source's first statement of the run.
        FaultInjector([FaultClause(name, "slow", 1, 0.02)
                       for name in sources]).install(sources)
        report = middleware.evaluate({})
        lanes = [span for span in tracer.spans_by_category("query")
                 if span.track in sources]
        assert len(lanes) == len(sources)
        pairs = [(a.track, b.track) for a, b in combinations(lanes, 2)
                 if a.start < b.end and b.start < a.end]
        return pairs, serialize(report.document)

    def test_slow_sources_overlap_on_worker_lanes_only(self):
        """Structural, not a speedup: with every source slow, lane spans
        of different sources intersect at workers=4 and never inline."""
        inline_pairs, inline_xml = self._overlapping_lane_pairs(1)
        threaded_pairs, threaded_xml = self._overlapping_lane_pairs(4)
        assert inline_pairs == []
        assert threaded_pairs
        assert threaded_xml == inline_xml


class TestViolationEquivalence:
    def _sources_with_key_violation(self):
        sources = make_sources()
        sources["DB3"] = DataSource(SourceSchema(
            "DB3", (relation("billing", "trId", "price"),)))
        load_tiny_hospital(sources)
        sources["DB3"].load_rows("billing", [("t1", "777")])
        return sources

    def test_report_mode_violations_identical(self, hospital_aig):
        reports = []
        for workers in (1, 4):
            middleware = Middleware(hospital_aig,
                                    self._sources_with_key_violation(),
                                    Network.mbps(1.0), workers=workers,
                                    violation_mode="report")
            reports.append(middleware.evaluate({"date": "d1"}))
        sequential, threaded = reports
        assert len(sequential.violations) >= 1
        assert len(threaded.violations) == len(sequential.violations)
        assert serialize(threaded.document) == serialize(sequential.document)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_abort_mode_aborts(self, hospital_aig, workers):
        from repro.errors import EvaluationAborted
        middleware = Middleware(hospital_aig,
                                self._sources_with_key_violation(),
                                Network.mbps(1.0), workers=workers)
        with pytest.raises(EvaluationAborted):
            middleware.evaluate({"date": "d1"})


class TestWorkersValidation:
    def test_resolve_auto_counts_sources(self, hospital_aig, tiny_sources):
        middleware = Middleware(hospital_aig, tiny_sources,
                                Network.mbps(1.0))
        graph, _, _, _, _ = middleware.prepare(4)
        assert resolve_workers("auto", graph) == len(graph.sources())
        assert resolve_workers(3, graph) == 3

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "many", True])
    def test_bad_workers_rejected(self, bad):
        with pytest.raises(PlanError):
            resolve_workers(bad, None)

    def test_middleware_rejects_bad_workers(self, hospital_aig,
                                            tiny_sources):
        with pytest.raises(EvaluationError):
            Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                       workers=0)

    def test_unscheduled_node_still_rejected(self, hospital_aig,
                                             tiny_sources):
        middleware = Middleware(hospital_aig, tiny_sources,
                                Network.mbps(1.0))
        graph, _, _, _, _ = middleware.prepare(4)
        engine = Engine(graph, {}, tiny_sources, Network.mbps(1.0),
                        workers=4)
        with pytest.raises(PlanError, match="schedule"):
            engine.run({"date": "d1"})


class TestConnectionPool:
    def test_acquire_release_reuses(self):
        source = DataSource(SourceSchema(
            "P", (relation("r", "a"),)))
        leased = source.acquire_connection()
        assert leased is not source.connection
        source.release_connection(leased)
        assert source.acquire_connection() is leased
        source.close()

    def test_leased_connection_sees_base_tables(self):
        source = DataSource(SourceSchema("P", (relation("r", "a"),)))
        source.load_rows("r", [("1",), ("2",)])
        leased = source.acquire_connection()
        result = source.execute("SELECT a FROM r ORDER BY a",
                                connection=leased)
        assert result.rows == [("1",), ("2",)]
        source.release_connection(leased)
        source.close()

    def test_closed_source_refuses_leases(self):
        source = DataSource(SourceSchema("P", (relation("r", "a"),)))
        source.close()
        with pytest.raises(ReproError):
            source.acquire_connection()

    def test_release_after_close_closes_connection(self):
        source = DataSource(SourceSchema("P", (relation("r", "a"),)))
        leased = source.acquire_connection()
        source.close()
        source.release_connection(leased)   # must not resurrect the pool
        with pytest.raises(ReproError):
            source.acquire_connection()


class TestShipOnce:
    def test_shared_registry_creates_table_once(self):
        source = DataSource(SourceSchema("P", (relation("r", "a"),)))
        engine = Engine.__new__(Engine)   # only _materialize_inputs needed
        cache = {"n": ResultSet(["a"], [(1,), (2,)])}
        shipped = {}
        first, rows_first = engine._materialize_inputs(
            ["n"], source, cache, None, shipped)
        second, rows_second = engine._materialize_inputs(
            ["n"], source, cache, None, shipped)
        assert first == second                   # same physical table reused
        assert rows_first == rows_second == 2    # modeled charge per consumer
        assert source._temp_counter == 1
        source.close()


class TestResultSetInterning:
    def test_execute_interns_columns(self):
        source = DataSource(SourceSchema("P", (relation("r", "a", "b"),)))
        source.load_rows("r", [(1, 2)])
        first = source.execute("SELECT a, b FROM r")
        second = source.execute("SELECT a, b FROM r")
        assert first.columns is second.columns
        source.close()

    def test_intern_columns_identity(self):
        assert intern_columns(["x", "y"]) is intern_columns(("x", "y"))

    def test_width_bytes_cached(self):
        result = ResultSet(["a"], [(1,), ("xy",)])
        first = result.width_bytes()
        result.rows.append(("should-not-count",))
        assert result.width_bytes() == first

"""Failure-injection tests: the library must fail loudly and cleanly.

A production data-integration system meets broken schemas, dropped tables,
closed connections, and malformed inputs; every failure should surface as a
typed `ReproError` with context — never a silent wrong answer.  A
*transient* failure (docs/RESILIENCE.md) is refused at once too, and the
next run, once the fault has cleared, is whole and byte-identical.
"""

import logging
import sqlite3

import pytest

from repro.errors import (
    EvaluationError,
    PlanError,
    ReproError,
    SourceUnavailableError,
    SpecError,
)
from repro.aig import ConceptualEvaluator
from repro.hospital import build_hospital_aig, make_sources
from repro.relational import DataSource, Network, SourceSchema
from repro.relational.schema import relation
from repro.resilience import FaultInjector
from repro.runtime import Middleware
from repro.xmlmodel import serialize
from tests.conftest import load_tiny_hospital


class TestMissingData:
    def test_dropped_table_conceptual(self, hospital_aig, tiny_sources):
        tiny_sources["DB2"].execute_script("DROP TABLE cover")
        with pytest.raises(EvaluationError) as excinfo:
            ConceptualEvaluator(
                hospital_aig,
                list(tiny_sources.values())).evaluate({"date": "d1"})
        assert "cover" in str(excinfo.value)

    def test_dropped_table_middleware(self, hospital_aig, tiny_sources):
        tiny_sources["DB4"].execute_script("DROP TABLE procedure")
        # the statistics read fails quietly (advisory); the plan's own
        # statement at DB4 raises
        with pytest.raises(EvaluationError):
            Middleware(hospital_aig, tiny_sources,
                       Network.mbps(1.0)).evaluate({"date": "d1"})

    def test_missing_source(self, hospital_aig, tiny_sources):
        del tiny_sources["DB3"]
        middleware = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0))
        with pytest.raises(ReproError):
            middleware.evaluate({"date": "d1"})

    def test_closed_connection(self, hospital_aig, tiny_sources):
        tiny_sources["DB1"].close()
        with pytest.raises(ReproError):
            Middleware(hospital_aig, tiny_sources,
                       Network.mbps(1.0)).evaluate({"date": "d1"})


class TestBadInputs:
    def test_wrong_root_member_name(self, hospital_aig, tiny_sources):
        evaluator = ConceptualEvaluator(hospital_aig,
                                        list(tiny_sources.values()))
        with pytest.raises(EvaluationError) as excinfo:
            evaluator.evaluate({"when": "d1"})
        assert "date" in str(excinfo.value)

    def test_schema_mismatch_on_load(self):
        source = DataSource(SourceSchema("DB", (relation("t", "a", "b"),)))
        with pytest.raises(Exception):
            source.load_rows("t", [("only-one-column",)])

    def test_unknown_relation_on_load(self):
        source = DataSource(SourceSchema("DB", (relation("t", "a"),)))
        with pytest.raises(SpecError):
            source.load_rows("zzz", [("x",)])


class TestErrorHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        import repro.errors as errors
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not Exception:
                assert issubclass(obj, errors.ReproError), name

    def test_plan_error_message_names_node(self, hospital_aig, tiny_sources):
        from repro.optimizer import build_qdg, CostModel, schedule
        from repro.compilation import specialize
        from repro.runtime import unfold_aig
        from repro.runtime.engine import Engine
        from repro.relational import StatisticsCatalog
        stats = StatisticsCatalog.from_sources(list(tiny_sources.values()))
        spec = specialize(unfold_aig(hospital_aig, 2), stats)
        graph, _ = build_qdg(spec, stats)
        with pytest.raises(PlanError) as excinfo:
            Engine(graph, {}, tiny_sources,
                   Network.mbps(1.0)).run({"date": "d1"})
        assert "schedule" in str(excinfo.value)

    def test_sql_error_names_source_and_statement(self, tiny_sources):
        with pytest.raises(EvaluationError) as excinfo:
            tiny_sources["DB1"].execute("SELECT zzz FROM patient")
        message = str(excinfo.value)
        assert "DB1" in message and "SELECT" in message


class TestPartialStateIsolation:
    def test_failed_run_does_not_corrupt_sources(self, hospital_aig):
        """A failed evaluation leaves the base data intact for a retry."""
        sources = make_sources()
        load_tiny_hospital(sources)
        before = sources["DB1"].row_count("patient")
        sources["DB2"].execute_script("DROP TABLE cover")
        with pytest.raises(EvaluationError):
            Middleware(hospital_aig, sources,
                       Network.mbps(1.0)).evaluate({"date": "d1"})
        assert sources["DB1"].row_count("patient") == before
        # restore and retry successfully
        sources["DB2"].execute_script(
            "CREATE TABLE cover (policy TEXT, trId TEXT, "
            "PRIMARY KEY (policy, trId))")
        sources["DB2"].load_rows("cover", [("p1", "t1")])
        report = Middleware(hospital_aig, sources,
                            Network.mbps(1.0)).evaluate({"date": "d1"})
        assert report.document.tag == "report"

    def test_abort_leaves_sources_usable(self, hospital_aig):
        from repro.errors import EvaluationAborted
        sources = make_sources()
        load_tiny_hospital(sources)
        sources["DB3"].execute_script("DELETE FROM billing WHERE trId='t4'")
        with pytest.raises(EvaluationAborted):
            Middleware(hospital_aig, sources,
                       Network.mbps(1.0)).evaluate({"date": "d1"})
        # a different date that avoids the violation still works
        report = Middleware(hospital_aig, sources,
                            Network.mbps(1.0)).evaluate({"date": "d2"})
        assert report.document.tag == "report"


def _evaluate_with_faults(faults=None):
    """A faulted evaluation on a fresh tiny dataset, then the same
    middleware again with the injector uninstalled: ``(refusal or None,
    the next run's report, injector)``."""
    sources = make_sources()
    load_tiny_hospital(sources)
    middleware = Middleware(build_hospital_aig(), sources, Network.mbps(1.0))
    injector = FaultInjector.from_spec(faults or "").install(sources)
    refusal = None
    try:
        middleware.evaluate({"date": "d1"})
    except EvaluationError as error:
        refusal = error
    finally:
        injector.uninstall(sources)
    return refusal, middleware.evaluate({"date": "d1"}), injector


class TestTransientRecovery:
    """Satellite: a transient fault is refused at once, and the caller's
    retry is whole.

    Nothing inside a run retries a failed statement: the run that meets
    the fault ends in a :class:`SourceUnavailableError` naming the source,
    and the run the caller retries, once the fault has cleared, produces
    a byte-identical document and violation list to the fault-free run.
    """

    def test_retried_run_is_byte_identical(self):
        _, baseline, _ = _evaluate_with_faults()
        refusal, recovered, injector = _evaluate_with_faults(
            faults="DB1:error@1,DB2:error@2")
        assert isinstance(refusal, SourceUnavailableError)
        assert "'DB1'" in str(refusal)
        # the run ended at the first fault: DB2's clause never fired
        assert [(name, str(clause)) for name, clause in injector.fired] == [
            ("DB1", "DB1:error@1")]
        assert serialize(recovered.document) == serialize(baseline.document)
        assert recovered.violations == baseline.violations

    def test_retries_exhausted_still_fails_loudly(self):
        """A caller that retries a source which stays down gets the same
        refusal each time, one statement per run."""
        sources = make_sources()
        load_tiny_hospital(sources)
        middleware = Middleware(build_hospital_aig(), sources,
                                Network.mbps(1.0))
        injector = FaultInjector.from_spec("DB1:down@1").install(sources)
        try:
            for attempt in range(1, 4):
                with pytest.raises(SourceUnavailableError, match="'DB1'"):
                    middleware.evaluate({"date": "d1"})
                assert len(injector.fired) == attempt
        finally:
            injector.uninstall(sources)


class TestFailureCleanup:
    """Satellite: a mid-plan crash must not leak temp tables."""

    def test_shipped_tables_cleaned_after_midplan_failure(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        baseline = {name: source.table_names()
                    for name, source in sources.items()}
        middleware = Middleware(build_hospital_aig(), sources,
                                Network.mbps(1.0))
        injector = FaultInjector.from_spec("DB4:down@1").install(sources)
        try:
            with pytest.raises(EvaluationError):
                middleware.evaluate({"date": "d1"})
        finally:
            injector.uninstall(sources)
        for name, source in sources.items():
            assert source.table_names() == baseline[name], name

        # sources stay usable: the same plan succeeds once the fault clears
        report = middleware.evaluate({"date": "d1"})
        assert report.document.tag == "report"
        for name, source in sources.items():
            assert source.table_names() == baseline[name], name


class _BrokenRollbackConnection:
    """Proxy that fails the shipment's CREATE and then the ROLLBACK too."""

    def __init__(self, real):
        self._real = real

    @property
    def in_transaction(self):
        return self._real.in_transaction

    def execute(self, sql, *args):
        if sql.startswith("CREATE TABLE"):
            raise sqlite3.OperationalError("disk I/O error")
        if sql == "ROLLBACK":
            raise sqlite3.OperationalError("unable to rollback")
        return self._real.execute(sql, *args)

    def executemany(self, *args):
        return self._real.executemany(*args)


class TestRollbackFailureSurfaces:
    """Satellite bugfix: a failed post-shipment rollback is logged, not
    silently swallowed."""

    def test_create_temp_table_logs_failed_rollback(self, tiny_sources,
                                                    caplog,
                                                    repro_log_propagation):
        source = tiny_sources["DB2"]
        real = source.connection
        source.connection = _BrokenRollbackConnection(real)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.source"):
                with pytest.raises(EvaluationError) as excinfo:
                    source.create_temp_table(["a"], [("x",)], name="__t")
            assert "disk I/O error" in str(excinfo.value)
            assert "rollback after failed shipment" in caplog.text
            assert "DB2" in caplog.text
        finally:
            source.connection = real
            if real.in_transaction:
                real.execute("ROLLBACK")

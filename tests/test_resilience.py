"""Tests for the resilience layer (repro.resilience + runtime wiring).

Covers the fault-spec grammar, where a source decides that a failure is
its own (:class:`SourceUnavailableError`), per-query deadlines, and the
one end of a source failure: a typed refusal at once, never a retry and
never a partial document.
"""

import sqlite3
import time

import pytest

from repro.errors import EvaluationError, SourceUnavailableError, SpecError
from repro.obs import Tracer
from repro.relational import Network
from repro.resilience import (
    FaultClause,
    FaultInjector,
    InjectedFault,
    QueryDeadlineExceeded,
    parse_fault_spec,
)
from repro.runtime import Middleware


class TestFaultSpec:
    def test_parse_multiple_clauses(self):
        clauses = parse_fault_spec("DB2:error@3,DB1:slow@2:0.05,DB3:down@1")
        assert clauses == [FaultClause("DB2", "error", 3),
                           FaultClause("DB1", "slow", 2, 0.05),
                           FaultClause("DB3", "down", 1)]

    def test_clause_roundtrips_through_str(self):
        for text in ("DB2:error@3", "DB1:slow@2:0.05", "DB4:down@1"):
            (clause,) = parse_fault_spec(text)
            assert str(clause) == text

    def test_blank_clauses_are_skipped(self):
        assert len(parse_fault_spec("DB2:error@1, ,")) == 1

    @pytest.mark.parametrize("bad", [
        "DB2",                 # no kind
        "DB2:error",           # no index
        "DB2:error@x",         # non-numeric index
        "DB2:bogus@1",         # unknown kind
        "DB2:error@0",         # indices are 1-based
        "DB1:slow@2",          # slow needs a positive delay
        "DB1:slow@2:0",
    ])
    def test_malformed_specs_raise_spec_error(self, bad):
        with pytest.raises(SpecError):
            parse_fault_spec(bad)

    def test_the_lease_kind_went_with_the_pool(self):
        """``acquire`` named the connection-lease boundary; with one
        connection per source there is none, and the spelling is refused
        with the kinds that remain."""
        with pytest.raises(SpecError, match="error, slow, down"):
            FaultInjector.from_spec("DB3:acquire@1")

    def test_the_drop_kind_went_with_the_retries(self):
        """``drop`` raised exactly what ``error`` raises; with nothing to
        tell them apart it is refused with the kinds that remain."""
        with pytest.raises(SpecError, match="error, slow, down"):
            FaultInjector.from_spec("DB4:drop@1")


class TestFaultInjector:
    def test_error_fires_on_exact_statement_index(self, tiny_sources):
        injector = FaultInjector.from_spec("DB1:error@2").install(tiny_sources)
        try:
            tiny_sources["DB1"].execute("SELECT 1")          # index 1: fine
            with pytest.raises(EvaluationError) as excinfo:
                tiny_sources["DB1"].execute("SELECT 1")      # index 2: boom
            assert isinstance(excinfo.value.__cause__, InjectedFault)
            assert isinstance(excinfo.value, SourceUnavailableError)
            tiny_sources["DB1"].execute("SELECT 1")          # index 3: fine
            assert [str(c) for _, c in injector.fired] == ["DB1:error@2"]
        finally:
            injector.uninstall(tiny_sources)

    def test_down_fails_every_statement_from_index(self, tiny_sources):
        injector = FaultInjector.from_spec("DB2:down@1").install(tiny_sources)
        try:
            for _ in range(3):
                with pytest.raises(EvaluationError):
                    tiny_sources["DB2"].execute("SELECT 1")
        finally:
            injector.uninstall(tiny_sources)

    def test_reset_re_arms_the_schedule(self, tiny_sources):
        injector = FaultInjector.from_spec("DB1:error@1").install(tiny_sources)
        try:
            with pytest.raises(EvaluationError):
                tiny_sources["DB1"].execute("SELECT 1")
            tiny_sources["DB1"].execute("SELECT 1")
            injector.reset()
            with pytest.raises(EvaluationError):
                tiny_sources["DB1"].execute("SELECT 1")
        finally:
            injector.uninstall(tiny_sources)


class TestTransientClassification:
    """The source decides, at its statement boundary, what is its own
    fault: any ``sqlite3.OperationalError`` is a
    :class:`SourceUnavailableError` (503 over HTTP), anything else a plain
    :class:`EvaluationError`."""

    def test_operational_errors_are_transient(self, tiny_sources):
        with pytest.raises(SourceUnavailableError, match="'DB1'") as caught:
            tiny_sources["DB1"].execute('SELECT * FROM "no_such_table"')
        assert isinstance(caught.value.__cause__, sqlite3.OperationalError)

    def test_wrapped_operational_cause_is_transient(self, tiny_sources):
        """A shipment, the mediator's too, is refused like a query."""
        from repro.relational import Mediator
        mediator = Mediator()
        injector = FaultInjector.from_spec(
            "DB2:error@1,Mediator:error@1").install(
                {"DB2": tiny_sources["DB2"], "Mediator": mediator})
        try:
            for source in (tiny_sources["DB2"], mediator):
                with pytest.raises(SourceUnavailableError) as caught:
                    source.create_temp_table(["x"], [(1,)])
                assert isinstance(caught.value.__cause__, InjectedFault)
                assert not any(name.startswith("__ship_")
                               for name in source.table_names())
        finally:
            injector.uninstall({"DB2": tiny_sources["DB2"],
                                "Mediator": mediator})
            mediator.close()

    def test_logic_errors_are_not_transient(self, tiny_sources):
        with pytest.raises(EvaluationError) as caught:
            tiny_sources["DB1"].execute("SELECT ?", ())
        assert not isinstance(caught.value, SourceUnavailableError)
        assert isinstance(caught.value.__cause__, sqlite3.ProgrammingError)


class TestDeadline:
    def test_injected_slow_query_is_clipped_at_the_deadline(self, tiny_sources):
        injector = FaultInjector(
            [FaultClause("DB1", "slow", 1, 5.0)]).install(tiny_sources)
        try:
            started = time.perf_counter()
            with pytest.raises(EvaluationError) as excinfo:
                tiny_sources["DB1"].execute("SELECT 1", deadline=0.05)
            elapsed = time.perf_counter() - started
            assert isinstance(excinfo.value.__cause__, QueryDeadlineExceeded)
            assert elapsed < 2.0   # slept ~0.05s, nowhere near the 5s fault
        finally:
            injector.uninstall(tiny_sources)

    def test_progress_handler_interrupts_long_statements(self, tiny_sources):
        sql = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL "
               "SELECT x + 1 FROM c WHERE x < 10000000) "
               "SELECT count(*) FROM c")
        with pytest.raises(EvaluationError) as excinfo:
            tiny_sources["DB1"].execute(sql, deadline=0.02)
        assert isinstance(excinfo.value.__cause__, QueryDeadlineExceeded)
        assert isinstance(excinfo.value, SourceUnavailableError)

    def test_fast_statements_unaffected(self, tiny_sources):
        result = tiny_sources["DB1"].execute(
            "SELECT COUNT(*) FROM patient", deadline=5.0)
        assert result.rows[0][0] == 2

    def test_completed_statement_past_deadline_keeps_its_rows(
            self, tiny_sources, monkeypatch):
        """The deadline cuts in-flight work short; it must not discard the
        rows of a statement that already completed.  (A query that
        finishes slightly late would otherwise fail although the backend
        succeeded.)"""
        import repro.relational.source as source_module

        class LateClock:
            """Every perf_counter() look costs 0.06 'seconds'."""

            def __init__(self):
                self.now = 0.0

            def perf_counter(self):
                self.now += 0.06
                return self.now

            sleep = staticmethod(time.sleep)

        monkeypatch.setattr(source_module, "time", LateClock())
        # SELECT on 2 rows never reaches the 2000-opcode progress handler,
        # so the statement completes; with a 0.05s deadline the clock has
        # already overrun it by the time the statement returns.
        result = tiny_sources["DB1"].execute(
            "SELECT COUNT(*) FROM patient", deadline=0.05)
        assert result.rows[0][0] == 2


    @pytest.mark.parametrize("merging", [True, False])
    @pytest.mark.parametrize("incremental", [False, True])
    def test_a_deadline_abort_is_its_statements_first_attempt(
            self, hospital_aig, tiny_sources, merging, incremental):
        """One statement attempt, one ``deadline_aborts``, one refusal —
        the run never waits the deadline out a second time."""
        tracer = Tracer()
        middleware = Middleware(hospital_aig, tiny_sources,
                                Network.mbps(1.0), tracer=tracer,
                                deadline=0.05, merging=merging,
                                incremental=incremental)
        # a second attempt at DB1's first statement would fire slow@2
        injector = FaultInjector.from_spec(
            "DB1:slow@1:5,DB1:slow@2:5").install(tiny_sources)
        try:
            started = time.perf_counter()
            with pytest.raises(SourceUnavailableError, match="'DB1'"):
                middleware.evaluate({"date": "d1"})
            elapsed = time.perf_counter() - started
        finally:
            injector.uninstall(tiny_sources)
        assert [str(clause) for _, clause in injector.fired] == [
            "DB1:slow@1:5"]
        assert tracer.metrics.counter("deadline_aborts") == 1
        assert elapsed < 2.0


class TestDegradation:
    def test_abort_mode_still_raises(self, hospital_aig, tiny_sources):
        middleware = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0))
        written = []
        injector = FaultInjector.from_spec("DB3:down@1").install(tiny_sources)
        try:
            with pytest.raises(EvaluationError):
                middleware.evaluate({"date": "d1"})
            # the stream refuses before any byte reaches ``write``
            with pytest.raises(EvaluationError, match="'DB3'"):
                middleware.evaluate_stream({"date": "d1"}, written.append)
        finally:
            injector.uninstall(tiny_sources)
        assert written == []

    def test_invalid_failure_mode_rejected(self, hospital_aig, tiny_sources):
        # a failed source always ends in an error: there is no mode to pick
        with pytest.raises(TypeError, match="on_source_failure"):
            Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                       on_source_failure="abort")

    @pytest.mark.parametrize("knob", ["retry_policy", "breaker_policy"])
    def test_retry_and_breaker_knobs_are_gone(self, hospital_aig,
                                              tiny_sources, knob):
        # a failed statement is refused at once: there is nothing to tune
        with pytest.raises(TypeError, match=knob):
            Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                       **{knob: 2})

"""Tests for the resilience layer (repro.resilience + runtime wiring).

Covers the fault-spec grammar, the deterministic retry policy, the
per-source circuit breaker state machine, per-query deadlines, and the
one end of an unrecoverable source failure: a typed error, never a
partial document.
"""

import sqlite3
import time

import pytest

from repro.errors import EvaluationError, SourceUnavailableError, SpecError
from repro.relational import Network
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    BreakerPolicy,
    CircuitBreaker,
    FaultClause,
    FaultInjector,
    InjectedFault,
    QueryDeadlineExceeded,
    RetryPolicy,
    is_transient,
    parse_fault_spec,
)
from repro.runtime import Middleware
from repro.xmlmodel import serialize


class TestFaultSpec:
    def test_parse_multiple_clauses(self):
        clauses = parse_fault_spec("DB2:error@3,DB1:slow@2:0.05,DB3:down@1")
        assert clauses == [FaultClause("DB2", "error", 3),
                           FaultClause("DB1", "slow", 2, 0.05),
                           FaultClause("DB3", "down", 1)]

    def test_clause_roundtrips_through_str(self):
        for text in ("DB2:error@3", "DB1:slow@2:0.05", "DB4:drop@1"):
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
        with pytest.raises(SpecError, match="error, slow, drop, down"):
            FaultInjector.from_spec("DB3:acquire@1")


class TestFaultInjector:
    def test_error_fires_on_exact_statement_index(self, tiny_sources):
        injector = FaultInjector.from_spec("DB1:error@2").install(tiny_sources)
        try:
            tiny_sources["DB1"].execute("SELECT 1")          # index 1: fine
            with pytest.raises(EvaluationError) as excinfo:
                tiny_sources["DB1"].execute("SELECT 1")      # index 2: boom
            assert isinstance(excinfo.value.__cause__, InjectedFault)
            assert is_transient(excinfo.value)
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


class TestRetryPolicy:
    def test_attempts_counts_first_try_plus_retries(self):
        assert RetryPolicy(retries=0).attempts == 1
        assert RetryPolicy(retries=2).attempts == 3

    def test_delay_is_deterministic_per_seed_key_attempt(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay(1, "Q1") == policy.delay(1, "Q1")
        assert policy.delay(1, "Q1") != policy.delay(1, "Q2")
        assert policy.delay(1, "Q1") != RetryPolicy(seed=8).delay(1, "Q1")

    def test_delay_backs_off_exponentially_within_bounds(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.5)
        for attempt, backoff in ((1, 0.01), (2, 0.02), (3, 0.04), (4, 0.05)):
            delay = policy.delay(attempt, "n")
            assert backoff <= delay <= backoff * 1.5

    def test_zero_jitter_gives_exact_backoff(self):
        policy = RetryPolicy(base_delay=0.01, jitter=0.0)
        assert policy.delay(2, "n") == 0.02

    def test_negative_retries_rejected(self):
        with pytest.raises(EvaluationError):
            RetryPolicy(retries=-1)


class TestTransientClassification:
    def test_operational_errors_are_transient(self):
        assert is_transient(sqlite3.OperationalError("db is locked"))

    def test_wrapped_operational_cause_is_transient(self):
        error = EvaluationError("source 'DB1': SQL failed")
        error.__cause__ = sqlite3.OperationalError("disk I/O error")
        assert is_transient(error)

    def test_logic_errors_are_not_transient(self):
        assert not is_transient(EvaluationError("no such column"))
        assert not is_transient(ValueError("nope"))
        error = EvaluationError("wrapped")
        error.__cause__ = sqlite3.ProgrammingError("bad SQL")
        assert not is_transient(error)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, threshold=2, cooldown=10.0):
        clock = _FakeClock()
        transitions = []
        breaker = CircuitBreaker(
            "DB1", BreakerPolicy(threshold, cooldown), clock=clock,
            listener=lambda src, old, new: transitions.append((old, new)))
        return breaker, clock, transitions

    def test_opens_after_consecutive_failures(self):
        breaker, _, transitions = self.make(threshold=2)
        assert breaker.state == CLOSED and not breaker.blocked()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN and breaker.blocked()
        assert transitions == [(CLOSED, OPEN)]

    def test_success_resets_the_failure_streak(self):
        breaker, _, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_admits_a_single_probe(self):
        breaker, clock, _ = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.blocked()
        clock.now = 11.0
        assert not breaker.blocked()          # the probe lease
        assert breaker.state == HALF_OPEN
        assert breaker.blocked()              # everyone else waits

    def test_probe_success_closes(self):
        breaker, clock, transitions = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.now = 11.0
        assert not breaker.blocked()
        breaker.record_success()
        assert breaker.state == CLOSED and not breaker.blocked()
        assert transitions == [(CLOSED, OPEN), (OPEN, HALF_OPEN),
                               (HALF_OPEN, CLOSED)]

    def test_probe_failure_reopens(self):
        breaker, clock, _ = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.now = 11.0
        assert not breaker.blocked()
        breaker.record_failure()
        assert breaker.state == OPEN and breaker.blocked()
        clock.now = 22.0
        assert not breaker.blocked()          # cooldown restarts

    def test_would_block_is_a_non_leasing_peek(self):
        breaker, clock, _ = self.make(threshold=1, cooldown=10.0)
        assert not breaker.would_block()      # closed: admitted
        breaker.record_failure()
        assert breaker.would_block()          # open: refused
        clock.now = 11.0
        # peeking any number of times never claims the half-open probe...
        assert not breaker.would_block()
        assert not breaker.would_block()
        assert breaker.state == HALF_OPEN
        # ...so the executing call can still lease it, and once leased the
        # peek reports blocked until the probe reports back.
        assert not breaker.blocked()
        assert breaker.would_block()
        breaker.record_success()
        assert breaker.state == CLOSED and not breaker.would_block()

    def test_board_is_per_source(self):
        board = BreakerBoard(BreakerPolicy(1, 10.0), clock=_FakeClock())
        board.breaker_for("DB1").record_failure()
        assert board.breaker_for("DB1").state == OPEN
        assert board.breaker_for("DB2").state == CLOSED
        assert [source for source, state in board.states().items()
                if state != CLOSED] == ["DB1"]
        assert board.states() == {"DB1": OPEN, "DB2": CLOSED}


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
        assert is_transient(excinfo.value)

    def test_fast_statements_unaffected(self, tiny_sources):
        result = tiny_sources["DB1"].execute(
            "SELECT COUNT(*) FROM patient", deadline=5.0)
        assert result.rows[0][0] == 2

    def test_completed_statement_past_deadline_keeps_its_rows(
            self, tiny_sources, monkeypatch):
        """The deadline cuts in-flight work short; it must not discard the
        rows of a statement that already completed.  (A query that
        deterministically finishes slightly late would otherwise fail
        every retry despite the backend succeeding.)"""
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

    def test_retry_policy_int_convenience(self, hospital_aig, tiny_sources):
        middleware = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                                retry_policy=3)
        assert middleware.retry_policy.retries == 3
        with pytest.raises(EvaluationError):
            Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                       retry_policy="lots")


class TestBreakerIntegration:
    def test_open_breaker_fails_fast_across_evaluations(
            self, hospital_aig, tiny_sources):
        middleware = Middleware(
            hospital_aig, tiny_sources, Network.mbps(1.0),
            breaker_policy=BreakerPolicy(failure_threshold=1,
                                         cooldown=3600.0))
        injector = FaultInjector.from_spec("DB3:down@1").install(tiny_sources)
        try:
            with pytest.raises(EvaluationError, match="DB3"):
                middleware.evaluate({"date": "d1"})
            assert middleware.breakers.states()["DB3"] == OPEN
            sent = len(injector.fired)        # every DB3 statement fires
            # the second run is refused at dispatch, not retried against DB3
            with pytest.raises(SourceUnavailableError, match="DB3"):
                middleware.evaluate({"date": "d1"})
            assert len(injector.fired) == sent
        finally:
            injector.uninstall(tiny_sources)

    def test_half_open_probe_executes_and_recovers_the_source(
            self, hospital_aig, tiny_sources):
        """Executor-level half-open recovery: once the cooldown elapses the
        probe query must actually run (not be refused by a second leasing
        breaker check) and its success must close the breaker — a tripped
        source is usable again, not wedged half-open forever."""
        middleware = Middleware(
            hospital_aig, tiny_sources, Network.mbps(1.0),
            breaker_policy=BreakerPolicy(failure_threshold=1, cooldown=0.2))
        clean = Middleware(hospital_aig, tiny_sources,
                           Network.mbps(1.0)).evaluate({"date": "d1"})
        injector = FaultInjector.from_spec("DB3:down@1").install(tiny_sources)
        try:
            with pytest.raises(EvaluationError, match="DB3"):
                middleware.evaluate({"date": "d1"})
        finally:
            injector.uninstall(tiny_sources)
        assert middleware.breakers.states()["DB3"] == OPEN
        time.sleep(0.25)                      # past the cooldown
        recovered = middleware.evaluate({"date": "d1"})
        assert middleware.breakers.states()["DB3"] == CLOSED
        assert serialize(recovered.document) == serialize(clean.document)

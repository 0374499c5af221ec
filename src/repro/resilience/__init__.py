"""Resilience layer: fault injection, retries, circuit breakers, degradation.

The paper's middleware (Section 5) assumes cooperative sources — one query
processor per site that always answers.  This package supplies the
production half of the failure story:

* :mod:`repro.resilience.faults` — a deterministic, programmable
  fault-injection harness installed on :class:`~repro.relational.source.
  DataSource` (transient errors, slow queries, dropped connections,
  outages), addressed by per-source statement index so every run of a plan
  sees identical failures.
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (exponential
  backoff, seeded jitter, per-query attempt budget) and per-query
  deadlines enforced through SQLite's progress handler.
* :mod:`repro.resilience.breaker` — per-source circuit breakers
  (closed -> open -> half-open) consulted by the executor before
  it issues a node.
* :mod:`repro.resilience.report` — :class:`FailureReport`: the structured
  record of skipped subtrees and unchecked guards a degraded run emits.

See docs/RESILIENCE.md for the fault-spec grammar, retry/breaker
semantics, and the degradation rules (which subtrees may legally be
dropped under the DTD).
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.resilience.faults import (
    FaultClause,
    FaultInjector,
    InjectedFault,
    parse_fault_spec,
)
from repro.resilience.report import DegradedSubtree, FailureReport
from repro.resilience.retry import (
    QueryDeadlineExceeded,
    RetryPolicy,
    is_transient,
)

__all__ = [
    "FaultClause", "FaultInjector", "InjectedFault", "parse_fault_spec",
    "RetryPolicy", "QueryDeadlineExceeded", "is_transient",
    "BreakerPolicy", "CircuitBreaker", "BreakerBoard",
    "CLOSED", "OPEN", "HALF_OPEN",
    "FailureReport", "DegradedSubtree",
]

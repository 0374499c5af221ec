"""Resilience layer: fault injection and per-statement deadlines.

The paper's middleware (Section 5) assumes cooperative sources — one query
processor per site that always answers.  This package supplies the
production half of the failure story:

* :mod:`repro.resilience.faults` — a deterministic, programmable
  fault-injection harness installed on :class:`~repro.relational.source.
  DataSource` (transient errors, slow queries, outages), addressed by
  per-source statement index so every run of a plan sees identical
  failures.
* :mod:`repro.resilience.deadline` — per-statement deadlines enforced
  through SQLite's progress handler.

A statement that fails ends the run at once in a typed refusal
(:class:`~repro.errors.SourceUnavailableError` for a failure of the
source's engine, :class:`~repro.errors.EvaluationError` otherwise), never
in a partial document.  See docs/RESILIENCE.md for the fault-spec grammar
and the refusal table.
"""

from repro.resilience.deadline import QueryDeadlineExceeded
from repro.resilience.faults import (
    FaultClause,
    FaultInjector,
    InjectedFault,
    parse_fault_spec,
)

__all__ = [
    "FaultClause", "FaultInjector", "InjectedFault", "parse_fault_spec",
    "QueryDeadlineExceeded",
]

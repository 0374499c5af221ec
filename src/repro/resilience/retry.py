"""Retry policy (exponential backoff + seeded jitter) and query deadlines.

The executor wraps every node execution in
:func:`repro.runtime.executor.PlanExecutor` with a retry loop governed by a
:class:`RetryPolicy`.  Backoff delays are deterministic: the jitter for
attempt *k* of node *n* is drawn from an RNG seeded with ``(seed, n, k)``,
so a run with a fixed fault spec and policy replays byte-identically.

Deadlines are enforced inside :meth:`DataSource.execute
<repro.relational.source.DataSource.execute>` through SQLite's progress
handler — a long-running statement is interrupted from within the VM — and
injected ``slow`` faults (Python-side sleeps the handler never sees) are
clipped at the deadline before sleeping.  A statement that completes keeps
its result even if total elapsed time lands past the deadline.  A deadline
abort raises :class:`QueryDeadlineExceeded`, an ``OperationalError``
subclass, so it flows through the same transient-classification path as a
flaky backend.
"""

from __future__ import annotations

import random
import sqlite3
from dataclasses import dataclass

from repro.errors import EvaluationError

#: How many SQLite VM instructions run between progress-handler calls.
PROGRESS_HANDLER_OPCODES = 2000


class QueryDeadlineExceeded(sqlite3.OperationalError):
    """A statement exceeded its per-query deadline."""


@dataclass(frozen=True)
class RetryPolicy:
    """Per-query attempt budget with exponential backoff and seeded jitter.

    ``retries`` counts *re*-attempts: ``retries=2`` means up to three
    executions of a failing query.  The delay before re-attempt *k*
    (1-based) is ``min(max_delay, base_delay * 2**(k-1))`` scaled by a
    deterministic jitter factor in ``[1, 1 + jitter]``.
    """

    retries: int = 2
    base_delay: float = 0.01
    max_delay: float = 1.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.retries < 0:
            raise EvaluationError(
                f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise EvaluationError("retry delays and jitter must be >= 0")

    @property
    def attempts(self) -> int:
        """Total executions allowed per query (first try + retries)."""
        return self.retries + 1

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before re-attempt ``attempt`` (1-based) of node ``key``.

        Deterministic in ``(seed, key, attempt)`` — thread scheduling never
        changes the delays a run sleeps.
        """
        backoff = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        if self.jitter <= 0:
            return backoff
        rng = random.Random(f"{self.seed}\x1f{key}\x1f{attempt}")
        return backoff * (1.0 + self.jitter * rng.random())


def is_transient(error: BaseException) -> bool:
    """Is this failure worth retrying?

    Transient means the *backend* misbehaved: an
    :class:`sqlite3.OperationalError` (which covers injected faults,
    deadline interrupts, locked/busy databases, and dropped connections),
    either raised directly or carried as the ``__cause__`` of the
    :class:`~repro.errors.EvaluationError` the source layer wraps it in.
    Logic errors — bad SQL, missing inputs, plan bugs, constraint
    violations — are not transient and fail immediately.
    """
    seen = set()
    current: BaseException | None = error
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if isinstance(current, sqlite3.OperationalError):
            return True
        if isinstance(current, EvaluationError):
            current = current.__cause__
        else:
            return False
    return False


def make_deadline_handler(clock, started: float, deadline: float):
    """A progress-handler callable that aborts once ``deadline`` elapses.

    Returning a truthy value from a progress handler makes SQLite abort the
    running statement with ``OperationalError: interrupted``.
    """
    def handler() -> int:
        return 1 if clock() - started > deadline else 0
    return handler

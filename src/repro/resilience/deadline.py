"""Per-statement deadlines.

Deadlines are enforced inside :meth:`DataSource.execute
<repro.relational.source.DataSource.execute>` through SQLite's progress
handler — a long-running statement is interrupted from within the VM — and
injected ``slow`` faults (Python-side sleeps the handler never sees) are
clipped at the deadline before sleeping.  A statement that completes keeps
its result even if total elapsed time lands past the deadline.  A deadline
abort raises :class:`QueryDeadlineExceeded`, an ``OperationalError``
subclass, so the source refuses it like any other failure of its engine
(:class:`~repro.errors.SourceUnavailableError`).
"""

from __future__ import annotations

import sqlite3

#: How many SQLite VM instructions run between progress-handler calls.
PROGRESS_HANDLER_OPCODES = 2000


class QueryDeadlineExceeded(sqlite3.OperationalError):
    """A statement exceeded its per-query deadline."""


def make_deadline_handler(clock, started: float, deadline: float):
    """A progress-handler callable that aborts once ``deadline`` elapses.

    Returning a truthy value from a progress handler makes SQLite abort the
    running statement with ``OperationalError: interrupted``.
    """
    def handler() -> int:
        return 1 if clock() - started > deadline else 0
    return handler

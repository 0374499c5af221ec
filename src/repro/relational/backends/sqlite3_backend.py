"""The default backend: one ``sqlite3`` database per source.

This is the original ``DataSource`` engine extracted behind the backend
protocol, byte-for-byte: a named shared-cache in-memory database (other
connections in the process — statistics reads, the Federation — open
or ATTACH it by URI and see the same data), autocommit connections with
``synchronous=OFF``, a warm compiled-statement cache, and deadline
interruption through SQLite's progress handler.
"""

from __future__ import annotations

import itertools
import sqlite3

from repro.relational.backends.base import Backend, BackendCapabilities

#: Compiled-statement cache size per connection.  The execution engine
#: re-issues structurally identical statements (shipping inserts, cached
#: plan queries across evaluations), so a larger cache means SQLite
#: re-uses prepared statements instead of re-parsing.
STATEMENT_CACHE_SIZE = 256

_shared_memory_counter = itertools.count(1)


class Sqlite3Backend(Backend):
    """Fully capable default backend (see module docstring)."""

    spec = "sqlite"
    capabilities = BackendCapabilities(
        backend="sqlite",
        supports_temp_tables=True,
        supports_writes=True,
        blob_affinity=True)
    error_types = (sqlite3.Error,)

    def __init__(self, schema, path: str | None = None):
        super().__init__(schema)
        if path is None:
            self.uri = (f"file:repro_{schema.source}_"
                        f"{next(_shared_memory_counter)}"
                        f"?mode=memory&cache=shared")
        else:
            self.uri = f"file:{path}"

    # -- connections ----------------------------------------------------
    def connect(self) -> sqlite3.Connection:
        # Autocommit (isolation_level=None): shared-cache readers must not
        # hold transactions open, or cross-connection access deadlocks.
        # check_same_thread=False because the service evaluates on
        # whichever request thread holds the run lock; exclusivity is
        # enforced by that lock, not by SQLite.
        connection = sqlite3.connect(
            self.uri, uri=True, isolation_level=None,
            check_same_thread=False,
            cached_statements=STATEMENT_CACHE_SIZE)
        connection.execute("PRAGMA synchronous=OFF")
        return connection

    def attach_uri(self) -> str | None:
        return self.uri

    # -- statements -----------------------------------------------------
    def execute_script(self, connection, sql: str) -> None:
        connection.executescript(sql)
        connection.commit()

    # -- transactions ---------------------------------------------------
    def rollback_open(self, connection) -> bool:
        try:
            if connection.in_transaction:
                connection.execute("ROLLBACK")
        except sqlite3.Error:
            return False
        return True

    # -- deadlines ------------------------------------------------------
    def install_deadline(self, connection, start: float,
                         deadline: float) -> bool:
        import time

        from repro.resilience.retry import (PROGRESS_HANDLER_OPCODES,
                                            make_deadline_handler)
        connection.set_progress_handler(
            make_deadline_handler(time.perf_counter, start, deadline),
            PROGRESS_HANDLER_OPCODES)
        return True

    def clear_deadline(self, connection) -> None:
        connection.set_progress_handler(None, 0)

    def is_deadline_interrupt(self, error) -> bool:
        return (isinstance(error, sqlite3.OperationalError)
                and "interrupt" in str(error))

    # -- schema / loading ----------------------------------------------
    def create_base_tables(self, connection) -> None:
        super().create_base_tables(connection)
        connection.commit()

    def table_names(self, connection) -> list[str]:
        cursor = connection.execute(
            "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name")
        return [row[0] for row in cursor.fetchall()]

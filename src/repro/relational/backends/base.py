"""The source-backend protocol (docs/BACKENDS.md).

A :class:`Backend` owns everything engine-specific about one
:class:`~repro.relational.source.DataSource`: opening connections,
running statements, draining cursors into *tuple* rows, transaction
control, deadline interruption, and bulk loading.  The ``DataSource``
keeps the orchestration that is engine-agnostic —
per-relation version counters, fault injection, timing metrics — and
delegates the rest here.

Capability flags (:class:`BackendCapabilities`) tell the planner and the
executor what a backend can do.  The two consequential ones:

* ``supports_temp_tables=False`` — the execution engine rewrites every
  ship of an intermediate result into an inline literal row set (the
  IN-list rewrite, see ``repro.runtime.engine``) instead of calling
  :meth:`~repro.relational.source.DataSource.create_temp_table`.
* ``supports_writes=False`` — ``execute`` rejects non-read statements;
  data reaches the source only through :meth:`Backend.load_rows`
  (the datagen materialization path).

``blob_affinity=False`` additionally makes the sharding layer fall back
to single-process evaluation, because its shard-chunk relations rely on
SQLite's no-affinity BLOB columns to round-trip driving rows exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend implementation can do."""

    backend: str
    supports_temp_tables: bool = True
    supports_writes: bool = True
    blob_affinity: bool = True


class Backend:
    """Engine adapter behind one :class:`DataSource` (DB-API defaults).

    Subclasses override the engine-specific pieces; the defaults cover a
    well-behaved DB-API driver.  ``error_types`` is the tuple of driver
    exception classes the source wraps into
    :class:`~repro.errors.EvaluationError`.
    """

    #: Registry spec this backend was created from (``"sqlite"``, ...).
    spec = "backend"
    capabilities = BackendCapabilities(backend="backend")
    error_types: tuple = (Exception,)

    def __init__(self, schema):
        self.schema = schema

    # -- connections ----------------------------------------------------
    def connect(self):
        raise NotImplementedError

    def close_connection(self, connection) -> None:
        connection.close()

    def close(self) -> None:
        """Backend-level cleanup after every connection is closed."""

    def attach_uri(self) -> str | None:
        """SQLite URI a Federation can ATTACH (None: materialize instead)."""
        return None

    # -- statements -----------------------------------------------------
    def execute(self, connection, sql: str, params: tuple = ()):
        return connection.execute(sql, params)

    def executemany(self, connection, sql: str, rows) -> None:
        connection.executemany(sql, rows)

    def execute_script(self, connection, sql: str) -> None:
        raise EvaluationError(
            f"backend {self.capabilities.backend!r} does not support "
            f"multi-statement scripts")

    def describe(self, cursor) -> list[str]:
        if cursor.description is None:
            return []
        return [description[0] for description in cursor.description]

    def fetch_rows(self, cursor) -> list[tuple]:
        """Drain a cursor into plain tuples (the engine concatenates and
        slices rows: ``row + (id,)``)."""
        return cursor.fetchall()

    # -- transactions ---------------------------------------------------
    def begin(self, connection) -> None:
        connection.execute("BEGIN")

    def commit(self, connection) -> None:
        connection.execute("COMMIT")

    def rollback_open(self, connection) -> bool:
        """Roll back an open transaction; True if the connection is clean.

        Called after a failed temp-table load.  A False return means even
        the rollback failed: the connection is left mid-transaction.
        """
        try:
            connection.execute("ROLLBACK")
        except self.error_types:
            pass
        return True

    # -- deadlines ------------------------------------------------------
    def install_deadline(self, connection, start: float,
                         deadline: float) -> bool:
        """Arrange for in-flight work to be interrupted; False if unsupported."""
        return False

    def clear_deadline(self, connection) -> None:
        pass

    def is_deadline_interrupt(self, error) -> bool:
        """Whether a driver error is the deadline interrupt firing."""
        return False

    # -- schema / loading ----------------------------------------------
    def create_base_tables(self, connection) -> None:
        for relation_schema in self.schema.relations:
            connection.execute(relation_schema.create_table_sql())

    def load_rows(self, connection, relation_schema, rows) -> None:
        """Bulk-insert rows into a base relation in one transaction: a
        refused row (a duplicate key) rolls the whole batch back.

        Read-only backends (``supports_writes=False``) load through here
        too — it is how scenario data is materialized into them — just
        not through the SQL interface.
        """
        placeholders = ", ".join("?" * len(relation_schema.columns))
        self.begin(connection)
        try:
            self.executemany(
                connection,
                f'INSERT INTO "{relation_schema.name}" VALUES '
                f'({placeholders})', rows)
            self.commit(connection)
        except BaseException:
            self.rollback_open(connection)
            raise

    def table_names(self, connection) -> list[str]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.schema.source!r})"

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


class BackendUnavailable(EvaluationError):
    """The backend's driver (duckdb, pyarrow, ...) is not installed."""


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend implementation can do.

    ``attachable`` means the backend exposes a SQLite URI that a
    :class:`~repro.relational.source.Federation` can ``ATTACH`` directly;
    non-attachable backends are *materialized* into the federation
    connection instead (a typed copy of every base relation).
    """

    backend: str
    supports_temp_tables: bool = True
    supports_writes: bool = True
    supports_deadlines: bool = True
    blob_affinity: bool = True
    attachable: bool = True


def sqlite_affinity(sqltype: str, value):
    """Apply SQLite's column-affinity conversion rules in Python.

    Strictly-typed engines (DuckDB, Arrow) have no affinity, so their
    backends coerce values *before* insertion to reproduce what SQLite
    would have stored: TEXT affinity renders numbers as text, INTEGER
    affinity parses lossless numeric text, REAL affinity parses floats.
    Values that do not convert are stored unchanged — exactly SQLite's
    behavior for, say, ``'abc'`` in an INTEGER column.
    """
    if value is None or isinstance(value, (bytes, bytearray)):
        return value
    if sqltype == "TEXT":
        if isinstance(value, bool):
            return str(int(value))
        if isinstance(value, (int, float)):
            return repr(value) if isinstance(value, float) else str(value)
        return value
    if sqltype == "INTEGER":
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, float):
            return int(value) if value == int(value) else value
        if isinstance(value, str):
            try:
                as_float = float(value)
            except ValueError:
                return value
            if as_float == int(as_float):
                return int(as_float)
            return as_float
        return value
    if sqltype == "REAL":
        if isinstance(value, bool):
            return float(int(value))
        if isinstance(value, int):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                return value
        return value
    return value  # BLOB: no affinity, value round-trips unchanged


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
        """Drain a cursor into plain tuples.

        The engine concatenates and slices rows (``row + (id,)``,
        ``row[1:n] + (row[-1],)``), which silently breaks on drivers that
        return lists or driver-specific row objects — so the base
        implementation normalizes every row to a tuple.  Backends whose
        driver already returns tuples override this with a bare
        ``fetchall`` (see the sqlite3 backend).
        """
        return [row if type(row) is tuple else tuple(row)
                for row in cursor.fetchall()]

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

    def temp_columns_ddl(self, columns, rows) -> tuple[str, object]:
        """Column DDL for a shipped temp table (may sniff ``rows``).

        Engines with optional typing take bare column names; strictly
        typed engines materialize the row iterable, infer a type per
        column, and return the (possibly materialized) rows alongside.
        """
        return ", ".join(f'"{c}"' for c in columns), rows

    # -- schema / loading ----------------------------------------------
    def create_table_sql(self, relation_schema) -> str:
        return relation_schema.create_table_sql()

    def create_base_tables(self, connection) -> None:
        for relation_schema in self.schema.relations:
            connection.execute(self.create_table_sql(relation_schema))

    def load_rows(self, connection, relation_schema, rows) -> None:
        """Bulk-insert rows into a base relation (the datagen path).

        Read-only backends (``supports_writes=False``) still implement
        this — it is how scenario data is materialized into them — just
        not through the SQL interface.
        """
        placeholders = ", ".join("?" * len(relation_schema.columns))
        self.executemany(
            connection,
            f'INSERT INTO "{relation_schema.name}" VALUES ({placeholders})',
            rows)

    def table_names(self, connection) -> list[str]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.schema.source!r})"

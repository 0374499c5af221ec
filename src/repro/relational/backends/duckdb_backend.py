"""DuckDB backend: one in-memory DuckDB database per source.

"Connections" are cursors of one root connection
(``duckdb.connect(":memory:")``), which share the database the way
shared-cache URIs do for SQLite.  Differences from the default backend
that the adapter papers over:

* **Typing** — DuckDB is strictly typed; declared column types map to
  ``VARCHAR``/``BIGINT``/``DOUBLE`` and :func:`sqlite_affinity` coerces
  values *before* insertion so the stored values match what SQLite's
  affinity would have kept.  A value affinity leaves unconverted (text
  in an INTEGER column) has no DuckDB representation and is rejected.
* **Determinism** — ``threads=1`` and ``default_null_order='nulls_first'``
  pin scan order and NULL placement to SQLite's, so ``ROW_NUMBER() OVER
  ()`` and ordered queries agree across backends.
* **Deadlines** — there is no progress-handler equivalent, so
  ``supports_deadlines=False``: in-flight statements cannot be
  interrupted (injected slow faults are still clipped Python-side).
* **Sharding** — ``blob_affinity=False``: the shard layer's BLOB
  round-trip trick is SQLite-specific, so sharded runs fall back to
  single-process evaluation.

The import is deferred to construction: without the optional ``duckdb``
package the registry reports the backend unavailable and tests skip.
"""

from __future__ import annotations

from repro.errors import EvaluationError
from repro.relational.backends.base import (
    Backend,
    BackendCapabilities,
    BackendUnavailable,
    sqlite_affinity,
)

_DDL_TYPES = {"TEXT": "VARCHAR", "INTEGER": "BIGINT", "REAL": "DOUBLE"}


def _duckdb():
    try:
        import duckdb
    except ImportError as error:
        raise BackendUnavailable(
            "the duckdb backend requires the duckdb package, which is "
            "not installed") from error
    return duckdb


class DuckDBBackend(Backend):
    """Temp-table-capable, strictly typed backend (see module docstring)."""

    spec = "duckdb"
    capabilities = BackendCapabilities(
        backend="duckdb",
        supports_temp_tables=True,
        supports_writes=True,
        supports_deadlines=False,
        blob_affinity=False,
        attachable=False)

    def __init__(self, schema):
        duckdb = _duckdb()
        super().__init__(schema)
        self.error_types = (duckdb.Error,)
        self._root = duckdb.connect(":memory:")
        self._root.execute("SET threads=1")
        self._root.execute("SET default_null_order='nulls_first'")

    # -- connections ----------------------------------------------------
    def connect(self):
        return self._root.cursor()

    def close(self) -> None:
        self._root.close()

    # -- statements -----------------------------------------------------
    def execute(self, connection, sql: str, params: tuple = ()):
        return connection.execute(sql, params)

    def executemany(self, connection, sql: str, rows) -> None:
        rows = rows if isinstance(rows, list) else list(rows)
        if rows:
            connection.executemany(sql, rows)

    def fetch_rows(self, cursor) -> list[tuple]:
        return [row if type(row) is tuple else tuple(row)
                for row in cursor.fetchall()]

    # -- transactions ---------------------------------------------------
    def begin(self, connection) -> None:
        connection.execute("BEGIN TRANSACTION")

    def temp_columns_ddl(self, columns, rows):
        """Typed DDL for shipped temp tables (DuckDB requires types).

        Ships carry live result rows, so per-column types are inferred
        from the materialized values: all-int columns become BIGINT,
        numeric ones DOUBLE, everything else VARCHAR (matching what the
        affinity-coerced base tables hold for the same data).
        """
        rows = rows if isinstance(rows, list) else list(rows)
        kinds = ["empty"] * len(columns)
        for row in rows:
            for index, value in enumerate(row):
                if value is None:
                    continue
                if isinstance(value, bool) or not \
                        isinstance(value, (int, float)):
                    kinds[index] = "text"
                elif isinstance(value, float):
                    if kinds[index] in ("empty", "int", "float"):
                        kinds[index] = "float"
                elif kinds[index] == "empty":
                    kinds[index] = "int"
        ddl_types = {"empty": "VARCHAR", "text": "VARCHAR",
                     "int": "BIGINT", "float": "DOUBLE"}
        ddl = ", ".join(f'"{column}" {ddl_types[kind]}'
                        for column, kind in zip(columns, kinds))
        return ddl, rows

    # -- schema / loading ----------------------------------------------
    def create_table_sql(self, relation_schema) -> str:
        parts = []
        for column in relation_schema.columns:
            ddl_type = _DDL_TYPES.get(column.sqltype)
            if ddl_type is None:
                raise EvaluationError(
                    f"duckdb backend: relation {relation_schema.name!r} "
                    f"column {column.name!r} has type {column.sqltype!r}, "
                    f"which has no faithful DuckDB mapping")
            parts.append(f'"{column.name}" {ddl_type}')
        if relation_schema.key:
            quoted_key = ", ".join(f'"{k}"' for k in relation_schema.key)
            parts.append(f"PRIMARY KEY ({quoted_key})")
        return (f'CREATE TABLE "{relation_schema.name}" '
                f'({", ".join(parts)})')

    def load_rows(self, connection, relation_schema, rows) -> None:
        coerced = []
        for row in rows:
            out = []
            for column, value in zip(relation_schema.columns, row):
                converted = sqlite_affinity(column.sqltype, value)
                if column.sqltype == "INTEGER" and \
                        isinstance(converted, str):
                    raise EvaluationError(
                        f"duckdb backend: column {column.name!r} is "
                        f"INTEGER but value {value!r} is non-numeric "
                        f"text (SQLite affinity would keep it; DuckDB "
                        f"has no mixed-type columns)")
                if column.sqltype == "REAL" and isinstance(converted, str):
                    raise EvaluationError(
                        f"duckdb backend: column {column.name!r} is REAL "
                        f"but value {value!r} is non-numeric text")
                out.append(converted)
            coerced.append(tuple(out))
        super().load_rows(connection, relation_schema, coerced)

    def table_names(self, connection) -> list[str]:
        cursor = connection.execute(
            "SELECT table_name FROM information_schema.tables "
            "WHERE table_schema = 'main' ORDER BY table_name")
        return [row[0] for row in cursor.fetchall()]

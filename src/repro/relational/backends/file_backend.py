"""Read-only file backend: CSV or Parquet tables behind a scan engine.

Each base relation is stored as one file (``<relation>.csv`` or
``<relation>.parquet``) under the backend's data directory; queries run
against an embedded SQLite *scan engine* whose typed tables are loaded
from those files, so the declared column affinities apply to decoded
file values exactly as they apply to Python values in the default
backend — the property the cross-backend differential oracle asserts
byte-for-byte.

The SQL interface is read-only (``supports_writes=False``): data reaches
the source only through :meth:`FileBackend.load_rows`, which appends to
the file and reloads the table from it, keeping the file the source of
truth.  The backend declares ``supports_temp_tables=False`` — a file
directory cannot receive shipped intermediate tables — which makes the
execution engine rewrite every ship into an inline literal row set
(docs/BACKENDS.md, "IN-list rewrite").  It is also not ATTACH-able, so
the conceptual evaluator's Federation materializes it instead; both
degraded paths are exercised by the always-available test environment.

CSV encoding: ``\\N`` is NULL, a leading backslash in a text value is
doubled, integers render with ``str`` and floats with ``repr``.  Decoded
fields are inserted as text and the scan engine's column affinity
restores numerics — the same conversion SQLite applies to typed Python
values, so both storage paths agree.  Parquet files (requires
``pyarrow``) store typed values directly; column types map to
``string``/``int64``/``float64`` after affinity coercion.
"""

from __future__ import annotations

import csv
import os
import shutil
import tempfile

from repro.errors import SpecError
from repro.relational.backends.base import (
    BackendCapabilities,
    BackendUnavailable,
    sqlite_affinity,
)
from repro.relational.backends.sqlite3_backend import Sqlite3Backend

#: CSV field encoding of SQL NULL.
NULL_SENTINEL = "\\N"


def _encode_field(value) -> str:
    if value is None:
        return NULL_SENTINEL
    if isinstance(value, (bytes, bytearray)):
        raise SpecError("the file backend cannot store BLOB values")
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if text.startswith("\\"):
        return "\\" + text
    return text


def _decode_field(field: str):
    if field == NULL_SENTINEL:
        return None
    if field.startswith("\\\\"):
        return field[1:]
    return field


def _pyarrow():
    try:
        import pyarrow
        import pyarrow.parquet
    except ImportError as error:
        raise BackendUnavailable(
            "the parquet file backend requires pyarrow, which is not "
            "installed") from error
    return pyarrow


class FileBackend(Sqlite3Backend):
    """Read-only CSV/Parquet source (see module docstring).

    Subclasses the sqlite3 backend because the scan engine *is* an
    embedded SQLite session — connections, deadline interruption and
    cursor semantics are inherited; storage, capabilities, and the
    write paths are replaced.
    """

    spec = "file"
    capabilities = BackendCapabilities(
        backend="file",
        supports_temp_tables=False,
        supports_writes=False,
        supports_deadlines=True,
        blob_affinity=False,
        attachable=False)

    def __init__(self, schema, root: str | None = None,
                 file_format: str = "csv"):
        if file_format not in ("csv", "parquet"):
            raise SpecError(f"unknown file backend format {file_format!r} "
                            f"(use 'csv' or 'parquet')")
        if file_format == "parquet":
            _pyarrow()  # fail fast when the optional dep is missing
        for relation_schema in schema.relations:
            for column in relation_schema.columns:
                if column.sqltype == "BLOB":
                    raise SpecError(
                        f"file backend: relation {relation_schema.name!r} "
                        f"column {column.name!r} is BLOB, which files "
                        f"cannot round-trip")
        super().__init__(schema)
        self.file_format = file_format
        self._owns_root = root is None
        self.root = root or tempfile.mkdtemp(
            prefix=f"repro_file_{schema.source}_")
        os.makedirs(self.root, exist_ok=True)

    # -- Federation must materialize, not ATTACH ------------------------
    def attach_uri(self) -> str | None:
        return None

    # -- storage --------------------------------------------------------
    def table_path(self, relation_name: str) -> str:
        return os.path.join(self.root,
                            f"{relation_name}.{self.file_format}")

    def create_base_tables(self, connection) -> None:
        super().create_base_tables(connection)
        for relation_schema in self.schema.relations:
            if os.path.exists(self.table_path(relation_schema.name)):
                self._reload_table(connection, relation_schema)

    def load_rows(self, connection, relation_schema, rows) -> None:
        rows = [tuple(row) for row in rows]
        if self.file_format == "csv":
            self._append_csv(relation_schema, rows)
        else:
            self._append_parquet(relation_schema, rows)
        self._reload_table(connection, relation_schema)

    def _append_csv(self, relation_schema, rows) -> None:
        path = self.table_path(relation_schema.name)
        write_header = not os.path.exists(path)
        with open(path, "a", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            if write_header:
                writer.writerow(relation_schema.column_names)
            for row in rows:
                writer.writerow([_encode_field(value) for value in row])

    def _append_parquet(self, relation_schema, rows) -> None:
        pyarrow = _pyarrow()
        path = self.table_path(relation_schema.name)
        coerced = [
            [sqlite_affinity(column.sqltype, row[index])
             for row in rows]
            for index, column in enumerate(relation_schema.columns)]
        types = {"TEXT": pyarrow.string(), "INTEGER": pyarrow.int64(),
                 "REAL": pyarrow.float64()}
        arrays = []
        for values, column in zip(coerced, relation_schema.columns):
            try:
                arrays.append(pyarrow.array(
                    values, type=types[column.sqltype]))
            except (pyarrow.lib.ArrowInvalid,
                    pyarrow.lib.ArrowTypeError) as error:
                raise SpecError(
                    f"parquet file backend: column {column.name!r} "
                    f"({column.sqltype}) cannot store {error}") from None
        table = pyarrow.Table.from_arrays(
            arrays, names=list(relation_schema.column_names))
        if os.path.exists(path):
            existing = pyarrow.parquet.read_table(path)
            table = pyarrow.concat_tables([existing, table])
        pyarrow.parquet.write_table(table, path)

    def _read_rows(self, relation_schema) -> list[tuple]:
        path = self.table_path(relation_schema.name)
        if not os.path.exists(path):
            return []
        if self.file_format == "csv":
            with open(path, newline="", encoding="utf-8") as handle:
                reader = csv.reader(handle)
                header = next(reader, None)
                if header is not None and \
                        header != list(relation_schema.column_names):
                    raise SpecError(
                        f"file backend: {path} header {header!r} does not "
                        f"match relation {relation_schema.name!r}")
                return [tuple(_decode_field(field) for field in row)
                        for row in reader]
        pyarrow = _pyarrow()
        table = pyarrow.parquet.read_table(path)
        return [tuple(row) for row in zip(
            *(column.to_pylist() for column in table.columns))]

    def _reload_table(self, connection, relation_schema) -> None:
        rows = self._read_rows(relation_schema)
        connection.execute("BEGIN")
        try:
            connection.execute(f'DELETE FROM "{relation_schema.name}"')
            if rows:
                placeholders = ", ".join(
                    "?" * len(relation_schema.columns))
                connection.executemany(
                    f'INSERT INTO "{relation_schema.name}" '
                    f'VALUES ({placeholders})', rows)
            connection.execute("COMMIT")
        except BaseException:
            self.rollback_open(connection)
            raise

    def close(self) -> None:
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)

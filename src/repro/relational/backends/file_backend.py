"""Read-only file backend: CSV tables behind a scan engine.

Each base relation is stored as one ``<relation>.csv`` file under the
backend's data directory; queries run against an embedded SQLite *scan
engine* whose typed tables are loaded from those files, so the declared
column affinities apply to decoded file values exactly as they apply to
Python values in the default backend — the property the cross-backend
differential oracle asserts byte-for-byte.

The SQL interface is read-only (``supports_writes=False``): data reaches
the source only through :meth:`FileBackend.load_rows`, which inserts the
rows into the scan engine in one transaction and appends them to the
file only once that commits, keeping the file the source of truth.  The
backend declares ``supports_temp_tables=False`` — a file directory
cannot receive shipped intermediate tables — which makes the execution
engine rewrite every ship into an inline literal row set
(docs/BACKENDS.md, "IN-list rewrite").  It is also not ATTACH-able, so
the conceptual evaluator's Federation materializes it instead; both
degraded paths are exercised by the always-available test environment.

CSV encoding: ``\\N`` is NULL, a leading backslash in a text value is
doubled, integers render with ``str`` and floats with ``repr`` (±inf as
``9e999`` / ``-9e999``, or ``Inf`` / ``-Inf`` in a TEXT column).  Decoded
fields are inserted as text and the scan engine's column affinity
restores numerics — the same conversion SQLite applies to typed Python
values, so both storage paths agree.
"""

from __future__ import annotations

import csv
import io
import math
import os
import shutil
import tempfile

from repro.errors import SpecError
from repro.relational.backends.base import BackendCapabilities
from repro.relational.backends.sqlite3_backend import Sqlite3Backend

#: CSV field encoding of SQL NULL.
NULL_SENTINEL = "\\N"


def _encode_field(value, text_column: bool = False) -> str:
    if value is None:
        return NULL_SENTINEL
    if isinstance(value, (bytes, bytearray)):
        raise SpecError("the file backend cannot store BLOB values")
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        if math.isinf(value):
            # What SQLite stores for a REAL ±inf: the text it converts
            # the REAL to in a TEXT column, else a literal that overflows
            # back to the REAL ('inf' would stay text and sort wrongly).
            if text_column:
                return "Inf" if value > 0 else "-Inf"
            return "9e999" if value > 0 else "-9e999"
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


def _decode_rows(reader) -> list[tuple]:
    return [tuple(map(_decode_field, row)) for row in reader]


class FileBackend(Sqlite3Backend):
    """Read-only CSV source (see module docstring).

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
        blob_affinity=False)

    def __init__(self, schema, root: str | None = None):
        for relation_schema in schema.relations:
            for column in relation_schema.columns:
                if column.sqltype == "BLOB":
                    raise SpecError(
                        f"file backend: relation {relation_schema.name!r} "
                        f"column {column.name!r} is BLOB, which files "
                        f"cannot round-trip")
        super().__init__(schema)
        self._owns_root = not root
        self.root = root or tempfile.mkdtemp(
            prefix=f"repro_file_{schema.source}_")
        os.makedirs(self.root, exist_ok=True)

    # -- Federation must materialize, not ATTACH ------------------------
    def attach_uri(self) -> str | None:
        return None

    # -- storage --------------------------------------------------------
    def table_path(self, relation_name: str) -> str:
        return os.path.join(self.root, f"{relation_name}.csv")

    def create_base_tables(self, connection) -> None:
        super().create_base_tables(connection)
        for relation_schema in self.schema.relations:
            path = self.table_path(relation_schema.name)
            if os.path.exists(path):
                with open(path, newline="", encoding="utf-8") as handle:
                    reader = csv.reader(handle)
                    header = next(reader, None)
                    if header is not None and \
                            header != list(relation_schema.column_names):
                        raise SpecError(
                            f"file backend: {path} header {header!r} does "
                            f"not match relation {relation_schema.name!r}")
                    super().load_rows(connection, relation_schema,
                                      _decode_rows(reader))

    def load_rows(self, connection, relation_schema, rows) -> None:
        """Insert into the scan engine first (one transaction, as every
        backend loads), append to the file after the commit: a refused
        load (a duplicate key) leaves both as they were."""
        text_columns = [column.sqltype == "TEXT"
                        for column in relation_schema.columns]
        text = io.StringIO(newline="")
        csv.writer(text).writerows(
            [_encode_field(value, text_column)
             for value, text_column in zip(row, text_columns)]
            for row in rows)
        text.seek(0)
        super().load_rows(connection, relation_schema,
                          _decode_rows(csv.reader(text)))
        path = self.table_path(relation_schema.name)
        write_header = not os.path.exists(path)
        with open(path, "a", newline="", encoding="utf-8") as handle:
            if write_header:
                csv.writer(handle).writerow(relation_schema.column_names)
            handle.write(text.getvalue())

    def close(self) -> None:
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)

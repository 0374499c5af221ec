"""The read-only CSV source's files (the ``file`` / ``file:csv[:DIR]`` spec).

Each base relation is stored as one ``<relation>.csv`` file under the
store's directory.  The :class:`~repro.relational.source.DataSource`
holding the store answers every query from its own SQLite engine, whose
typed tables it loads from these files on creation, so the declared
column affinities apply to decoded file values exactly as they apply to
Python values on a ``sqlite`` source — the property the cross-source
differential oracle asserts byte for byte.  A load inserts into that
engine in one transaction and appends to the file only once it commits,
keeping the file the source of truth (docs/BACKENDS.md).

CSV encoding: ``\\N`` is NULL, a leading backslash in a text value is
doubled, integers render with ``str`` and floats with ``repr`` (±inf as
``9e999`` / ``-9e999``, or ``Inf`` / ``-Inf`` in a TEXT column).  Decoded
fields are inserted as text and the engine's column affinity restores
numerics — the same conversion SQLite applies to typed Python values, so
both storage paths agree.
"""

from __future__ import annotations

import csv
import io
import math
import os
import shutil
import tempfile

from repro.errors import SpecError

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


class CsvStore:
    """The CSV files behind one read-only source: a directory of
    ``<relation>.csv`` tables, a fresh temporary one (removed on
    :meth:`close`) unless ``root`` pins it."""

    def __init__(self, schema, root: str | None = None):
        for relation_schema in schema.relations:
            for column in relation_schema.columns:
                if column.sqltype == "BLOB":
                    raise SpecError(
                        f"file backend: relation {relation_schema.name!r} "
                        f"column {column.name!r} is BLOB, which files "
                        f"cannot round-trip")
        self._owns_root = not root
        self.root = root or tempfile.mkdtemp(
            prefix=f"repro_file_{schema.source}_")
        os.makedirs(self.root, exist_ok=True)

    def table_path(self, relation_name: str) -> str:
        return os.path.join(self.root, f"{relation_name}.csv")

    def read(self, relation_schema) -> list[tuple]:
        """The decoded rows of a relation's file (none if it has none)."""
        path = self.table_path(relation_schema.name)
        if not os.path.exists(path):
            return []
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is not None and \
                    header != list(relation_schema.column_names):
                raise SpecError(
                    f"file backend: {path} header {header!r} does "
                    f"not match relation {relation_schema.name!r}")
            return _decode_rows(reader)

    def encode(self, relation_schema, rows) -> tuple[str, list[tuple]]:
        """``rows`` as CSV text, and that text decoded: the rows the
        engine must hold for the file and the engine to agree."""
        text_columns = [column.sqltype == "TEXT"
                        for column in relation_schema.columns]
        text = io.StringIO(newline="")
        csv.writer(text).writerows(
            [_encode_field(value, text_column)
             for value, text_column in zip(row, text_columns)]
            for row in rows)
        text.seek(0)
        return text.getvalue(), _decode_rows(csv.reader(text))

    def append(self, relation_schema, text: str) -> None:
        """Append encoded rows to a relation's file (header first)."""
        path = self.table_path(relation_schema.name)
        write_header = not os.path.exists(path)
        with open(path, "a", newline="", encoding="utf-8") as handle:
            if write_header:
                csv.writer(handle).writerow(relation_schema.column_names)
            handle.write(text)

    def close(self) -> None:
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)

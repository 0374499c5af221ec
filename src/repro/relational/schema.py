"""Relational schema declarations for the data sources.

A :class:`Catalog` maps qualified relation names of the AIG query dialect
(``DB1:patient``) to their schemas, and is the single place the SQL layer
consults when resolving references and checking column names.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SpecError

#: SQL column types accepted (SQLite affinity names).  BLOB has *no*
#: affinity, so values round-trip with their Python types intact — the
#: sharding layer declares shard-chunk relations as BLOB so re-inserted
#: driving rows compare exactly like the originals.
_ALLOWED_TYPES = {"TEXT", "INTEGER", "REAL", "NUMERIC", "BLOB"}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    sqltype: str = "TEXT"

    def __post_init__(self):
        if self.sqltype not in _ALLOWED_TYPES:
            raise SpecError(f"column {self.name!r}: unsupported type "
                            f"{self.sqltype!r} (use one of {_ALLOWED_TYPES})")


@dataclass(frozen=True)
class RelationSchema:
    """A relation: name, columns, and an optional key (column-name tuple)."""

    name: str
    columns: tuple[Column, ...]
    key: tuple[str, ...] = ()

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SpecError(f"relation {self.name!r} has duplicate columns")
        for key_column in self.key:
            if key_column not in names:
                raise SpecError(f"relation {self.name!r}: key column "
                                f"{key_column!r} is not a column")

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def create_table_sql(self) -> str:
        parts = [f"{c.name} {c.sqltype}" for c in self.columns]
        if self.key:
            parts.append(f"PRIMARY KEY ({', '.join(self.key)})")
        return f"CREATE TABLE {self.name} ({', '.join(parts)})"


def relation(name: str, *columns: str, key: tuple[str, ...] = ()) -> RelationSchema:
    """Shorthand: ``relation("patient", "SSN", "pname:TEXT", key=("SSN",))``.

    Column specs are ``name`` or ``name:TYPE`` (TYPE defaults to TEXT).
    """
    parsed = []
    for spec in columns:
        name_part, _, type_part = spec.partition(":")
        parsed.append(Column(name_part, type_part or "TEXT"))
    return RelationSchema(name, tuple(parsed), key)


@dataclass(frozen=True)
class SourceSchema:
    """All relations hosted by one data source."""

    source: str
    relations: tuple[RelationSchema, ...] = ()

    def __post_init__(self):
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise SpecError(f"source {self.source!r} declares duplicate "
                            f"relations")

    def relation_schema(self, name: str) -> RelationSchema:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise SpecError(f"source {self.source!r} has no relation {name!r}")

    def has_relation(self, name: str) -> bool:
        return any(r.name == name for r in self.relations)


class Catalog:
    """The collection ``R`` of source schemas an AIG maps from."""

    def __init__(self, sources: list[SourceSchema]):
        self._by_name: dict[str, SourceSchema] = {}
        for source_schema in sources:
            if source_schema.source in self._by_name:
                raise SpecError(f"duplicate source {source_schema.source!r}")
            self._by_name[source_schema.source] = source_schema

    @property
    def source_names(self) -> list[str]:
        return list(self._by_name)

    def source(self, name: str) -> SourceSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise SpecError(f"unknown source {name!r}") from None

    def resolve(self, qualified: str) -> tuple[str, RelationSchema]:
        """``"DB1:patient"`` -> ``("DB1", <schema of patient>)``."""
        source_name, separator, relation_name = qualified.partition(":")
        if not separator:
            raise SpecError(f"relation reference {qualified!r} must be "
                            f"qualified as source:relation")
        return source_name, self.source(source_name).relation_schema(relation_name)

    def __contains__(self, source_name: str) -> bool:
        return source_name in self._by_name

"""Semantic attributes: schemas and runtime values.

Definition 3.1 associates with every element type two disjoint tuples of
attributes, ``Inh(A)`` and ``Syn(A)``.  Each attribute *member* is either a
tuple of strings (here: a *scalar* member per string component, which loses
no generality and keeps references flat, e.g. ``Inh(patient).SSN``) or a set
of tuples (a *set* member with named components, e.g.
``Syn(treatments).trIdS`` whose tuples have one component ``trId``).
Constraint compilation (Section 3.3) additionally introduces *bag* members —
sets with duplicates.

Runtime values: scalar members hold Python strings/numbers (or ``None`` for
the null produced by unselected choice branches); set and bag members hold
:class:`Rows` — an ordered multiset of tuples with named fields whose
``distinct`` flag implements set- vs bag-union semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SpecError


@dataclass(frozen=True)
class AttrSchema:
    """Schema of one attribute (the ``Inh(A)`` or ``Syn(A)`` record).

    ``scalars`` are string-valued members; ``sets`` and ``bags`` map member
    names to their tuple-component field names.
    """

    scalars: tuple[str, ...] = ()
    sets: dict[str, tuple[str, ...]] = field(default_factory=dict)
    bags: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        names = list(self.scalars) + list(self.sets) + list(self.bags)
        if len(set(names)) != len(names):
            raise SpecError(f"attribute schema has duplicate members: {names}")

    @property
    def members(self) -> list[str]:
        return list(self.scalars) + list(self.sets) + list(self.bags)

    def is_scalar(self, member: str) -> bool:
        return member in self.scalars

    def is_collection(self, member: str) -> bool:
        return member in self.sets or member in self.bags

    def is_bag(self, member: str) -> bool:
        return member in self.bags

    def collection_fields(self, member: str) -> tuple[str, ...]:
        if member in self.sets:
            return self.sets[member]
        if member in self.bags:
            return self.bags[member]
        raise SpecError(f"{member!r} is not a set/bag member")

    def has(self, member: str) -> bool:
        return member in self.members

    def merged_with(self, other: "AttrSchema") -> "AttrSchema":
        """Schema union (used when constraint compilation adds members)."""
        overlap = set(self.members) & set(other.members)
        if overlap:
            raise SpecError(f"attribute member collision: {sorted(overlap)}")
        return AttrSchema(self.scalars + other.scalars,
                          {**self.sets, **other.sets},
                          {**self.bags, **other.bags})


#: The empty attribute record (kept shared; AttrSchema is frozen).
EMPTY_SCHEMA = AttrSchema()


class Rows:
    """An ordered collection of named-field tuples (a set or bag value)."""

    __slots__ = ("fields", "rows", "distinct")

    def __init__(self, fields: tuple[str, ...], rows: list[tuple],
                 distinct: bool = True):
        self.fields = tuple(fields)
        self.distinct = distinct
        if distinct:
            seen: set[tuple] = set()
            unique: list[tuple] = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            self.rows = unique
        else:
            self.rows = list(rows)

    @classmethod
    def empty(cls, fields: tuple[str, ...], distinct: bool = True) -> "Rows":
        return cls(fields, [], distinct)

    def union(self, other: "Rows") -> "Rows":
        """Set union when distinct, bag (duplicate-preserving) union else."""
        if self.fields != other.fields:
            raise SpecError(
                f"cannot union rows with fields {self.fields} and "
                f"{other.fields}")
        return Rows(self.fields, self.rows + other.rows,
                    self.distinct and other.distinct)

    def values(self, field_name: str) -> list:
        index = self.fields.index(field_name)
        return [row[index] for row in self.rows]

    def has_duplicates(self) -> bool:
        return len(self.rows) != len(set(self.rows))

    def as_set(self) -> set[tuple]:
        return set(self.rows)

    def sorted(self) -> "Rows":
        """Canonical ordering (tuples compared as strings, None first)."""
        def sort_key(row: tuple):
            return tuple((value is not None, str(value)) for value in row)
        ordered = Rows(self.fields, [], self.distinct)
        ordered.rows = sorted(self.rows, key=sort_key)
        return ordered

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rows):
            return False
        if self.fields != other.fields:
            return False
        if self.distinct != other.distinct:
            return False
        if self.distinct:
            return self.as_set() == other.as_set()
        return sorted(map(repr, self.rows)) == sorted(map(repr, other.rows))

    def __repr__(self) -> str:
        kind = "set" if self.distinct else "bag"
        return f"Rows<{kind}>({self.fields}, {len(self.rows)} rows)"


#: Runtime value of an attribute record: member name -> scalar or Rows.
AttrValue = dict


def empty_value(schema: AttrSchema) -> AttrValue:
    """A null-initialized value of the given schema."""
    value: AttrValue = {member: None for member in schema.scalars}
    for member, fields in schema.sets.items():
        value[member] = Rows.empty(fields, distinct=True)
    for member, fields in schema.bags.items():
        value[member] = Rows.empty(fields, distinct=False)
    return value

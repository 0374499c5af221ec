"""XML key and inclusion-constraint definitions.

Both constraint forms are *relative*: they quantify over subtrees rooted at a
context element type ``C``.  The paper's Section 2 presents the single-
subelement form and notes "the same framework can be used to handle
constraints in XML Schema"; accordingly, keys and inclusion constraints here
may name a *tuple* of string-subelement types (XML Schema's composite
key/keyref), with the single-field form as the common case.

Well-formedness with respect to a DTD follows the paper: every key field
must be a string subelement type of the target occurring exactly once in its
production; inclusion-constraint field tuples must have equal length, with
each component a string subelement of its side.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.errors import ConstraintError
from repro.dtd.model import DTD, PCDATA


def _as_fields(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    fields = tuple(value)
    if not fields:
        raise ConstraintError("a constraint needs at least one field")
    if len(set(fields)) != len(fields):
        raise ConstraintError(f"duplicate constraint fields: {fields}")
    return fields


@dataclass(frozen=True)
class Key:
    """``context(target.(f1,...,fk) -> target)``; single field most common."""

    context: str
    target: str
    fields: tuple[str, ...]

    def __init__(self, context: str, target: str, fields):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "fields", _as_fields(fields))

    @property
    def field(self) -> str:
        """The field of a single-field key (the paper's base form)."""
        if len(self.fields) != 1:
            raise ConstraintError(f"{self} is a composite key; use .fields")
        return self.fields[0]

    def __str__(self) -> str:
        shown = (self.fields[0] if len(self.fields) == 1
                 else "(" + ", ".join(self.fields) + ")")
        return f"{self.context}({self.target}.{shown} -> {self.target})"

    def validate_against(self, dtd: DTD) -> None:
        """Raise :class:`ConstraintError` if ill-formed w.r.t. ``dtd``."""
        _require_type(dtd, self.context, self)
        _require_type(dtd, self.target, self)
        for field_type in self.fields:
            _require_string_subelement(dtd, self.target, field_type, self)
            if not dtd.occurs_once(self.target, field_type):
                raise ConstraintError(
                    f"{self}: {field_type!r} must occur exactly once in the "
                    f"production of {self.target!r}")


@dataclass(frozen=True)
class InclusionConstraint:
    """``context(source.(s1,...,sk) ⊆ target.(t1,...,tk))``."""

    context: str
    source: str
    source_fields: tuple[str, ...]
    target: str
    target_fields: tuple[str, ...]

    def __init__(self, context: str, source: str, source_fields,
                 target: str, target_fields):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "source_fields", _as_fields(source_fields))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "target_fields", _as_fields(target_fields))
        if len(self.source_fields) != len(self.target_fields):
            raise ConstraintError(
                f"{self}: source and target field tuples differ in length")

    def __str__(self) -> str:
        def shown(fields):
            return (fields[0] if len(fields) == 1
                    else "(" + ", ".join(fields) + ")")
        return (f"{self.context}({self.source}.{shown(self.source_fields)} "
                f"⊆ {self.target}.{shown(self.target_fields)})")

    def validate_against(self, dtd: DTD) -> None:
        """Raise :class:`ConstraintError` if ill-formed w.r.t. ``dtd``."""
        _require_type(dtd, self.context, self)
        _require_type(dtd, self.source, self)
        _require_type(dtd, self.target, self)
        for field_type in self.source_fields:
            _require_string_subelement(dtd, self.source, field_type, self)
        for field_type in self.target_fields:
            _require_string_subelement(dtd, self.target, field_type, self)


Constraint = Key | InclusionConstraint


def foreign_key(context: str, source: str, source_fields,
                target: str, target_fields
                ) -> tuple[Key, InclusionConstraint]:
    """A foreign key = a key on the target plus an inclusion into it."""
    return (Key(context, target, target_fields),
            InclusionConstraint(context, source, source_fields,
                                target, target_fields))


def _require_type(dtd: DTD, element_type: str, constraint) -> None:
    if element_type not in dtd:
        raise ConstraintError(
            f"{constraint}: element type {element_type!r} is not in the DTD")


def _require_string_subelement(dtd: DTD, parent: str, field_type: str,
                               constraint) -> None:
    _require_type(dtd, field_type, constraint)
    if not isinstance(dtd.production(field_type), PCDATA):
        raise ConstraintError(
            f"{constraint}: {field_type!r} must be a string (PCDATA) "
            f"element type")
    if field_type not in set(dtd.production(parent).names()):
        raise ConstraintError(
            f"{constraint}: {field_type!r} is not a subelement type of "
            f"{parent!r}")

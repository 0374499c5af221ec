"""Abstract syntax for the AIG query dialect.

Everything is a frozen dataclass so queries can be hashed, compared, and used
as nodes of the query dependency graph.  A :class:`Query` is a conjunctive
select-project-join block:

    SELECT <items> FROM <from_items> WHERE <conjunction of predicates>

Expressions appearing in select lists and predicates are column references,
scalar parameters (``$name``), or literals.  From-items are base tables
(``source:relation alias``), temp tables (another query's cached output), or
set-valued parameters used as relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.errors import SpecError


# ----------------------------------------------------------------------
# scalar expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnRef:
    """``alias.column`` — ``alias`` may be empty for unqualified references
    (resolved during analysis)."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Param:
    """A scalar parameter ``$name`` bound from an attribute member."""

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class Literal:
    """A constant (string or number)."""

    value: Union[str, int, float]

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


Expr = Union[ColumnRef, Param, Literal]


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------
_COMPARISON_OPS = {"=", "<", ">", "<=", ">=", "<>"}


@dataclass(frozen=True)
class Comparison:
    """``left op right`` with op one of ``= < > <= >= <>``."""

    left: Expr
    op: str
    right: Expr

    def __post_init__(self):
        if self.op not in _COMPARISON_OPS:
            raise SpecError(f"unsupported comparison operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class InSet:
    """``column IN $param`` — membership in a set-valued parameter.

    ``field`` names which component of the set parameter's tuples to match;
    it defaults to the column's own name at validation time.
    """

    column: ColumnRef
    param: str
    field: str = ""

    def __str__(self) -> str:
        suffix = f".{self.field}" if self.field else ""
        return f"{self.column} IN ${self.param}{suffix}"


Predicate = Union[Comparison, InSet]


# ----------------------------------------------------------------------
# from-items
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BaseTable:
    """``source:relation alias``."""

    source: str
    relation: str
    alias: str

    def __str__(self) -> str:
        return f"{self.source}:{self.relation} {self.alias}"


@dataclass(frozen=True)
class TempTable:
    """A reference to another query's cached output.

    ``producer`` is the logical name of the producing query; the physical
    table name is bound at render time (after shipping).  ``columns`` lists
    the producer's output column names, fixed when the plan is built.
    """

    producer: str
    alias: str
    columns: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"@{self.producer} {self.alias}"


@dataclass(frozen=True)
class SetParamTable:
    """A set-valued parameter used as a relation: ``$name alias``."""

    param: str
    alias: str

    def __str__(self) -> str:
        return f"${self.param} {self.alias}"


FromItem = Union[BaseTable, TempTable, SetParamTable]


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    """One output column: an expression plus its output name."""

    expr: Expr
    alias: str

    def __str__(self) -> str:
        if isinstance(self.expr, ColumnRef) and self.expr.column == self.alias:
            return str(self.expr)
        return f"{self.expr} AS {self.alias}"


@dataclass(frozen=True)
class Query:
    """A conjunctive select-project-join block."""

    select: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...]
    where: tuple[Predicate, ...] = ()
    distinct: bool = False

    def __post_init__(self):
        if not self.select:
            raise SpecError("query must select at least one column")
        if not self.from_items:
            raise SpecError("query must have at least one from-item")
        aliases = [item.alias for item in self.from_items]
        if len(set(aliases)) != len(aliases):
            raise SpecError(f"duplicate from-item aliases in query: {aliases}")
        output_names = [item.alias for item in self.select]
        if len(set(output_names)) != len(output_names):
            raise SpecError(
                f"duplicate output column names in query: {output_names}")

    @property
    def output_names(self) -> list[str]:
        return [item.alias for item in self.select]

    def __str__(self) -> str:
        parts = ["select "]
        if self.distinct:
            parts = ["select distinct "]
        parts.append(", ".join(str(i) for i in self.select))
        parts.append(" from ")
        parts.append(", ".join(str(f) for f in self.from_items))
        if self.where:
            parts.append(" where ")
            parts.append(" and ".join(str(p) for p in self.where))
        return "".join(parts)

"""Rendering query ASTs to executable SQLite SQL.

Two rendering modes cover the two evaluation paths:

* **federated** (``qualify_sources=True``): base tables render as
  ``"DB1"."patient"`` for execution on a :class:`repro.relational.source.
  Federation` connection — used by the conceptual evaluator, where
  multi-source queries run directly.
* **local** (``qualify_sources=False``): base tables render unqualified for
  execution at a single source; the renderer *verifies* the query touches at
  most one source.  Used by the optimized pipeline after decomposition.

Scalar parameters become ``?`` placeholders with a value list; set-valued
parameters and temp-table inputs are expected to be materialized as tables
beforehand and are looked up in ``bindings`` (logical name -> physical table
name), mirroring the paper's "a temporary relation is created in the
database if some member is a set".
"""

from __future__ import annotations

import math

from repro.errors import PlanError, SpecError
from repro.sqlq.ast import (
    BaseTable,
    ColumnRef,
    Comparison,
    Expr,
    InSet,
    Literal,
    Param,
    Query,
    SetParamTable,
    TempTable,
)
from repro.sqlq.analyze import sources_of


class InlineTable:
    """A literal row set standing in for a shipped temp table.

    Bound in ``bindings`` where a physical table name would normally go,
    for sources whose backend cannot receive temp tables
    (``supports_temp_tables=False``, see docs/BACKENDS.md).  A FROM-item
    reference renders as a multi-row ``VALUES`` derived table; an
    ``IN $set`` predicate renders as a literal IN-list.
    The execution engine caps the row count before binding one
    (``repro.runtime.engine.INLINE_SHIP_ROW_CAP``).
    """

    __slots__ = ("columns", "rows")

    def __init__(self, columns: list[str], rows: list[tuple]):
        self.columns = list(columns)
        self.rows = rows

    def __repr__(self) -> str:
        return f"InlineTable({self.columns!r}, {len(self.rows)} rows)"


def _inline_literal(value) -> str:
    """One SQL literal for an inline row set (SQLite syntax)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        if math.isinf(value):
            # SQLite has no infinity literal; 9e999 overflows to REAL ±inf.
            return "9e999" if value > 0 else "-9e999"
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (bytes, bytearray)):
        return "X'" + bytes(value).hex() + "'"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def inline_table_sql(table: InlineTable) -> str:
    """Render an :class:`InlineTable` as a literal derived-table SELECT.

    A multi-row ``VALUES`` clause, not a ``UNION ALL`` chain: SQLite
    caps compound SELECTs at 500 terms but explicitly exempts VALUES
    lists, so this form scales to the full
    :data:`repro.runtime.engine.INLINE_SHIP_ROW_CAP`.  The wrapper
    SELECT renames SQLite's positional ``column1..columnN`` to the
    shipped column names.
    """
    if not table.rows:
        empty = ", ".join(f'NULL AS "{column}"'
                          for column in table.columns)
        return f"SELECT {empty} WHERE 0"
    names = ", ".join(f'"column{position}" AS "{column}"'
                      for position, column in
                      enumerate(table.columns, start=1))
    values = ", ".join(
        "(" + ", ".join(_inline_literal(value) for value in row) + ")"
        for row in table.rows)
    return f"SELECT {names} FROM (VALUES {values})"


def render_sqlite(query: Query,
                  scalar_values: dict[str, object] | None = None,
                  bindings: dict[str, str] | None = None,
                  qualify_sources: bool = False,
                  ordered: bool = False) -> tuple[str, list[object]]:
    """Render to ``(sql, positional_params)``.

    ``scalar_values`` maps ``$param`` names to values; ``bindings`` maps
    temp-table producers (``"@name"`` keys use the producer name) and set
    parameters (keys ``"$name"``) to physical table names.  With
    ``ordered=True`` an ``ORDER BY`` over all output columns is appended,
    giving both evaluation paths a canonical row order.
    """
    scalar_values = scalar_values or {}
    bindings = bindings or {}
    if not qualify_sources and len(sources_of(query)) > 1:
        raise PlanError(
            f"query touches multiple sources and must be decomposed before "
            f"local rendering: {query}")
    params: list[object] = []

    def render_expr(expr: Expr) -> str:
        if isinstance(expr, ColumnRef):
            if not expr.table:
                return f'"{expr.column}"'
            return f'"{expr.table}"."{expr.column}"'
        if isinstance(expr, Param):
            if expr.name not in scalar_values:
                raise PlanError(f"unbound scalar parameter ${expr.name} "
                                f"in query: {query}")
            params.append(scalar_values[expr.name])
            return "?"
        assert isinstance(expr, Literal)
        return str(expr)

    select_parts = []
    for item in query.select:
        rendered = render_expr(item.expr)
        select_parts.append(f'{rendered} AS "{item.alias}"')
    head = "SELECT DISTINCT " if query.distinct else "SELECT "
    sql_parts = [head, ", ".join(select_parts), " FROM "]

    from_parts = []
    for item in query.from_items:
        if isinstance(item, BaseTable):
            if qualify_sources:
                from_parts.append(
                    f'"{item.source}"."{item.relation}" AS "{item.alias}"')
            else:
                from_parts.append(f'"{item.relation}" AS "{item.alias}"')
        elif isinstance(item, TempTable):
            physical = bindings.get(item.producer)
            if physical is None:
                raise PlanError(f"no binding for temp input "
                                f"@{item.producer} in query: {query}")
            if isinstance(physical, InlineTable):
                from_parts.append(
                    f'({inline_table_sql(physical)}) AS "{item.alias}"')
            else:
                from_parts.append(f'"{physical}" AS "{item.alias}"')
        else:
            assert isinstance(item, SetParamTable)
            physical = bindings.get(f"${item.param}")
            if physical is None:
                raise PlanError(f"no binding for set parameter "
                                f"${item.param} in query: {query}")
            if isinstance(physical, InlineTable):
                from_parts.append(
                    f'({inline_table_sql(physical)}) AS "{item.alias}"')
            else:
                from_parts.append(f'"{physical}" AS "{item.alias}"')
    sql_parts.append(", ".join(from_parts))

    if query.where:
        where_parts = []
        for predicate in query.where:
            if isinstance(predicate, Comparison):
                where_parts.append(
                    f"{render_expr(predicate.left)} {predicate.op} "
                    f"{render_expr(predicate.right)}")
            else:
                assert isinstance(predicate, InSet)
                physical = bindings.get(f"${predicate.param}")
                if physical is None:
                    raise PlanError(f"no binding for set parameter "
                                    f"${predicate.param} in query: {query}")
                field = predicate.field or predicate.column.column
                if isinstance(physical, InlineTable):
                    index = physical.columns.index(field)
                    literals = sorted({_inline_literal(row[index])
                                       for row in physical.rows
                                       if row[index] is not None})
                    if literals:
                        where_parts.append(
                            f'{render_expr(predicate.column)} IN '
                            f'({", ".join(literals)})')
                    else:
                        # empty set: nothing matches (NULLs never do)
                        where_parts.append("1 = 0")
                else:
                    where_parts.append(
                        f'{render_expr(predicate.column)} IN '
                        f'(SELECT "{field}" FROM "{physical}")')
        sql_parts.append(" WHERE " + " AND ".join(where_parts))

    if ordered:
        order = ", ".join(f'"{item.alias}"' for item in query.select)
        sql_parts.append(f" ORDER BY {order}")
    return "".join(sql_parts), params

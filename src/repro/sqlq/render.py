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

from repro.errors import PlanError
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
            from_parts.append(f'"{physical}" AS "{item.alias}"')
        else:
            assert isinstance(item, SetParamTable)
            physical = bindings.get(f"${item.param}")
            if physical is None:
                raise PlanError(f"no binding for set parameter "
                                f"${item.param} in query: {query}")
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
                where_parts.append(
                    f'{render_expr(predicate.column)} IN '
                    f'(SELECT "{field}" FROM "{physical}")')
        sql_parts.append(" WHERE " + " AND ".join(where_parts))

    if ordered:
        order = ", ".join(f'"{item.alias}"' for item in query.select)
        sql_parts.append(f" ORDER BY {order}")
    return "".join(sql_parts), params

"""The execution phase (Section 5.1): run an optimized plan.

The engine walks the execution plan source by source: a query runs as soon
as its inputs are available and its predecessor on the same source has
finished; its output is cached at the mediator (every result ships there —
the mediator is the router and the tagging phase's data store) and shipped
on to dependent sources as needed.  Queries execute for real against the
per-source SQLite databases.  The reported response time is computed after
the run (:func:`~repro.optimizer.cost.run_cost`): measured evaluation times
and the *actual* byte sizes of the shipped tables, priced by the
:class:`~repro.relational.network.Network` simulator, go through the same
``comp_time`` recursion the optimizer chose the plan by.

Merged nodes (Algorithm Merge) render as a single statement — CTEs for the
members in dependency order, outer-unioned with the member's index as an
integer ``__tag`` discriminator — and the result is split back into
per-member cached tables by a stable sort on the tag and one ``itemgetter``
pass per member, so consumers and the tagging phase are oblivious to
merging.  Only a member a sibling inlines is numbered inside the statement
(``ROW_NUMBER``); the others are numbered in the split, as a plain step is.

Collect, guard and product nodes keep the mediator site in the plan but
issue no statement: collection programs run in process over the result
sets of their inputs (:mod:`repro.runtime.collect`), a guard that finds a
witness aborts the run with :class:`~repro.errors.EvaluationAborted`, and
a product node pairs every row of a query that read nothing of its anchor
with every anchor row.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from operator import add, itemgetter

from repro.errors import EvaluationAborted, EvaluationError, PlanError
from repro.obs.tracer import MAIN_TRACK, NULL_TRACER
from repro.optimizer.cost import QUERY_OVERHEAD, run_cost
from repro.relational.network import Network
from repro.relational.source import (
    DataSource,
    MEDIATOR_NAME,
    Mediator,
    ResultSet,
    intern_columns,
)
from repro.runtime.collect import RunCollections, guard_output
from repro.sqlq.render import render_sqlite

#: Hidden row-identity column appended to every cached table.
ID_COLUMN = "__id"

logger = logging.getLogger("repro.engine")


@dataclass
class NodeTiming:
    """Timing record for one executed node.

    Built from the node's execution span (:mod:`repro.obs.tracer`), so the
    span model is the single timing source of truth.  ``completion`` and
    ``overhead_seconds`` are modeled, not measured: ``Engine.run`` fills
    them after the run (:func:`~repro.optimizer.cost.run_cost`).
    """

    name: str
    source: str
    eval_seconds: float           # measured SQLite execution time
    completion: float             # simulated completion on the clock
    output_rows: int
    output_bytes: int
    rows_materialized: int = 0    # input rows shipped into temp tables
    overhead_seconds: float = 0.0  # modeled deployment cost applied
    cached: bool = False          # replayed from the incremental cache


@dataclass
class EngineResult:
    """Everything the execution phase produced."""

    cache: dict[str, ResultSet]            # node name -> cached output
    timings: dict[str, NodeTiming]
    response_time: float                   # simulated total (Section 5.2)
    measured_seconds: float                # wall clock actually spent
    queries_executed: int = 0
    bytes_shipped: int = 0
    violations: list = field(default_factory=list)
    #: Incremental re-evaluation (docs/INCREMENTAL.md): nodes replayed
    #: from the cross-evaluation cache instead of executing.
    reused_nodes: int = 0
    #: Fresh :class:`~repro.runtime.incremental.CachedNodeResult` entries
    #: for the nodes that *did* execute this run — the middleware commits
    #: them to its cache only after a fully successful run.
    cache_entries: dict = field(default_factory=dict)


class Engine:
    """Executes a query dependency graph under an execution plan."""

    #: Class-level default so partially constructed engines (tests build
    #: them via ``__new__`` to exercise single methods) still trace as
    #: no-ops.
    tracer = NULL_TRACER

    def __init__(self, graph, plan: dict, sources: dict[str, DataSource],
                 network: Network, mediator: Mediator | None = None,
                 query_overhead: float | None = None,
                 violation_mode: str = "abort",
                 tracer=None,
                 deadline: float | None = None,
                 tagging_plan=None,
                 reuse: dict | None = None,
                 fingerprints: dict | None = None):
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.graph = graph
        self.plan = plan
        self.sources = dict(sources)
        self.mediator = mediator or Mediator()
        self.sources[MEDIATOR_NAME] = self.mediator
        self.network = network
        #: Modeled per-query dispatch cost of the paper's distributed
        #: deployment, charged by :func:`~repro.optimizer.cost.run_cost`.
        self.query_overhead = (QUERY_OVERHEAD if query_overhead is None
                               else query_overhead)
        if violation_mode not in ("abort", "report"):
            raise PlanError(f"violation_mode must be 'abort' or 'report', "
                            f"got {violation_mode!r}")
        self.violation_mode = violation_mode
        #: Bounds each statement's wall time (see
        #: :mod:`repro.resilience.deadline`).
        self.deadline = deadline
        # ``tagging_plan`` is accepted and unread: the benchmark's
        # ``Pipeline.run_engine`` still passes it.
        #: Incremental re-evaluation (docs/INCREMENTAL.md): ``reuse`` maps
        #: clean node names to their cached results (replayed instead of
        #: executed); ``fingerprints`` holds this run's per-node content
        #: fingerprints so fresh results can be cached for the next run.
        self.reuse = reuse or {}
        self.fingerprints = fingerprints
        #: this run's shared indexes and collections (one engine per run)
        self.collections = RunCollections(self.tracer.metrics)
        self._physical: dict[str, str] = {}
        self._physical_counter = 0

    # ------------------------------------------------------------------
    def run(self, root_inh: dict) -> EngineResult:
        """Execute the plan, one node at a time in the plan's dispatch
        order (see :mod:`repro.runtime.executor`).  The executor only
        measures; ``response_time``, ``bytes_shipped`` and each timing's
        modeled fields follow from that.
        """
        from repro.runtime.executor import PlanExecutor
        metrics = self.tracer.metrics
        with self.tracer.span("execute", "execute", track=MAIN_TRACK,
                              nodes=len(self.graph.nodes)) as run_span:
            result = PlanExecutor(self).run(root_inh, run_span)
            result.response_time, result.bytes_shipped = run_cost(
                self.graph, self.plan, result.timings, result.cache,
                self.network, self.query_overhead)
            run_span.set(bytes_shipped=result.bytes_shipped,
                         response_time=result.response_time)
        metrics.add("bytes_shipped", result.bytes_shipped)
        metrics.set_gauge("response_time_seconds", result.response_time)
        return result

    def _execute(self, node, cache: dict[str, ResultSet], root_inh: dict,
                 shipped: dict | None = None
                 ) -> tuple[float, dict[str, ResultSet], int]:
        """Run one node.

        Returns ``(measured seconds, outputs per name, rows materialized)``.
        ``shipped`` is the run's ship-once registry mapping
        ``(source, input)`` to an already-landed temp table.
        """
        source = self.sources.get(node.source)
        if source is None:
            raise EvaluationError(f"no data source named {node.source!r}")
        if getattr(node, "members", None):
            return self._execute_merged(node, source, cache, root_inh,
                                        shipped)
        if node.in_process:
            return self._execute_in_process(node, cache, root_inh)
        return self._execute_query(node, source, cache, root_inh, shipped)

    # -- plain AST queries ---------------------------------------------
    def _execute_query(self, node, source, cache, root_inh, shipped=None):
        with self.tracer.span("materialize", "ship",
                              node=node.name) as materialize_span:
            bindings, rows_materialized = self._materialize_inputs(
                node.inputs, source, cache, shipped)
        materialize_seconds = materialize_span.duration
        scalar_values = {param: root_inh[member]
                         for param, member in node.root_params.items()}
        sql, params = render_sqlite(node.query, scalar_values, bindings)
        result = source.execute(sql, tuple(params), deadline=self.deadline)
        if node.kind == "condition":
            result = _normalize_condition(result, node.name)
        output = _with_ids(result)
        elapsed = source.last_execution_seconds + materialize_seconds
        return elapsed, {node.name: output}, rows_materialized

    # -- collect / guard / product nodes: in process ---------------------
    def _execute_in_process(self, node, cache, root_inh):
        """A collect node's rows, a guard's witness or a product, from the
        result sets in ``cache``; root attribute values are Python
        values."""
        started = time.perf_counter()
        if node.kind == "guard":
            output = guard_output(node, self.collections, cache, root_inh)
        elif node.kind == "product":
            output = _product(node, cache)
        else:
            (program,) = node.collections
            output = ResultSet(intern_columns(node.output_columns),
                               self.collections.rows(program, cache,
                                                     root_inh))
        return time.perf_counter() - started, {node.name: _with_ids(output)}, 0

    # -- merged nodes -----------------------------------------------------
    def _execute_merged(self, node, source, cache, root_inh, shipped=None):
        """Run a merged node as one statement and split it per member.

        Each member is a CTE; a member a sibling inlines is numbered by
        ``ROW_NUMBER`` inside the statement (the sibling joins on its
        ``__id``), any other member selects ``NULL`` for ``__id`` and is
        numbered 1..n here, as :func:`_with_ids` numbers a plain step.  The
        discriminator is the member's index; the split is one stable sort
        on it, a ``bisect`` per member and one ``itemgetter`` pass per
        slice — no Python work per row.
        """
        members = self._topo_members(node)
        with self.tracer.span("materialize", "ship",
                              node=node.name) as materialize_span:
            bindings, rows_materialized = self._materialize_inputs(
                node.inputs, source, cache, shipped)
        materialize_seconds = materialize_span.duration
        cte_names = {member.name: f"__m{index}"
                     for index, member in enumerate(members)}
        inlined = {name for member in members for name in member.inputs
                   if name in cte_names}

        with_parts: list[str] = []
        all_params: list[object] = []
        total_width = max(len(member.output_columns) for member in members)
        union_parts: list[str] = []
        for tag, member in enumerate(members):
            cte = cte_names[member.name]
            member_bindings = dict(bindings)
            member_bindings.update((name, cte_names[name])
                                   for name in member.inputs
                                   if name in cte_names)
            scalar_values = {param: root_inh[mem]
                             for param, mem in member.root_params.items()}
            sql, params = render_sqlite(member.query, scalar_values,
                                        member_bindings)
            all_params.extend(params)
            if member.name in inlined:
                with_parts.append(
                    f"{cte} AS (SELECT *, ROW_NUMBER() OVER () AS "
                    f"{ID_COLUMN} FROM ({sql}))")
                row_id = f'"{ID_COLUMN}"'
            else:
                with_parts.append(f"{cte} AS ({sql})")
                row_id = "NULL"
            columns = [f'"{c}"' for c in member.output_columns]
            padding = ["NULL"] * (total_width - len(columns))
            select_list = ", ".join([f"{tag} AS __tag"] + columns + padding
                                    + [row_id])
            union_parts.append(f"SELECT {select_list} FROM {cte}")
        statement = ("WITH " + ", ".join(with_parts) + " "
                     + " UNION ALL ".join(union_parts))
        result = source.execute(statement, tuple(all_params),
                                deadline=self.deadline)
        elapsed = source.last_execution_seconds + materialize_seconds

        # Stable, so each member keeps its fetch order; O(n) when the rows
        # arrive in UNION ALL order, and still right when they do not.
        first = itemgetter(0)
        rows = sorted(result.rows, key=first)
        outputs: dict[str, ResultSet] = {}
        start = 0
        for tag, member in enumerate(members):
            end = bisect_right(rows, tag, lo=start, key=first)
            block = rows[start:end]
            start = end
            indexes = list(range(1, len(member.output_columns) + 1))
            if member.name in inlined:
                slice_rows = list(_columns_at(block, indexes + [-1]))
            else:
                slice_rows = list(map(add, _columns_at(block, indexes),
                                      zip(count(1))))
            slice_result = ResultSet(
                intern_columns(list(member.output_columns) + [ID_COLUMN]),
                slice_rows)
            if member.kind == "condition":
                slice_result = _normalize_condition(slice_result,
                                                    member.name)
            outputs[member.name] = slice_result
        outputs[node.name] = merged_entry(node)
        return elapsed, outputs, rows_materialized

    def _topo_members(self, node):
        members = list(node.members)
        names = {member.name for member in members}
        ordered = []
        placed: set[str] = set()
        while members:
            for member in members:
                internal = [i for i in member.inputs if i in names]
                if all(i in placed for i in internal):
                    ordered.append(member)
                    placed.add(member.name)
                    members.remove(member)
                    break
            else:
                raise PlanError(f"merged node {node.name!r} has a cycle "
                                f"among members")
        return ordered

    # ------------------------------------------------------------------
    def _materialize_inputs(self, input_names, source, cache,
                            shipped: dict | None = None
                            ) -> tuple[dict[str, str], int]:
        """Create local temp tables for a node's inputs.

        Returns ``(bindings, rows materialized)``.  With a ``shipped``
        registry, a result already landed at this source is reused instead
        of re-created (ship-once); the *modeled* per-input-row charge still
        counts every consumer, so the simulated clock is unchanged.
        """
        bindings: dict[str, str] = {}
        rows_materialized = 0
        metrics = self.tracer.metrics
        for input_name in input_names:
            if input_name not in cache:
                raise PlanError(f"input {input_name!r} not yet available")
            result = cache[input_name]
            if source.name == MEDIATOR_NAME:
                bindings[input_name] = self._cache_table(input_name, cache)
            else:
                rows_materialized += len(result)
                key = (source.name, input_name)
                table = shipped.get(key) if shipped is not None else None
                if table is None:
                    with self.tracer.span(f"ship:{input_name}", "ship",
                                          target=source.name,
                                          rows=len(result)):
                        table = source.create_temp_table(result.columns,
                                                         result.rows)
                    if shipped is not None:
                        shipped[key] = table
                    metrics.add("temp_tables_created", 1)
                    metrics.add("rows_shipped", len(result))
                else:
                    metrics.add("ship_once_reuses", 1)
                bindings[input_name] = table
        return bindings, rows_materialized

    def _cache_table(self, input_name: str, cache) -> str:
        """The mediator table holding a cached result, shipped into a new
        one on first use."""
        if input_name not in self._physical:
            self._physical_counter += 1
            physical = f"cache_{self._physical_counter}"
            with self.tracer.span(f"cache:{input_name}", "ship",
                                  target=MEDIATOR_NAME,
                                  rows=len(cache[input_name])):
                self.mediator.cache_result(physical, cache[input_name])
            self.tracer.metrics.add("mediator_cache_tables", 1)
            self._physical[input_name] = physical
        return self._physical[input_name]

    def cleanup(self) -> None:
        """Drop this run's mediator-resident cache tables.

        Tagging reads the in-memory result sets, never these tables, so
        dropping them after execution (success *or* failure) leaves the
        mediator's schema as it was found.  Best-effort: a dead mediator
        connection must not mask the run's own outcome.
        """
        physical, self._physical = self._physical, {}
        for table in physical.values():
            try:
                self.mediator.drop_table(table)
            except Exception as error:  # noqa: BLE001 — cleanup only
                logger.debug("mediator cleanup of %r failed: %s",
                             table, error)


def _normalize_condition(result, node_name: str):
    """Coerce a condition node's selector column to int.

    The conceptual semantics reads the selector through ``int(...)``; the
    optimized pipeline's gating joins compare it to integer literals, so the
    cached table must hold real integers (SQLite does not coerce TEXT '2' to
    2 in equality).
    """
    if not result.rows:
        return result
    normalized = []
    for row in result.rows:
        selector = row[0]
        try:
            as_int = int(selector)
        except (TypeError, ValueError):
            raise EvaluationError(
                f"condition query {node_name!r} returned non-integer "
                f"{selector!r}") from None
        normalized.append((as_int,) + row[1:])
    return ResultSet(intern_columns(result.columns), normalized)


def merged_entry(node) -> ResultSet:
    """A merged node's own cache entry: one row per member name.  It is
    bookkeeping, not output — an executed and a skipped merged node both
    hold it, and neither counts it among the rows or bytes put out."""
    return ResultSet(["__tag"], [(member.name,) for member in node.members])


def _columns_at(rows, indexes):
    """Each row's values at ``indexes`` as a tuple, in one C-level pass
    (``itemgetter()`` raises and ``itemgetter(i)`` returns a scalar, so
    zero and one index are spelled out)."""
    if len(indexes) > 1:
        return map(itemgetter(*indexes), rows)
    if indexes:
        return zip(map(itemgetter(indexes[0]), rows))
    return repeat((), len(rows))


def _product(node, cache) -> ResultSet:
    """A product node's rows: each row of its query (``__id`` dropped)
    once per row of its anchor table, anchor-major, ``__parent`` the
    anchor row's ``__id`` — what joining the anchor in SQL returned — and
    numbered 1..n as :func:`_with_ids` numbers a step."""
    query, anchor = (cache[name] for name in node.inputs)
    width = len(node.output_columns) - 1
    rows = list(_columns_at(query.rows, list(range(width))))
    parents = chain.from_iterable(map(
        repeat, map(itemgetter(anchor.columns.index(ID_COLUMN)),
                    anchor.rows), repeat(len(rows))))
    return ResultSet(
        intern_columns(list(node.output_columns) + [ID_COLUMN]),
        list(map(add, rows * len(anchor), zip(parents, count(1)))))


def _with_ids(result):
    """Append the ``__id`` path-encoding column (unique per table)."""
    if ID_COLUMN in result.columns:
        return result
    columns = intern_columns(result.columns + [ID_COLUMN])
    return ResultSet(columns, list(map(add, result.rows, zip(count(1)))))

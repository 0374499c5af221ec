"""Cost evaluation (Section 5.2).

Two layers:

* :class:`CostModel` — the per-query "costing API" the paper assumes every
  source provides: ``eval_cost(Q)`` (seconds) and ``size(Q)`` (bytes),
  derived here from table statistics with System-R-style selectivities, so
  estimates are deterministic and benchmarks reproducible.  Estimation runs
  once over the whole graph in topological order, since a query that
  references the results of other queries needs their cardinality estimates
  as inputs — exactly the paper's "the API is able to accept cost estimates
  of Q' (e.g., cardinality information) as inputs".

* :func:`comp_time` — the paper's ``comp_time`` recursion and ``cost(P)``:
  the completion time of each query is its evaluation cost plus the later of
  (a) the completion of its predecessor on the same source and (b) the
  arrival of its inputs, priced by ``trans_cost``; the plan's response time
  is the maximum completion (including the final shipment of
  tagging-relevant outputs to the mediator), computed by dynamic programming
  in at most quadratic time.  :func:`plan_cost` runs it over the estimates
  to choose a plan, :func:`run_cost` over the measurements of a finished run.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.relational.network import Network
from repro.relational.source import MEDIATOR_NAME
from repro.relational.statistics import StatisticsCatalog
from repro.sqlq.ast import (
    BaseTable,
    ColumnRef,
    Comparison,
    InSet,
    Literal,
    Param,
    Query,
    SetParamTable,
    TempTable,
)

#: Calibration constants (seconds), sized for the paper's 2003-era setting
#: (DB2 behind a middleware, 1 Mbps links): QUERY_OVERHEAD covers "opening a
#: connection, parsing and preparing the statement"; PER_INPUT_ROW prices
#: populating a query's input temp tables through the middleware (dynamic
#: INSERTs — the dominant per-row cost, and the one merged queries avoid for
#: inlined intermediates); PER_OUTPUT_ROW prices fetching/serializing a
#: result row.  Local SQLite has none of these costs, so the simulated clock
#: adds them explicitly from actual row counts (without them the 1 Mbps
#: network would be the only cost and merging could show no evaluation-side
#: benefit); mediator work pays only MEDIATOR_OVERHEAD, a statement with no
#: network dispatch.
QUERY_OVERHEAD = 0.25
PER_INPUT_ROW = 5e-4
PER_OUTPUT_ROW = 1e-4
MEDIATOR_OVERHEAD = 0.01
DEFAULT_COLUMN_BYTES = 8.0


class LazyDistinct(Mapping):
    """Output column -> distinct count, each resolved the first time it is
    read and kept: a column nobody reads is never sent to the catalog.
    Iterating it (``dict(...)``, ``items()``, ``==``) reads every column.
    """

    def __init__(self, resolvers: dict):
        self._resolvers = resolvers
        self._values: dict[str, float] = {}

    def __getitem__(self, column: str) -> float:
        if column not in self._values:
            self._values[column] = self._resolvers[column]()
        return self._values[column]

    def __contains__(self, column) -> bool:
        return column in self._resolvers

    def __iter__(self):
        return iter(self._resolvers)

    def __len__(self) -> int:
        return len(self._resolvers)


@dataclass
class NodeEstimate:
    """Estimated output of one QDG node."""

    cardinality: float
    row_bytes: float
    eval_seconds: float
    distinct: Mapping[str, float] = field(default_factory=dict)

    @property
    def size_bytes(self) -> float:
        return self.cardinality * self.row_bytes

    def distinct_or(self, column: str, default: float) -> float:
        """The distinct count of output ``column`` (read now if lazy), or
        ``default`` for a column the node does not output."""
        return self.distinct[column] if column in self.distinct else default


class CostModel:
    """Derives per-node estimates for a query dependency graph."""

    def __init__(self, stats: StatisticsCatalog,
                 overhead: float = QUERY_OVERHEAD,
                 per_input_row: float = PER_INPUT_ROW,
                 per_output_row: float = PER_OUTPUT_ROW):
        self.stats = stats
        self.overhead = overhead
        self.per_input_row = per_input_row
        self.per_output_row = per_output_row

    # ------------------------------------------------------------------
    def estimate_graph(self, graph) -> dict[str, NodeEstimate]:
        """Estimate every node, in topological order."""
        estimates: dict[str, NodeEstimate] = {}
        for node in graph.topological_order():
            estimates[node.name] = self.estimate_node(graph, node, estimates)
        return estimates

    def estimate_node(self, graph, node,
                      estimates: dict[str, NodeEstimate]) -> NodeEstimate:
        if getattr(node, "members", None):
            return self.estimate_merged(node, estimates)
        if node.query is not None:
            return self._estimate_query(node.query, estimates)
        if node.kind == "product":
            return self._estimate_product(node, estimates)
        return self._estimate_raw(node, estimates)

    def estimate_merged(self, node,
                        estimates: dict[str, NodeEstimate]) -> NodeEstimate:
        """A merged node: overhead paid once, member work summed, and the
        input-materialization cost of *internal* edges discounted — inlined
        members read each other as CTEs, so those intermediate results are
        never populated into temp tables (the size-dependent benefit of
        dependent-pair merging, Section 5.4)."""
        member_names = {member.name for member in node.members}
        work = 0.0
        seen_externals: set[str] = set()
        for member in node.members:
            work += max(estimates[member.name].eval_seconds - self.overhead,
                        0.0)
            for input_name in member.inputs:
                if input_name in estimates:
                    card = estimates[input_name].cardinality
                else:
                    card = 0.0
                if input_name in member_names:
                    work -= self.per_input_row * card  # inlined as a CTE
                elif input_name in seen_externals:
                    work -= self.per_input_row * card  # materialized once
                else:
                    seen_externals.add(input_name)
        cardinality = sum(estimates[member.name].cardinality
                          for member in node.members)
        row_bytes = max(estimates[member.name].row_bytes
                        for member in node.members)
        return NodeEstimate(cardinality, row_bytes,
                            self.overhead + max(work, 0.0))

    # ------------------------------------------------------------------
    def _estimate_query(self, query: Query,
                        estimates: dict[str, NodeEstimate]) -> NodeEstimate:
        cards: dict[str, float] = {}
        producers: dict[str, NodeEstimate] = {}
        base_stats: dict[str, object] = {}
        for item in query.from_items:
            if isinstance(item, BaseTable):
                table_stats = self.stats.table(item.source, item.relation)
                cards[item.alias] = max(1.0, table_stats.cardinality)
                base_stats[item.alias] = table_stats
            elif isinstance(item, TempTable):
                producer = estimates.get(item.producer)
                if producer is None:
                    raise PlanError(
                        f"estimating a query before its input "
                        f"{item.producer!r}")
                cards[item.alias] = max(1.0, producer.cardinality)
                producers[item.alias] = producer
            else:
                assert isinstance(item, SetParamTable)
                cards[item.alias] = 100.0  # unresolved set parameter

        def distinct_of(ref: ColumnRef) -> float:
            if ref.table in base_stats:  # asks for this column, no other
                return max(1.0,
                           base_stats[ref.table].distinct_count(ref.column))
            default = cards.get(ref.table, 100.0)
            producer = producers.get(ref.table)
            return max(1.0, default if producer is None
                       else producer.distinct_or(ref.column, default))

        cardinality = 1.0
        for alias_card in cards.values():
            cardinality *= alias_card
        input_rows = sum(cards.values())

        for predicate in query.where:
            if isinstance(predicate, Comparison) and predicate.op == "=":
                left, right = predicate.left, predicate.right
                if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
                    if left.table != right.table:
                        cardinality /= max(distinct_of(left),
                                           distinct_of(right))
                    else:
                        cardinality *= 0.1
                elif isinstance(left, ColumnRef):
                    cardinality *= self._equality_selectivity(
                        left, right, base_stats, distinct_of)
                elif isinstance(right, ColumnRef):
                    cardinality *= self._equality_selectivity(
                        right, left, base_stats, distinct_of)
            elif isinstance(predicate, Comparison):
                cardinality *= 0.3  # range predicate heuristic
            else:
                assert isinstance(predicate, InSet)
                cardinality *= 0.5
        cardinality = max(cardinality, 0.0)

        # Each output column's distinct count is read when a consumer's
        # join or this query's DISTINCT asks for it, and not before.
        ceiling = max(cardinality, 1.0)
        resolvers = {}
        row_bytes = 2.0
        for item in query.select:
            if isinstance(item.expr, ColumnRef):
                resolvers[item.alias] = (
                    lambda ref=item.expr: min(distinct_of(ref), ceiling))
            else:
                resolvers[item.alias] = lambda: 1.0
            row_bytes += DEFAULT_COLUMN_BYTES
        output_distinct = LazyDistinct(resolvers)
        if query.distinct:
            bound = 1.0
            for value in output_distinct.values():
                bound *= value
            cardinality = min(cardinality, bound)

        eval_seconds = (self.overhead
                        + self.per_input_row * input_rows
                        + self.per_output_row * cardinality)
        return NodeEstimate(cardinality, row_bytes, eval_seconds,
                            output_distinct)

    def _equality_selectivity(self, column: ColumnRef, other,
                              base_stats: dict, distinct_of) -> float:
        """Selectivity of ``column = <constant/param>``.

        Known constants consult the MCV statistics when present (a popular
        value selects far more rows than 1/V); parameters, whose value is
        unknown at planning time, keep the uniform assumption.
        """
        stats = base_stats.get(column.table)
        if isinstance(other, Literal) and stats is not None:
            return stats.equality_selectivity(column.column, other.value)
        return 1.0 / distinct_of(column)

    def _estimate_product(self, node, estimates: dict[str, NodeEstimate]
                          ) -> NodeEstimate:
        """A product node: its query's rows (priced at their source) times
        the anchor's, formed at the mediator; ``__parent`` takes one value
        per anchor row."""
        query, anchor = (estimates[name] for name in node.inputs)
        cardinality = query.cardinality * anchor.cardinality
        resolvers = {column: (lambda column=column:
                              query.distinct_or(column, query.cardinality))
                     for column in node.output_columns[:-1]}
        resolvers["__parent"] = lambda: max(anchor.cardinality, 1.0)
        eval_seconds = (self.overhead / 5  # mediator-local, no round trip
                        + self.per_input_row * (query.cardinality
                                                + anchor.cardinality)
                        + self.per_output_row * cardinality)
        return NodeEstimate(cardinality, query.row_bytes
                            + DEFAULT_COLUMN_BYTES, eval_seconds,
                            LazyDistinct(resolvers))

    def _estimate_raw(self, node,
                      estimates: dict[str, NodeEstimate]) -> NodeEstimate:
        """Collect/guard nodes: union of inputs / tiny check output."""
        input_cards = [estimates[name].cardinality for name in node.inputs
                       if name in estimates]
        total = sum(input_cards) if input_cards else 1.0
        if node.kind == "guard":
            cardinality = 1.0
        else:
            cardinality = total
        row_bytes = 2.0 + DEFAULT_COLUMN_BYTES * max(
            len(node.output_columns), 1)
        eval_seconds = (self.overhead / 5  # mediator-local, no round trip
                        + self.per_input_row * total
                        + self.per_output_row * cardinality)
        return NodeEstimate(cardinality, row_bytes, eval_seconds)


# ----------------------------------------------------------------------
# comp_time and cost(P): one recurrence, over estimates or measurements
# ----------------------------------------------------------------------
def comp_time(graph, plan, seconds: dict[str, float], size: dict[str, float],
              network: Network, replayed=frozenset()
              ) -> tuple[dict[str, float], float, float]:
    """The paper's ``comp_time`` recurrence; the only copy.

    ``plan`` maps each source to its ordered query sequence (node names),
    ``seconds`` each node to the time it occupies its source, ``size`` each
    result (node or merged member) to its bytes.  A node absent from
    ``seconds`` did not run (replayed from the incremental cache): it
    completes at 0 and occupies no lane, but consumers still pay for its
    output's transfer.  Every node's output
    additionally ships to the mediator when the tagging phase needs it
    (``ship_to_mediator``) — unless ``replayed``, which is there already —
    and that final transfer is part of the response time.

    Returns ``(completion per node, response time, bytes shipped)``.
    """
    completion: dict[str, float] = {}
    lane_free: dict[str, float] = {}
    shipped = 0
    position: dict[str, tuple[str, int]] = {}
    for source, sequence in plan.items():
        for index, name in enumerate(sequence):
            position[name] = (source, index)

    ordered = graph.topological_order()
    # Iterate until fixed: a node is computable when its deps and its
    # same-source predecessor are done.  Scheduling consistency with the
    # graph is required, so a single pass in a merged order suffices.
    pending = {node.name: node for node in ordered}
    progressed = True
    while pending and progressed:
        progressed = False
        for name in list(pending):
            node = pending[name]
            source, index = position[name]
            if index > 0 and plan[source][index - 1] in pending:
                continue
            if any(producer in pending
                   for producer in graph.producer_names(node)):
                continue
            del pending[name]
            progressed = True
            if name not in seconds:
                completion[name] = 0.0
                continue
            start = lane_free.get(source, 0.0)
            # Arrival of each input: the producing (possibly merged) node's
            # completion plus shipping of the consumer's slice.
            for input_name in node.inputs:
                producer_name = graph.resolve(input_name)
                if producer_name == name:
                    continue
                producer = graph.nodes[producer_name]
                slice_bytes = size[input_name] if input_name in size \
                    else size[producer_name]
                if producer.source != node.source:
                    shipped += slice_bytes
                arrival = completion[producer_name] + network.trans_cost(
                    producer.source, node.source, slice_bytes)
                start = max(start, arrival)
            completion[name] = lane_free[source] = start + seconds[name]
    if pending:
        raise PlanError(f"plan is inconsistent with the dependency graph; "
                        f"stuck on {sorted(pending)}")

    response = 0.0
    for node in ordered:
        finish = completion[node.name]
        if (node.ship_to_mediator and node.source != MEDIATOR_NAME
                and node.name not in replayed):
            shipped += size[node.name]
            finish += network.trans_cost(node.source, MEDIATOR_NAME,
                                         size[node.name])
        response = max(response, finish)
    return completion, response, shipped


def plan_cost(graph, plan, estimates: dict[str, NodeEstimate],
              network: Network) -> float:
    """The paper's ``cost(P)``: predicted response time of an execution
    plan, :func:`comp_time` over the cost model's estimates."""
    seconds = {name: estimate.eval_seconds
               for name, estimate in estimates.items()}
    size = {name: estimate.size_bytes for name, estimate in estimates.items()}
    return comp_time(graph, plan, seconds, size, network)[1]


def run_cost(graph, plan, timings: dict, cache: dict, network: Network,
             query_overhead: float = QUERY_OVERHEAD) -> tuple[float, int]:
    """``cost(P)`` of a finished run: :func:`comp_time` over what the engine
    measured (``timings``, its :class:`~repro.runtime.engine.NodeTiming`
    per node; ``cache``, every result by name).  An executed node occupies
    its source for its measured seconds plus the modeled deployment cost,
    from *actual* row counts.  Fills each timing's ``overhead_seconds`` and
    ``completion``; returns ``(response time, bytes shipped)``.
    """
    seconds: dict[str, float] = {}
    replayed = set()
    for name, timing in timings.items():
        if timing.cached:
            replayed.add(name)
            continue
        timing.overhead_seconds = (
            MEDIATOR_OVERHEAD if timing.source == MEDIATOR_NAME
            else query_overhead + PER_INPUT_ROW * timing.rows_materialized
            + PER_OUTPUT_ROW * timing.output_rows)
        seconds[name] = timing.eval_seconds + timing.overhead_seconds
    size = {name: result.width_bytes() for name, result in cache.items()}
    for node in graph.nodes.values():
        if getattr(node, "members", None):  # ships its members' slices
            size[node.name] = sum(size[member.name]
                                  for member in node.members)
    completion, response, shipped = comp_time(graph, plan, seconds, size,
                                              network, replayed)
    for name, timing in timings.items():
        timing.completion = completion[name]
    return response, shipped

"""Plan execution: one statement at a time, in one dispatch order.

:func:`dispatch_order` turns the
:class:`~repro.optimizer.qdg.QueryDependencyGraph` and the plan's static
per-source schedules (Algorithm Schedule) into the linear order a run
issues its nodes in; :meth:`PlanExecutor.run` is one loop over that order on
the calling thread, stepping over nodes replayed from the incremental
cache.  The paper's inter-source parallelism is the
cost model's (:func:`repro.optimizer.cost.comp_time`); per-source worker
lanes were measured against this loop and won on no workload
(docs/INTERNALS.md, "Execution order").

There is one clock here, the real one: a node records what was measured
(seconds, rows, bytes) and nothing else.  The simulated ``response_time``
is computed from those records after the run (:meth:`Engine.run
<repro.runtime.engine.Engine.run>`).
"""

from __future__ import annotations

import logging
import time

from repro.errors import (
    EvaluationAborted,
    PlanError,
    SourceUnavailableError,
)
from repro.relational.source import ResultSet
from repro.resilience.deadline import QueryDeadlineExceeded
from repro.runtime.collect import describe_witness
from repro.runtime.engine import EngineResult, NodeTiming
from repro.runtime.incremental import CachedNodeResult

logger = logging.getLogger("repro.executor")

#: Trace-span category per QDG node kind (see docs/OBSERVABILITY.md).
SPAN_CATEGORY = {"step": "query", "merged": "query", "collect": "collect",
                 "condition": "condition", "guard": "guard",
                 "product": "product"}


def dispatch_order(graph, plan: dict) -> list[str]:
    """Every node of ``graph`` once, after all of its producers and in its
    source's schedule order: the first source (in plan order) whose next
    scheduled node has every producer placed goes next.

    Raises :class:`PlanError` for a node no schedule lists and for a
    schedule that contradicts an edge — before a run issues anything.
    """
    sequences = [[name for name in sequence if name in graph.nodes]
                 for sequence in plan.values()]
    scheduled = {name for sequence in sequences for name in sequence}
    unscheduled = sorted(graph.nodes.keys() - scheduled)
    if unscheduled:
        raise PlanError(f"plan does not schedule node {unscheduled[0]!r}")
    in_degree = {name: len(graph.producer_names(node))
                 for name, node in graph.nodes.items()}
    consumers = _consumers(graph)
    heads = [0] * len(sequences)
    order: list[str] = []
    while len(order) < len(scheduled):
        for lane, sequence in enumerate(sequences):
            if (heads[lane] < len(sequence)
                    and in_degree[sequence[heads[lane]]] == 0):
                break
        else:
            raise PlanError(
                f"schedule contradicts the dependency graph; pending nodes "
                f"{sorted(scheduled.difference(order))}")
        name = sequence[heads[lane]]
        heads[lane] += 1
        order.append(name)
        for consumer in consumers[name]:
            in_degree[consumer] -= 1
    return order


def _consumers(graph) -> dict[str, list[str]]:
    """Node name -> names of the nodes that read its output."""
    consumers: dict[str, list[str]] = {name: [] for name in graph.nodes}
    for name, node in graph.nodes.items():
        for producer in graph.producer_names(node):
            consumers[producer].append(name)
    return consumers


class PlanExecutor:
    """Runs one engine invocation; holds no state across runs."""

    def __init__(self, engine):
        self.engine = engine

    def run(self, root_inh: dict, run_span) -> EngineResult:
        """Execute every node; ``run_span`` is the engine's open
        ``execute`` span, parent of the per-node spans."""
        engine = self.engine
        graph = engine.graph
        tracer = engine.tracer
        metrics = tracer.metrics
        started = time.perf_counter()
        order = dispatch_order(graph, engine.plan)
        reuse = engine.reuse         # replayed from the incremental cache
        lane_of = {name: lane for lane, sequence in engine.plan.items()
                   for name in sequence}

        # --- run state -------------------------------------------------
        cache: dict[str, ResultSet] = {}
        timings: dict[str, NodeTiming] = {}
        shipped: dict[tuple[str, str], str] = {}
        queries = 0
        violations: list = []
        cache_entries: dict[str, CachedNodeResult] = {}

        def complete(node, outputs: dict, eval_seconds: float = 0.0,
                     rows_materialized: int = 0, cached: bool = False,
                     span=None) -> int:
            """Keep a node's outputs and timing record (returns the rows it
            put out); a guard that found a witness is a violation, and the
            witness goes on its ``span`` and into the warning."""
            cache.update(outputs)
            results = _put_out(node, outputs)
            output_rows = sum(map(len, results))
            timings[node.name] = NodeTiming(
                node.name, node.source, eval_seconds, 0.0, output_rows,
                sum(r.width_bytes() for r in results),
                rows_materialized, cached=cached)
            primary = outputs.get(node.name)
            if node.kind == "guard" and primary is not None and len(primary):
                witness = describe_witness(node, primary)
                if span is not None:
                    span.set(witness=witness)
                logger.warning("constraint guard %s found a violation of "
                               "%s: %s", node.name, node.guard.constraint,
                               witness)
                if engine.violation_mode == "abort":
                    raise EvaluationAborted([node.guard.constraint])
                violations.append(node.guard.constraint)
            return output_rows

        def execute(name: str, node) -> None:
            nonlocal queries
            # The span *is* the busy stopwatch (one timing source of
            # truth): ``lane_busy_seconds`` is its duration, and with a
            # recording tracer the same interval renders on the source's
            # track.
            lane = lane_of[name]
            span = tracer.span(name, SPAN_CATEGORY.get(node.kind, "query"),
                               track=lane, parent=run_span,
                               source=node.source, kind=node.kind)
            with span:
                try:
                    eval_seconds, outputs, rows = engine._execute(
                        node, cache, root_inh, shipped=shipped)
                except SourceUnavailableError as error:
                    if isinstance(error.__cause__, QueryDeadlineExceeded):
                        metrics.add("deadline_aborts", 1)
                    raise
                span.set(eval_seconds=eval_seconds, rows_materialized=rows,
                         output_rows=sum(map(len, _put_out(node, outputs))))
            queries += 1
            metrics.add(f"lane_busy_seconds.{lane}", span.duration)
            metrics.observe("node_latency_seconds", eval_seconds)
            metrics.observe(f"node_latency_seconds.{lane}", eval_seconds)
            if engine.fingerprints is not None:
                fingerprint = engine.fingerprints.get(name)
                if fingerprint is not None:
                    cache_entries[name] = CachedNodeResult(fingerprint,
                                                           dict(outputs))
                    metrics.add("incremental_cache_misses", 1)
            output_rows = complete(node, outputs, eval_seconds, rows,
                                   span=span)
            logger.debug("completed %s on %s: %d row(s), %.4fs eval",
                         name, lane, output_rows, eval_seconds)

        # --- main loop -------------------------------------------------
        try:
            # Incremental replay (docs/INCREMENTAL.md): clean nodes form a
            # downward-closed cone of the DAG (a reused node's producers
            # are reused — fingerprints chain upstream), so all of them
            # are replayed up front in topological order — no query runs,
            # no source is occupied — and the loop below only ever issues
            # tainted nodes.
            if reuse:
                for node in graph.topological_order():
                    if node.name in reuse:
                        rows = complete(node, dict(reuse[node.name].outputs),
                                        cached=True)
                        metrics.add("incremental_cache_hits", 1)
                        logger.debug("replayed %s from the incremental "
                                     "cache (%d row(s))", node.name, rows)
                logger.info("incremental replay: %d node(s) reused, "
                            "%d tainted", len(reuse), len(order) - len(reuse))
            for name in order:
                if name in reuse:
                    continue
                execute(name, graph.nodes[name])
        finally:
            # Failure-path hygiene: shipped temp tables from completed steps
            # must not outlive the run (a mid-plan abort used to strand
            # ``__ship_N`` tables on every target source).
            _drop_shipped_tables(engine.sources, shipped)

        measured = time.perf_counter() - started
        metrics.add("queries_executed", queries)
        metrics.add("rows_emitted",
                    sum(t.output_rows for t in timings.values()))
        metrics.add("rows_materialized",
                    sum(t.rows_materialized for t in timings.values()))
        metrics.add("violations_found", len(violations))
        run_span.set(queries=queries)
        if engine.fingerprints is not None:
            run_span.set(reused_nodes=len(reuse))
        logger.info("executed %d node(s) on %d source(s): %.3fs wall",
                    queries, len(engine.plan), measured)
        # response_time: modeled, so not known here — Engine.run fills it.
        return EngineResult(
            cache=cache, timings=timings, response_time=0.0,
            measured_seconds=measured, queries_executed=queries,
            violations=violations, reused_nodes=len(reuse),
            cache_entries=cache_entries)


def _put_out(node, outputs: dict) -> list[ResultSet]:
    """The results a node put out: a merged node's member slices, without
    its bookkeeping entry (:func:`~repro.runtime.engine.merged_entry`)."""
    members = getattr(node, "members", None)
    if members:
        return [outputs[member.name] for member in members]
    return list(outputs.values())


def _drop_shipped_tables(sources: dict, shipped: dict) -> None:
    """Best-effort drop of this run's shipped temp tables (ship-once
    registry), so sources end the run with the table set they started with
    even when the plan aborted mid-flight."""
    for (source_name, _), table in sorted(shipped.items()):
        source = sources.get(source_name)
        if source is None:
            continue
        try:
            source.drop_table(table)
        except Exception as error:  # noqa: BLE001 — cleanup must not mask
            logger.warning("cleanup of shipped table %r on %s failed: %s",
                           table, source_name, error)
    shipped.clear()


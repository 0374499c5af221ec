"""Event-driven plan execution: sequential and concurrent (one lane per
source).

The coordinator replaces the engine's former O(n²) retry loop with a
ready-queue over the :class:`~repro.optimizer.qdg.QueryDependencyGraph`:
producer→consumer edges are counted once up front, every completion event
decrements its consumers' in-degrees, and a node is dispatched the moment
its producers are done and its *lane* (the executing data source) is free.
Lanes are single-flight — at most one query runs against a source at a
time, matching both SQLite's comfort zone and the paper's model of one
query processor per site.

Each lane follows the plan's static per-source schedule (Algorithm
Schedule); two execution modes share the coordinator:

* ``workers=1`` — every task runs inline on the calling thread, using each
  source's main connection.

* ``workers>1`` (or ``"auto"``, one per source) — a pool of worker threads
  drains a task queue; each busy lane holds a leased pooled connection
  (see :meth:`~repro.relational.source.DataSource.acquire_connection`), so
  independent sources genuinely overlap.  Completion events arrive on a
  FIFO queue.

There is one clock here, the real one: a completion records what was
measured (seconds, rows, bytes) and nothing else.  The simulated
``response_time`` is computed from those records after the run
(:meth:`Engine.run <repro.runtime.engine.Engine.run>`); it depends only on
per-source order and the measurements, not on real interleaving, so it is
the same function of them under either mode.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from dataclasses import dataclass, field

from repro.errors import (
    EvaluationAborted,
    EvaluationError,
    PlanError,
    SourceUnavailableError,
)
from repro.relational.source import MEDIATOR_NAME, ResultSet, intern_columns
from repro.resilience.report import DegradedSubtree, FailureReport
from repro.resilience.retry import QueryDeadlineExceeded, is_transient
from repro.runtime.engine import ID_COLUMN, EngineResult, NodeTiming
from repro.runtime.incremental import CachedNodeResult

logger = logging.getLogger("repro.executor")

#: Trace-span category per QDG node kind (see docs/OBSERVABILITY.md).
SPAN_CATEGORY = {"step": "query", "merged": "query", "collect": "collect",
                 "condition": "condition", "guard": "guard"}


def resolve_workers(workers, graph) -> int:
    """Resolve a ``workers`` setting (positive int or ``"auto"``) against a
    concrete graph; ``"auto"`` means one lane per participating source."""
    if workers == "auto":
        return max(1, len(graph.sources()))
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise PlanError(
            f"workers must be a positive integer or 'auto', got {workers!r}")
    if workers < 1:
        raise PlanError(f"workers must be >= 1, got {workers}")
    return workers


@dataclass
class _Task:
    """One dispatched node: executed by a worker (or inline)."""

    lane: str
    name: str
    node: object


@dataclass
class _Completion:
    """A finished task, reported back to the coordinator."""

    lane: str
    name: str
    node: object
    eval_seconds: float = 0.0
    outputs: dict = field(default_factory=dict)
    rows_materialized: int = 0
    busy_seconds: float = 0.0    # wall time the lane was occupied
    error: BaseException | None = None
    from_cache: bool = False     # replayed from the incremental cache


class PlanExecutor:
    """Runs one engine invocation; holds no state across runs."""

    def __init__(self, engine):
        self.engine = engine
        self.graph = engine.graph
        self.workers = resolve_workers(engine.workers, engine.graph)

    # ------------------------------------------------------------------
    def run(self, root_inh: dict, run_span) -> EngineResult:
        """Execute every node; ``run_span`` is the engine's open
        ``execute`` span, parent of the per-node lane spans."""
        engine = self.engine
        graph = self.graph
        tracer = engine.tracer
        metrics = tracer.metrics
        started = time.perf_counter()
        pool_baseline = _pool_stats(engine.sources)

        lane_sequences: dict[str, list[str]] = {}
        lane_of: dict[str, str] = {}
        for lane, sequence in engine.plan.items():
            members = [name for name in sequence if name in graph.nodes]
            lane_sequences[lane] = members
            lane_of.update((name, lane) for name in members)
        for node_name in graph.nodes:
            if node_name not in lane_of:
                raise PlanError(
                    f"plan does not schedule node {node_name!r}")
        lane_order = list(lane_sequences)
        lane_pos = {lane: 0 for lane in lane_order}

        # --- ready-queue bookkeeping ----------------------------------
        indegree: dict[str, int] = {}
        consumers: dict[str, list[str]] = {name: [] for name in graph.nodes}
        for name, node in graph.nodes.items():
            producers = graph.producer_names(node)
            indegree[name] = len(producers)
            for producer in producers:
                consumers[producer].append(name)
        ready = {name for name, degree in indegree.items() if degree == 0}

        # --- run state -------------------------------------------------
        cache: dict[str, ResultSet] = {}
        timings: dict[str, NodeTiming] = {}
        shipped: dict[tuple[str, str], str] = {}
        in_flight: dict[str, str] = {}          # lane -> node name
        remaining = set(graph.nodes)
        queries = 0
        busy_total = 0.0
        violations: list = []

        threaded = (self.workers > 1 and len(lane_order) > 1
                    and len(graph.nodes) > 1)
        worker_count = min(self.workers, len(lane_order)) if threaded else 1
        task_queue: queue.SimpleQueue = queue.SimpleQueue()
        done_queue: queue.SimpleQueue = queue.SimpleQueue()
        stop = threading.Event()
        threads: list[threading.Thread] = []
        connections: dict[str, object] = {}   # lane leases (threaded mode)
        skipped: set[str] = set()
        reused: set[str] = set()     # replayed from the incremental cache
        cache_entries: dict[str, CachedNodeResult] = {}
        failure_report: FailureReport | None = None
        retry_count = 0
        retry_count_lock = threading.Lock()  # incremented from worker threads

        def attempt_node(task: _Task, span):
            """``engine._execute`` under the retry policy and breaker.

            Transient failures (see :func:`repro.resilience.retry.
            is_transient`) are retried with deterministic backoff; every
            attempt's outcome feeds the source's circuit breaker, and an
            open breaker short-circuits remaining attempts.
            """
            nonlocal retry_count
            node = task.node
            policy = engine.retry_policy
            attempts = policy.attempts if policy is not None else 1
            breaker = engine.breaker_for(node.source)
            last_error: BaseException | None = None
            for attempt in range(1, attempts + 1):
                if breaker is not None and breaker.blocked():
                    raise SourceUnavailableError(
                        f"source {node.source!r}: circuit breaker is "
                        f"{breaker.state}; refusing {task.name!r}"
                    ) from last_error
                try:
                    result = engine._execute(
                        node, cache, root_inh,
                        connection=connections.get(node.source),
                        shipped=shipped)
                except Exception as error:
                    last_error = error
                    if breaker is not None:
                        breaker.record_failure()
                    if _caused_by(error, QueryDeadlineExceeded):
                        metrics.add("deadline_aborts", 1)
                    if attempt < attempts and is_transient(error):
                        delay = policy.delay(attempt, task.name)
                        with retry_count_lock:
                            retry_count += 1
                        metrics.add("retry_attempts", 1)
                        metrics.add(f"retry_attempts.{node.source}", 1)
                        span.set(retried=attempt)
                        logger.warning(
                            "node %s on %s failed (attempt %d/%d): %s; "
                            "retrying in %.3fs", task.name, node.source,
                            attempt, attempts, error, delay)
                        time.sleep(delay)
                        continue
                    if attempt > 1:
                        metrics.add("retries_exhausted", 1)
                    raise
                else:
                    if breaker is not None:
                        breaker.record_success()
                    if attempt > 1:
                        metrics.add("retry_recoveries", 1)
                        span.set(recovered_after_retries=attempt - 1)
                    return result
            raise AssertionError("unreachable")  # pragma: no cover

        def perform(task: _Task) -> _Completion:
            # The span *is* the lane-busy stopwatch (one timing source of
            # truth): ``busy_seconds`` below is its duration, and with a
            # recording tracer the same interval renders on the lane track.
            span = tracer.span(task.name, SPAN_CATEGORY.get(task.node.kind,
                                                            "query"),
                               track=task.lane, parent=run_span,
                               source=task.node.source, kind=task.node.kind)
            error: BaseException | None = None
            eval_seconds, outputs, rows = 0.0, {}, 0
            with span:
                try:
                    eval_seconds, outputs, rows = attempt_node(task, span)
                    span.set(eval_seconds=eval_seconds,
                             rows_materialized=rows,
                             output_rows=sum(len(r)
                                             for r in outputs.values()))
                except BaseException as exc:  # reported, re-raised centrally
                    error = exc
            if error is not None:
                return _Completion(task.lane, task.name, task.node,
                                   busy_seconds=span.duration, error=error)
            return _Completion(task.lane, task.name, task.node,
                               eval_seconds, outputs, rows, span.duration)

        def worker_loop():
            while True:
                task = task_queue.get()
                if task is None:
                    return
                if stop.is_set():
                    continue
                done_queue.put(perform(task))

        def select_dispatches() -> list[tuple[str, str]]:
            picks: list[tuple[str, str]] = []
            for lane in lane_order:
                if lane in in_flight:
                    continue
                sequence = lane_sequences[lane]
                pos = lane_pos[lane]
                while pos < len(sequence) and (
                        sequence[pos] in skipped
                        or sequence[pos] in reused):
                    pos += 1   # degraded/cache-replayed nodes never dispatch
                lane_pos[lane] = pos
                if pos < len(sequence) and sequence[pos] in ready:
                    picks.append((lane, sequence[pos]))
            return picks

        def dispatch(lane: str, name: str) -> _Task:
            node = graph.nodes[name]
            ready.discard(name)
            lane_pos[lane] += 1
            in_flight[lane] = name
            return _Task(lane, name, node)

        def shut_down():
            if not threads:
                return
            stop.set()
            for _ in threads:
                task_queue.put(None)
            for thread in threads:
                thread.join()

        def consumer_closure(name: str) -> list[str]:
            """``name`` plus every transitive consumer (all not yet run)."""
            closure = [name]
            seen = {name}
            frontier = [name]
            while frontier:
                for consumer in consumers[frontier.pop()]:
                    if consumer not in seen:
                        seen.add(consumer)
                        closure.append(consumer)
                        frontier.append(consumer)
            return closure

        def try_degrade(done: _Completion) -> bool:
            """Skip the failed node's subtree if the DTD allows its absence.

            Degradation is legal only when every tagging table the closure
            would have produced belongs to a star iteration occurrence
            (``e*`` — zero instances conform) and no choice-condition node
            is lost (a missing selector cannot be tagged around).  Guards in
            the closure are skipped but reported as *unchecked*.
            """
            nonlocal failure_report
            error = done.error
            if engine.on_source_failure != "degrade":
                return False
            if isinstance(error, EvaluationAborted):
                return False         # a real constraint violation: surface it
            if not (isinstance(error, SourceUnavailableError)
                    or (isinstance(error, EvaluationError)
                        and is_transient(error))):
                return False         # logic/plan errors are never degradable
            plan_info = engine.tagging_plan
            if plan_info is None:
                logger.error("on_source_failure='degrade' needs the tagging "
                             "plan to prove subtree optionality; aborting")
                return False
            closure = consumer_closure(done.name)
            table_paths: dict[str, list[str]] = {}
            for path, producer in plan_info.table_of.items():
                table_paths.setdefault(graph.resolve(producer),
                                       []).append(path)
            condition_nodes = {graph.resolve(producer)
                               for producer in plan_info.condition_of.values()}
            subtrees: list[DegradedSubtree] = []
            unchecked: list[str] = []
            for name in closure:
                if name in condition_nodes:
                    logger.error("cannot degrade %s: choice condition %s "
                                 "would be lost", done.name, name)
                    return False
                node = graph.nodes[name]
                if node.kind == "guard":
                    unchecked.append(str(node.guard.constraint))
                    continue
                for path in table_paths.get(name, ()):
                    occurrence = plan_info.tree.by_path[path]
                    if occurrence.kind != "star":
                        logger.error(
                            "cannot degrade %s: subtree at %s is required "
                            "by the DTD (%s occurrence)", done.name, path,
                            occurrence.kind)
                        return False
                    subtrees.append(DegradedSubtree(
                        path, occurrence.element_type, name))
            if failure_report is None:
                failure_report = FailureReport()
            failure_report.failed_nodes[done.name] = (
                f"{type(error).__name__}: {error}")
            if (done.node.source != MEDIATOR_NAME and done.node.source
                    not in failure_report.sources_down):
                failure_report.sources_down.append(done.node.source)
            for name in closure:
                skipped.add(name)
                for out_name, result in _empty_outputs(
                        graph.nodes[name]).items():
                    cache[out_name] = result
                remaining.discard(name)
                ready.discard(name)
                for consumer in consumers[name]:
                    indegree[consumer] -= 1
            failure_report.skipped_nodes.extend(closure)
            failure_report.degraded_subtrees.extend(subtrees)
            for constraint in unchecked:
                if constraint not in failure_report.unchecked_guards:
                    failure_report.unchecked_guards.append(constraint)
            metrics.add("nodes_skipped", len(closure))
            metrics.add("subtrees_degraded", len(subtrees))
            metrics.add("guards_unchecked", len(unchecked))
            logger.warning(
                "degrading after failure of %s on %s: skipping %d node(s), "
                "%d subtree(s) emitted empty, %d guard(s) unchecked (%s)",
                done.name, done.node.source, len(closure), len(subtrees),
                len(unchecked), error)
            return True

        def process(done: _Completion):
            nonlocal queries, busy_total
            in_flight.pop(done.lane, None)
            if done.error is not None:
                if try_degrade(done):
                    return
                raise done.error
            node = done.node
            for out_name, result in done.outputs.items():
                cache[out_name] = result
            output_rows = sum(len(r) for r in done.outputs.values())
            output_bytes = sum(r.width_bytes()
                               for r in done.outputs.values())
            if done.from_cache:
                # No query ran and no lane was occupied.
                timings[done.name] = NodeTiming(
                    done.name, node.source, 0.0, 0.0,
                    output_rows, output_bytes, cached=True)
                metrics.add("incremental_cache_hits", 1)
                logger.debug("replayed %s from the incremental cache "
                             "(%d row(s))", done.name, output_rows)
            else:
                queries += 1
                busy_total += done.busy_seconds
                timings[done.name] = NodeTiming(
                    done.name, node.source, done.eval_seconds, 0.0,
                    output_rows, output_bytes, done.rows_materialized)
                metrics.add(f"lane_busy_seconds.{done.lane}",
                            done.busy_seconds)
                metrics.observe("node_latency_seconds", done.eval_seconds)
                metrics.observe(f"node_latency_seconds.{done.lane}",
                                done.eval_seconds)
                logger.debug("completed %s on %s: %d row(s), %.4fs eval",
                             done.name, done.lane, output_rows,
                             done.eval_seconds)
                if engine.fingerprints is not None:
                    fingerprint = engine.fingerprints.get(done.name)
                    if fingerprint is not None:
                        cache_entries[done.name] = CachedNodeResult(
                            fingerprint, dict(done.outputs))
                        metrics.add("incremental_cache_misses", 1)
            primary = done.outputs.get(done.name)
            if node.kind == "guard" and primary is not None and len(primary):
                logger.warning("constraint guard %s found a violation of %s",
                               node.name, node.guard.constraint)
                if engine.violation_mode == "abort":
                    raise EvaluationAborted([node.guard.constraint])
                violations.append(node.guard.constraint)
            remaining.discard(done.name)
            for consumer in consumers[done.name]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0 and consumer not in skipped:
                    ready.add(consumer)

        # --- main loop -------------------------------------------------
        try:
            # Incremental replay (docs/INCREMENTAL.md): clean nodes form a
            # downward-closed cone of the DAG (a reused node's producers
            # are reused — fingerprints chain upstream), so all of them
            # can be processed up front in topological order.  The ready
            # queue below then only ever dispatches tainted nodes.
            if engine.reuse:
                for node in graph.topological_order():
                    entry = engine.reuse.get(node.name)
                    if entry is None:
                        continue
                    ready.discard(node.name)
                    reused.add(node.name)
                    process(_Completion(
                        lane_of[node.name], node.name, node,
                        outputs=dict(entry.outputs), from_cache=True))
                logger.info("incremental replay: %d node(s) reused, "
                            "%d tainted", len(reused), len(remaining))
            if not remaining:
                threaded = False
            if threaded:
                for source_name in sorted(
                        {graph.nodes[name].source for name in remaining}):
                    source = engine.sources.get(source_name)
                    if source is not None:
                        connections[source_name] = source.acquire_connection()
                threads = [threading.Thread(target=worker_loop,
                                            name=f"repro-exec-{index}",
                                            daemon=True)
                           for index in range(worker_count)]
                for thread in threads:
                    thread.start()
            while remaining:
                picks = select_dispatches()
                if not picks and not in_flight:
                    raise PlanError(
                        f"execution stuck; pending nodes {sorted(remaining)}")
                # The dispatcher peeks at each lane's circuit breaker first
                # (the non-leasing would_block — attempt_node's blocked()
                # call is the one that claims the half-open probe): nodes
                # bound for an open source fail immediately (and, in
                # degrade mode, skip their subtree) without occupying a
                # worker or waiting out retries.
                rejected: list[_Completion] = []
                accepted: list[_Task] = []
                for lane, name in (picks if threaded else picks[:1]):
                    node = graph.nodes[name]
                    breaker = engine.breaker_for(node.source)
                    task = dispatch(lane, name)
                    if breaker is not None and breaker.would_block():
                        rejected.append(_Completion(
                            lane, name, node,
                            error=SourceUnavailableError(
                                f"source {node.source!r}: circuit breaker "
                                f"is {breaker.state}; refusing {name!r}")))
                        continue
                    accepted.append(task)
                for completion in rejected:
                    process(completion)
                if threaded:
                    for task in accepted:
                        task_queue.put(task)
                    if not rejected and in_flight:
                        process(done_queue.get())
                elif accepted:
                    process(perform(accepted[0]))
        finally:
            shut_down()
            for source_name, connection in connections.items():
                engine.sources[source_name].release_connection(connection)
            # Failure-path hygiene: shipped temp tables from completed steps
            # must not outlive the run (a mid-plan abort used to strand
            # ``__ship_N`` tables on every target source).
            _drop_shipped_tables(engine.sources, shipped)

        measured = time.perf_counter() - started
        speedup = busy_total / measured if measured > 0 else 1.0
        metrics.add("queries_executed", queries)
        metrics.add("rows_emitted",
                    sum(t.output_rows for t in timings.values()))
        metrics.add("rows_materialized",
                    sum(t.rows_materialized for t in timings.values()))
        metrics.add("violations_found", len(violations))
        pool_hits, pool_misses = _pool_stats(engine.sources)
        metrics.add("connection_pool_hits", pool_hits - pool_baseline[0])
        metrics.add("connection_pool_misses",
                    pool_misses - pool_baseline[1])
        metrics.set_gauge("workers", self.workers)
        if failure_report is not None:
            failure_report.retry_attempts = retry_count
            metrics.add("degraded_runs", 1)
            run_span.set(degraded=True,
                         skipped_nodes=len(failure_report.skipped_nodes))
            logger.warning("run degraded: %s", failure_report.summary())
        run_span.set(queries=queries)
        if engine.fingerprints is not None:
            run_span.set(reused_nodes=len(reused))
        logger.info("executed %d node(s) on %d lane(s): %.3fs wall",
                    queries, len(lane_order), measured)
        # response_time: modeled, so not known here — Engine.run fills it.
        return EngineResult(cache=cache, timings=timings,
                            response_time=0.0,
                            measured_seconds=measured,
                            queries_executed=queries,
                            violations=violations,
                            parallel_speedup=speedup,
                            workers=self.workers,
                            failure_report=failure_report,
                            reused_nodes=len(reused),
                            cache_entries=cache_entries)


def _empty_outputs(node) -> dict[str, ResultSet]:
    """Schema-correct empty results for a skipped node (degradation).

    Shapes match what :meth:`Engine._execute` would have produced — the
    ``__id`` path-encoding column appended, one slice per merged member —
    so tagging and downstream bookkeeping are oblivious to the skip.
    """
    members = getattr(node, "members", None)
    if members:
        outputs = {member.name: ResultSet(
            intern_columns(list(member.output_columns) + [ID_COLUMN]), [])
            for member in members}
        outputs[node.name] = ResultSet(["__tag"], [])
        return outputs
    return {node.name: ResultSet(
        intern_columns(list(node.output_columns) + [ID_COLUMN]), [])}


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


def _caused_by(error: BaseException, exc_type: type) -> bool:
    """Does ``error`` or its ``__cause__`` chain contain ``exc_type``?"""
    seen = set()
    current: BaseException | None = error
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if isinstance(current, exc_type):
            return True
        current = current.__cause__
    return False


def _pool_stats(sources: dict) -> tuple[int, int]:
    """Summed (pool hits, pool misses) across a run's data sources."""
    hits = sum(getattr(source, "pool_hits", 0)
               for source in sources.values())
    misses = sum(getattr(source, "pool_misses", 0)
                 for source in sources.values())
    return hits, misses

"""The AIG middleware facade (Fig. 5).

``Middleware.evaluate`` runs the four phases end to end:

1. **pre-processing** — recursion unfolding to the depth estimate
   (Section 5.5), constraint compilation, multi-source decomposition, copy
   elimination / occurrence analysis (Sections 3.3–3.4, 4);
2. **optimization** — query-dependency-graph construction, cost estimation,
   Algorithm Merge + Algorithm Schedule (Sections 5.2–5.4; merging can be
   disabled to reproduce the Fig. 10 baseline);
3. **execution** — the plan's static per-source schedules run against the
   real SQLite sources; communication is simulated (Section 5.1);
4. **tagging** — cached relations are sort-merged into the final document,
   unfolding suffixes stripped, so the output conforms to the original DTD.
   One path, ``Middleware._run``, binds the tagging program to the run;
   ``evaluate_stream`` drives it into its writer, ``evaluate`` hands it
   back as an unread root that a reader writes, builds or counts.

If the recursion turned out deeper than estimated — the deepest unfolded
level still finds expandable nodes — the run is repeated with a larger
depth, mirroring the paper's runtime re-unrolling loop.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field

from repro.errors import (
    EvaluationError,
    RecursionDepthExceeded,
    RecursionTruncated,
)
from repro.dtd.analysis import base_name, recursive_types
from repro.obs.tracer import NULL_TRACER
from repro.relational.network import Network
from repro.relational.source import DataSource, Mediator
from repro.relational.statistics import StatisticsCatalog
from repro.xmlmodel.node import XMLElement
from repro.xmlmodel.serialize import StreamSerializer
from repro.aig.grammar import AIG
from repro.runtime.engine import Engine, EngineResult
from repro.runtime.incremental import (
    ResultCache,
    compute_fingerprints,
    plan_increment,
)
from repro.runtime.prepared import PreparedPlan, explain_plan, prepare_plan
from repro.runtime.tagging import (NullEventSink, TaggingRun,
                                   pending_document, tagging_program,
                                   traced_tagging)

logger = logging.getLogger("repro.middleware")


@dataclass(kw_only=True)
class _Report:
    """What every evaluation did and how long it (would have) taken."""

    response_time: float            # simulated seconds (eval + comm)
    estimated_cost: float           # optimizer's predicted cost(P)
    measured_seconds: float         # actual wall time of execution phase
    queries_executed: int
    bytes_shipped: int
    node_count: int                 # QDG size after optimization
    merged: bool
    unfold_depth: int | None
    #: Report-mode findings: single-process, the violated ``Constraint``s
    #: (the guards that fired); sharded, the located ``Violation``s of the
    #: reconciled verdict, as ``check_constraints`` lists them.
    violations: list = field(default_factory=list)
    #: Incremental re-evaluation (``Middleware(incremental=True)``, see
    #: docs/INCREMENTAL.md): nodes replayed from the result cache and
    #: nodes found tainted (0/0 when the feature is off or the cache is
    #: cold at this depth).
    reused_nodes: int = 0
    tainted_nodes: int = 0


@dataclass(kw_only=True)
class ExecutionReport(_Report):
    """What one middleware evaluation (``evaluate``) did: the document.

    ``document`` is a root whose content is not made yet: it holds the
    tagging program bound to the run's result sets (:class:`~repro.
    runtime.tagging.PendingDocument`).  ``serialize`` writes it by the
    ``evaluate_stream`` path, the first structural read builds the tree
    and keeps it, ``size`` counts it; a later source write changes none.
    """

    document: XMLElement
    optimization_seconds: float = 0.0
    #: Sharded evaluation (``Middleware(shards=N)``, docs/SHARDING.md):
    #: worker-process count of the run (1 = single-process path), rows of
    #: the driving query each shard evaluated, parent-side reconcile wall
    #: time, pickled bytes shipped to/from workers and per-shard worker
    #: peak RSS (KiB).
    shards: int = 1
    shard_rows: list = field(default_factory=list)
    reconcile_seconds: float = 0.0
    ipc_bytes: int = 0
    shard_peak_rss: list = field(default_factory=list)


@dataclass(kw_only=True)
class StreamReport(_Report):
    """What one streaming evaluation (``evaluate_stream``) did.

    No ``document``: the tree is never materialized — serialized bytes went
    straight to the caller's writer.  ``constraint_violations`` holds the
    streaming checker's verdicts when constraints were passed (identical to
    ``check_constraints`` over the materialized document).
    """

    elements: int                   # elements streamed
    characters: int                 # characters written
    constraint_violations: list = field(default_factory=list)


class _ByteCount:
    """A writer counting the UTF-8 bytes of what passes through it to
    ``deliver`` (an ASCII chunk is as many bytes as characters)."""

    def __init__(self, deliver=None):
        self.deliver = deliver
        self.bytes = 0

    def write(self, chunk: str) -> None:
        self.bytes += (len(chunk) if chunk.isascii()
                       else len(chunk.encode("utf-8")))
        if self.deliver is not None:
            self.deliver(chunk)


@dataclass
class _Run:
    """What one successful pass of the evaluation driver produced, for
    :meth:`Middleware.evaluate` / ``evaluate_stream`` to report from."""

    plan: PreparedPlan
    result: EngineResult
    taken: object                   # what the caller made of the tagging run
    optimization_seconds: float
    metrics_before: dict | None     # ledger baseline (None = no ledger)
    report: dict                    # fields both report types share


class Middleware:
    """Evaluates an AIG against a set of data sources."""

    def __init__(self, aig: AIG, sources: dict[str, DataSource],
                 network: Network | None = None,
                 merging: bool = True,
                 unfold_depth: int | str = 4,
                 max_unfold_depth: int = 64,
                 violation_mode: str = "abort",
                 tracer=None,
                 deadline: float | None = None,
                 incremental: bool = False,
                 ledger=None,
                 shards: int = 1):
        #: Observability handle (see :mod:`repro.obs`): a recording
        #: :class:`~repro.obs.Tracer` captures per-stage spans and metrics
        #: for every evaluation; the default no-op tracer leaves the hot
        #: path unchanged.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.aig = aig
        self.sources = sources
        self.network = network or Network()
        #: Reads nothing yet: the ``prepare`` that asks for a statistic does.
        self.stats = StatisticsCatalog.from_sources(list(sources.values()))
        self._chain_depth: tuple = (None, None)  # (table versions, depth)
        # Every knob is checked here, so a bad value (a service tenant's
        # JSON config) is refused at construction, never at a run.
        def positive(value) -> bool:
            return type(value) is int and value > 0
        for name, value, ok, expected in (
                ("merging", merging, type(merging) is bool, "true or false"),
                ("incremental", incremental, type(incremental) is bool,
                 "true or false"),
                ("unfold_depth", unfold_depth, unfold_depth == "auto"
                 or positive(unfold_depth), "a positive integer or 'auto'"),
                ("max_unfold_depth", max_unfold_depth,
                 positive(max_unfold_depth), "a positive integer"),
                ("shards", shards, positive(shards), "a positive integer"),
                ("violation_mode", violation_mode,
                 violation_mode in ("abort", "report"),
                 "'abort' or 'report'"),
                ("deadline", deadline, deadline is None or (
                    type(deadline) in (int, float) and deadline > 0),
                 "a positive number of seconds or null")):
            if not ok:
                raise EvaluationError(
                    f"{name} must be {expected}, got {value!r}")
        self.merging = merging
        self.unfold_depth = unfold_depth
        self.max_unfold_depth = max_unfold_depth
        self.violation_mode = violation_mode
        self.deadline = deadline
        #: The middleware owns one persistent mediator shared by every
        #: evaluation: its connection and compiled statements stay warm
        #: across runs, and ``invalidate_plans`` can actually drop stray
        #: cache tables (each run's own are dropped by ``Engine.cleanup``).
        self.mediator = Mediator()
        #: Incremental re-evaluation (docs/INCREMENTAL.md): version-stamped
        #: result caching with delta-driven QDG invalidation.  One
        #: :class:`~repro.runtime.incremental.ResultCache` per unfold depth,
        #: committed only after fully successful runs.
        self.incremental = incremental
        self._result_caches: dict = {}
        #: Run ledger (docs/OBSERVABILITY.md): a
        #: :class:`~repro.obs.ledger.RunLedger` (or a path to one) that
        #: gets one JSONL record appended per evaluation.
        if isinstance(ledger, str):
            from repro.obs.ledger import RunLedger
            ledger = RunLedger(ledger)
        self.ledger = ledger
        #: Sharded multi-process evaluation (docs/SHARDING.md): when > 1,
        #: ``evaluate`` first tries to partition the document at an
        #: eligible set-valued production and run the key ranges in worker
        #: processes, falling back to the single-process path when the AIG
        #: is not partitionable.
        self.shards = shards
        #: Concurrency control (docs/SERVICE.md).  ``run_lock`` serializes
        #: the execution+tagging phase — sources are *single-flight* (one
        #: query at a time, see :class:`~repro.relational.source.
        #: DataSource`), the engine's mediator cache tables are named
        #: per-run, and the incremental result caches are committed
        #: mid-run, so overlapping executions on one instance would corrupt
        #: each other.  Reentrant so ``evaluate_batch`` can hold it across
        #: its member evaluations.  A writer to the sources outside a run
        #: (the service's delta load) holds it too, so the write lands
        #: between two runs.  It also guards every write to the
        #: prepared-plan cache (``_prepared``), so a plan is optimized once.
        self._prepared: dict = {}
        self.run_lock = threading.RLock()
        #: The plan the most recent successful evaluation ran (``None``
        #: before the first): what ``calibration_report`` and ``repro
        #: explain`` describe.
        self.last_plan: PreparedPlan | None = None
        #: Optimization passes actually executed (cache misses in
        #: :meth:`prepare`).  A counting hook for tests and the service
        #: layer: under concurrent reuse this must grow once per distinct
        #: depth, never once per caller.
        self.prepare_count = 0

    # ------------------------------------------------------------------
    def evaluate(self, root_inh: dict, tracer=None) -> ExecutionReport:
        """Generate the document; raises
        :class:`~repro.errors.EvaluationAborted` on constraint violation.

        Safe to call from concurrent threads on one shared instance: plan
        preparation is shared (and never duplicated) across callers, while
        execution+tagging serializes on the run lock — sources are
        single-flight and the incremental caches commit mid-run, so
        overlapping executions would corrupt each other.  ``tracer``
        (optional) records this call's spans/metrics into a per-request
        tracer instead of the instance-wide one, so per-run gauges
        (``qdg_nodes``, ``document_nodes``, ...) are never clobbered by a
        concurrent caller's run.

        ``report.document`` is an unread root holding the bound tagging
        run (see :class:`ExecutionReport`); the ``tagging`` span and the
        ``document_nodes`` gauge reach ``tracer`` when it is first read.
        Tagging errors still raise here: a missing input is checked at
        once, and a program with a choice is dry-run first.
        """
        tracer = self.tracer if tracer is None else tracer
        if self.shards > 1:
            # Sharded path (docs/SHARDING.md).  Holds the run lock like a
            # normal run: the driving query and source dumps hit the
            # single-flight sources.  The ledger and the
            # incremental caches are per-process state and deliberately
            # stay untouched on sharded runs.
            from repro.runtime.sharding import evaluate_sharded
            with self.run_lock:
                sharded = evaluate_sharded(self, dict(root_inh), tracer)
            if sharded is not None:
                return sharded

        def report(run: _Run) -> ExecutionReport:
            document = run.taken
            if self.ledger is not None:
                # the compact bytes: one stream pass over the bound run
                counted = _ByteCount()
                document._kids.write(StreamSerializer(counted.write))
                self._record_run(
                    "evaluate", run, tracer,
                    document_bytes=counted.bytes,
                    violations=run.result.violations)
            return ExecutionReport(
                document=document,
                optimization_seconds=run.optimization_seconds,
                **run.report)

        return self._run(root_inh, tracer, "evaluate",
                         lambda run: pending_document(run, tracer), report)

    def evaluate_stream(self, root_inh: dict, write, indent: int | None = None,
                        constraints: list | None = None,
                        tracer=None) -> StreamReport:
        """Generate the document as a byte stream through ``write``.

        The same evaluation as :meth:`evaluate` — including incremental
        reuse of cached query results — with the tagging program writing
        the bytes itself (:meth:`~repro.runtime.tagging.TaggingRun.write`,
        through a :class:`~repro.xmlmodel.serialize.StreamSerializer`'s
        pieces) instead of making a tree: they are identical to
        ``serialize(report.document, indent)``.  ``constraints``
        (optional) are checked by a
        :class:`~repro.constraints.StreamingConstraintChecker` on a tagging
        pass of their own before the write pass, with verdicts identical to
        the tree checker's.

        Where the program has a choice, each depth attempt first dry-runs
        it against a null sink: a choice cut off by the unfolding, or a
        condition selecting no alternative, must surface *before* any byte
        reaches ``write``, since a stream cannot be retracted.  A program
        without one cannot raise mid-document (a truncated star is
        answered before tagging, by the blocked-query probe) and is tagged
        once.
        """
        from repro.constraints import StreamingConstraintChecker

        tracer = self.tracer if tracer is None else tracer
        counted = _ByteCount(write)
        if self.ledger is not None:
            write = counted.write    # the ledger records bytes
        serializer = StreamSerializer(write, indent=indent)
        checker = (StreamingConstraintChecker(constraints)
                   if constraints else None)

        def take(run: TaggingRun):
            if checker is not None:
                run.stream(checker)     # its own pass, before any byte
            return traced_tagging(tracer,
                                  lambda: run.write(serializer, tracer))

        def report(run: _Run) -> StreamReport:
            elements = int(run.taken)
            found = checker.result() if checker is not None else []
            tracer.metrics.set_gauge("streamed_elements", elements)
            tracer.metrics.set_gauge("document_characters",
                                     serializer.characters)
            if self.ledger is not None:
                self._record_run(
                    "stream", run, tracer,
                    document_bytes=counted.bytes,
                    violations=list(run.result.violations) + list(found),
                    streamed_elements=elements)
            return StreamReport(
                elements=elements,
                characters=serializer.characters,
                constraint_violations=found,
                **run.report)

        return self._run(root_inh, tracer, "evaluate-stream", take, report)

    def _initial_depth(self) -> int | None:
        """The depth the next run starts at (``None`` without recursion):
        the depth the last run settled on, or the estimate after a write
        to a chain relation.

        The estimate is the user's fixed depth, or for ``"auto"`` a
        data-driven one (Section 7's chain-statistics idea, via
        :func:`repro.runtime.recursion.estimate_recursion_depth`); when the
        recursive queries do not match the probe pattern, a conservative
        default of 4 is used and the runtime re-unrolling loop covers the
        rest.  Both are kept with the chain relations' versions, and
        :meth:`_run` replaces the estimate with the depth that fit.
        """
        if not recursive_types(self.aig.dtd):
            return None
        from repro.runtime.recursion import (chain_queries,
                                             estimate_recursion_depth)
        versions = [self.stats.table_version(item.source, item.relation)
                    for query in chain_queries(self.aig)
                    for item in query.from_items]
        if self._chain_depth[0] != versions:
            estimate = self.unfold_depth
            if estimate == "auto":
                estimate = estimate_recursion_depth(
                    self.aig, self.sources, self.max_unfold_depth) or 4
            self._chain_depth = (versions, estimate)
        return self._chain_depth[1]

    def prepare(self, depth: int | None = None,
                tracer=None) -> PreparedPlan:
        """Pre-processing + optimization only: :func:`~repro.runtime.
        prepared.prepare_plan` of this middleware's AIG at ``depth``.

        Results are cached per depth — the whole pipeline up to execution is
        input-independent, so evaluating many root attributes (the paper's
        *daily* reports) pays for optimization once.

        Thread-safe: a hit is one lock-free dict probe; a miss re-probes
        and inserts under ``run_lock``, so
        concurrent callers of a shared middleware never duplicate
        optimization work (asserted via :attr:`prepare_count`).  ``tracer``
        (optional) scopes this call's spans and gauges to a per-request
        tracer instead of the instance-wide one — see docs/SERVICE.md.
        """
        prepared = self._prepared.get(depth)
        if prepared is not None:
            return prepared
        # A miss reads statistics; sources are single-flight, so it waits
        # for a running evaluation.
        with self.run_lock:
            prepared = self._prepared.get(depth)
            if prepared is not None:
                return prepared
            prepared = prepare_plan(
                self.aig, self.stats, self.network, depth,
                merging=self.merging,
                tracer=self.tracer if tracer is None else tracer)
            self._prepared[depth] = prepared
            self.prepare_count += 1
            return prepared

    def invalidate_plans(self) -> None:
        """Drop cached plans and the statistics read for them, incremental
        result caches, and any cached temp tables left on the mediator.

        Call after the sources' data changes enough to shift statistics —
        the plans stay correct either way, only their cost-optimality is
        affected.  The mediator sweep matters on a live middleware: a
        run's own cache tables are dropped by ``Engine.cleanup``, but a
        crash between runs (or an engine torn down mid-cleanup) can
        strand ``cache_N`` tables that would otherwise outlive every
        re-prepare; the mediator has no base relations, so every table
        found there is disposable.

        Takes the run lock first: an invalidation issued while another
        thread is mid-evaluation waits for that run to finish instead of
        sweeping the mediator tables (and result caches) out from under
        it.
        """
        with self.run_lock:
            self._prepared = {}
            self.stats.invalidate()
            self._result_caches = {}
            try:
                tables = self.mediator.table_names()
            except EvaluationError as error:
                logger.warning("invalidate_plans: sweeping the mediator "
                               "failed: %s", error)
                return
            for table in tables:
                try:
                    self.mediator.drop_table(table)
                except EvaluationError as error:
                    logger.warning("invalidate_plans: dropping mediator "
                                   "table %r failed: %s", table, error)

    def evaluate_batch(self, root_inh_values: list[dict],
                       tracer=None) -> list[ExecutionReport]:
        """Evaluate many root attributes against one prepared plan.

        The paper's scenario is a *daily* report: same AIG, same sources,
        different ``date``.  Optimization (specialize -> QDG -> merge ->
        schedule) runs once; only execution and tagging repeat.

        Holds the run lock across the whole batch (it is reentrant, so the
        member evaluations nest): no other caller's evaluation interleaves
        with the batch.
        """
        with self.run_lock:
            return [self.evaluate(dict(values), tracer=tracer)
                    for values in root_inh_values]

    def explain(self, depth: int | None = None, timed: bool = False) -> str:
        """:func:`~repro.runtime.prepared.explain_plan` of the plan at
        ``depth`` (default: the depth the next run will use), then the
        statistics read so far and, with ``incremental``, each node's cache
        state.  The text is the same on every call for the same plan and
        reads; ``timed`` adds each read's measured seconds."""
        if depth is None:
            depth = self._initial_depth()
        prepared = self.prepare(depth)
        lines = explain_plan(prepared, self.network)
        lines.append("")
        lines.append("-- statistics read (asked of the sources so far) --")
        lines.extend(self.stats.describe_reads(timed))
        if self.incremental:
            lines.append("")
            lines.append("-- incremental cache state --")
            graph, increment = prepared.graph, None
            # Run lock: a concurrent evaluation must not swap the result
            # caches (or the last root attributes) mid-report.
            with self.run_lock:
                store = self._result_caches.get(depth)
                if store and hasattr(self, "_last_root_inh"):
                    increment = plan_increment(graph, store,
                                               *compute_fingerprints(
                                                   graph, self.sources,
                                                   self._last_root_inh))
            if increment is None:
                lines.append("  (cache cold: no committed evaluation at "
                             "this depth yet)")
            else:
                for node in graph.topological_order():
                    state = ("cached " if node.name in increment.reusable
                             else "TAINTED")
                    lines.append(f"  [{state}] {node.name} @{node.source}")
                lines.append(f"  {len(increment.reusable)} node(s) "
                             f"reusable, {len(increment.tainted)} tainted "
                             f"(vs last evaluation's root attributes)")
        return "\n".join(lines)

    def calibration_report(self):
        """Modeled-vs-measured cost report for the most recent evaluation.

        Joins the optimizer's per-node estimates (``eval_cost``, ``size``,
        cardinality — Section 5.2) against the engine's measured
        :class:`~repro.runtime.engine.NodeTiming` records; see
        :mod:`repro.obs.calibrate`.  Raises
        :class:`~repro.errors.EvaluationError` before any evaluation ran.
        """
        from repro.obs.calibrate import build_calibration
        if self.last_plan is None:
            raise EvaluationError(
                "calibration_report() requires a prior evaluate() run")
        # Join against the estimates that *planned* the last run.
        return build_calibration(self.last_plan.graph,
                                 self.last_plan.estimates,
                                 self._last_result.timings)

    # ------------------------------------------------------------------
    def _run(self, root_inh: dict, tracer, span: str, take, report):
        """The one evaluation path behind :meth:`evaluate` and
        :meth:`evaluate_stream`: depth attempts under the run lock, the
        unfolding doubled until the recursion fits (Section 5.5).

        ``take(tagging_run)`` is what the caller does with the
        :class:`~repro.runtime.tagging.TaggingRun` of the attempt that
        fits, once it is proven to tag without error: the two entry points
        differ only there.  ``report(run)`` fills the caller's report,
        gauges and ledger record.
        """
        with self.run_lock:
            depth = self._initial_depth()
            versions = self._chain_depth[0]
            while True:
                run = self._run_at_depth(root_inh, depth, tracer, span, take)
                if run is not None:
                    if depth is not None:
                        # the next run starts where this one fitted
                        self._chain_depth = (versions, depth)
                    return report(run)
                logger.warning("recursion deeper than unfolding estimate "
                               "%s; re-unrolling at depth %s", depth,
                               depth * 2)
                tracer.metrics.add("recursion_reunrollings", 1)
                depth = depth * 2
                if depth > self.max_unfold_depth:
                    raise RecursionDepthExceeded(
                        f"recursion deeper than max_unfold_depth="
                        f"{self.max_unfold_depth}")

    def _run_at_depth(self, root_inh: dict, depth: int | None, tracer,
                      span: str, take) -> _Run | None:
        """One attempt at one unfold depth; ``None`` when the unfolding
        truncated live recursion and the attempt must be repeated deeper
        (nothing was committed, counted, or handed to ``take``)."""
        metrics_before = (tracer.metrics.snapshot()
                          if self.ledger is not None else None)
        with tracer.span(span, "pipeline", depth=depth):
            optimization_started = time.perf_counter()
            prepared = self.prepare(depth, tracer=tracer)
            graph, tagging_plan = prepared.graph, prepared.tagging_plan
            optimization_seconds = (time.perf_counter()
                                    - optimization_started)
            store = None
            increment = None
            fingerprints = None
            if self.incremental:
                store = self._result_caches.setdefault(depth, ResultCache())
                with tracer.span("fingerprint", "optimize"):
                    fingerprints, bindings = compute_fingerprints(
                        graph, self.sources, root_inh)
                    increment = plan_increment(graph, store, fingerprints,
                                               bindings)
                tracer.metrics.set_gauge("incremental_reused_nodes",
                                         len(increment.reusable))
                tracer.metrics.set_gauge("incremental_tainted_nodes",
                                         len(increment.tainted))
                self._last_root_inh = dict(root_inh)
            engine = Engine(graph, prepared.plan, self.sources, self.network,
                            mediator=self.mediator,
                            violation_mode=self.violation_mode,
                            tracer=tracer,
                            deadline=self.deadline,
                            reuse=increment.reusable if increment else None,
                            fingerprints=fingerprints)
            try:
                result = engine.run(root_inh)
                program = tagging_program(
                    tagging_plan, base_name if depth is not None else None)
                run = TaggingRun(program, result.cache, root_inh)
                if program.choices:
                    # a choice is the only tagging step that raises
                    # mid-document: prove the run before it is taken
                    try:
                        with tracer.span("tagging-dryrun", "tagging"):
                            run.stream(NullEventSink())
                    except RecursionTruncated:
                        # A choice branch was cut off below the estimate
                        # (the choice analogue of the star-rule
                        # blocked-query test).
                        return None
                if self._needs_deeper(tagging_plan, result.cache, depth):
                    return None
                taken = take(run)
                # Commit only after a fully successful run: a mid-run
                # failure must never poison the cache — the next
                # evaluation simply finds the previous (still
                # fingerprint-valid) entries.
                if store is not None:
                    store.commit(increment, result.cache_entries)
            finally:
                engine.cleanup()
            tracer.metrics.set_gauge("unfold_depth",
                                     0 if depth is None else depth)
            tracer.metrics.add("evaluations", 1)
            tracer.metrics.observe("evaluation_latency_seconds",
                                   result.measured_seconds)
        self._last_result = result
        self.last_plan = prepared
        tainted_nodes = len(increment.tainted) if increment else 0
        return _Run(
            plan=prepared, result=result, taken=taken,
            optimization_seconds=optimization_seconds,
            metrics_before=metrics_before,
            report=dict(
                response_time=result.response_time,
                estimated_cost=prepared.cost,
                measured_seconds=result.measured_seconds,
                queries_executed=result.queries_executed,
                bytes_shipped=result.bytes_shipped,
                node_count=len(graph),
                merged=prepared.merged,
                unfold_depth=depth,
                violations=list(result.violations),
                reused_nodes=result.reused_nodes,
                tainted_nodes=tainted_nodes))

    # ------------------------------------------------------------------
    def _config_dict(self) -> dict:
        """The middleware knobs that shaped a run (ledger ``config``)."""
        return {
            "merging": self.merging,
            "unfold_depth": self.unfold_depth,
            "max_unfold_depth": self.max_unfold_depth,
            "violation_mode": self.violation_mode,
            "incremental": self.incremental,
            "deadline": self.deadline,
            "shards": self.shards,
        }

    def _record_run(self, kind: str, run: _Run, tracer,
                    document_bytes: int, violations: list, **extra) -> None:
        """Append one run record to the attached ledger."""
        from repro.obs.ledger import build_run_record, metrics_delta
        result = run.result
        plan = run.plan
        plan_info = {
            "estimated_cost": round(plan.cost, 6),
            "response_time": round(result.response_time, 6),
            "node_count": len(plan.graph),
            "unfold_depth": plan.depth,
        }
        run_info = {
            "measured_seconds": round(result.measured_seconds, 6),
            "queries_executed": result.queries_executed,
            "bytes_shipped": result.bytes_shipped,
            "document_bytes": document_bytes,
            "violations": len(violations),
            "reused_nodes": result.reused_nodes,
            "tainted_nodes": run.report["tainted_nodes"],
            **extra,
        }
        constraint_records = [str(violation) for violation in violations]
        record = build_run_record(
            kind, plan.graph, result.timings,
            config=self._config_dict(),
            plan_info=plan_info,
            run_info=run_info,
            metrics=metrics_delta(run.metrics_before,
                                  tracer.metrics.snapshot()),
            constraints=constraint_records)
        self.ledger.append(record)

    # ------------------------------------------------------------------
    def _needs_deeper(self, tagging_plan, cache: dict,
                      depth: int | None) -> bool:
        """Did the unfolding truncate live recursion?

        The deepest truncated copies came from ``B*`` productions that were
        rewritten to ``EMPTY``.  We re-run each such production's original
        iteration query against the deepest level's cached rows; any output
        means an expandable node was cut off (Section 5.5's blocked-query
        test) and the unfolding must be extended.
        """
        from repro.dtd.model import Empty, Star
        from repro.aig.rules import StarRule

        if depth is None:
            return False
        tree = tagging_plan.tree
        for occurrence in tree.by_path.values():
            original_type = base_name(occurrence.element_type)
            if original_type == occurrence.element_type:
                continue
            unfolded_model = tree.aig.dtd.production(occurrence.element_type)
            original_model = self.aig.dtd.production(original_type)
            if not (isinstance(unfolded_model, Empty)
                    and isinstance(original_model, Star)):
                continue
            rule = self.aig.rule_for(original_type)
            assert isinstance(rule, StarRule)
            anchor = occurrence.anchor
            if anchor.parent is None:
                continue
            table_node = tagging_plan.table_of.get(anchor.path)
            if table_node is None or not len(cache.get(table_node, [])):
                continue
            if self._probe_expandable(rule, cache[table_node]):
                return True
        return False

    def _probe_expandable(self, rule, rows) -> bool:
        """Does the truncated star query produce rows for any live parent
        (``rows``: the deepest level's cached anchor relation)?"""
        from repro.sqlq.analyze import scalar_params
        from repro.sqlq.render import render_sqlite
        from repro.sqlq.ast import (BaseTable, ColumnRef, Comparison, Param,
                                    Literal, Query, SelectItem, TempTable)
        from repro.relational.source import Federation

        query = rule.child_query.query
        replacements = {}
        for param in scalar_params(query):
            ref = rule.child_query.binding_for(param)
            if ref.kind != "inh":
                return False  # cannot probe sibling-dependent recursion
            if ref.member not in rows.columns:
                return False
            replacements[param] = ColumnRef("__probe", ref.member)
        new_where = []
        for predicate in query.where:
            if isinstance(predicate, Comparison):
                left = replacements.get(predicate.left.name) \
                    if isinstance(predicate.left, Param) else predicate.left
                right = replacements.get(predicate.right.name) \
                    if isinstance(predicate.right, Param) else predicate.right
                new_where.append(Comparison(left or predicate.left,
                                            predicate.op,
                                            right or predicate.right))
            else:
                new_where.append(predicate)
        probe = Query(
            tuple(SelectItem(Literal(1), "hit") for _ in range(1)),
            query.from_items + (TempTable("__probe_input", "__probe",
                                          tuple(rows.columns)),),
            tuple(new_where))
        sql, params = render_sqlite(
            probe, bindings={"__probe_input": "__probe_table"},
            qualify_sources=True)
        # Per probe, closed with it, and only the sources the star query
        # reads: a federation copies every base relation of a source it
        # cannot ATTACH.
        federation = Federation([self.sources[name] for name in sorted(
            {item.source for item in query.from_items
             if isinstance(item, BaseTable)})])
        try:
            federation.create_temp_table(rows.columns, rows.rows,
                                         "__probe_table")
            result = federation.execute(sql + " LIMIT 1", tuple(params))
        finally:
            federation.close()
        return bool(result.rows)

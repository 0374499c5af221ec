"""The traced pass: per-layer rows from spans recorded around the calls into
each layer's public functions.

This is the single adapter that re-does what ``Middleware.prepare`` and
``Middleware._evaluate_at_depth`` do, from the stage functions, in their
order: ``StatisticsCatalog.from_sources`` -> ``estimate_recursion_depth`` /
``unfold_aig`` -> ``specialize`` -> ``build_qdg`` -> ``merge`` ->
``Engine.run`` -> ``build_document`` / ``stream_document`` -> ``serialize`` /
``StreamSerializer``.  Nothing inside ``src/`` is edited: the relational
layer is timed by wrappers installed on the ``DataSource`` and ``Mediator``
*instances* the benchmark built.  Spans (name, start, end, parent, document
id) stay in memory and are written as a Chrome trace when the pass ends.

The untraced run never imports this module, so a refactor of a stage
signature can break a layer row (reported as a failure with the reason) but
never an end-to-end number.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import statistics
import time
from pathlib import Path

from repro import Middleware, check_constraints, serialize
from repro.compilation import specialize
from repro.constraints import StreamingConstraintChecker
from repro.dtd.analysis import base_name, recursive_types
from repro.optimizer.cost import QUERY_OVERHEAD, CostModel
from repro.optimizer.merge import merge as merge_graph
from repro.optimizer.qdg import build_qdg
from repro.relational import Mediator, StatisticsCatalog
from repro.runtime import strip_unfolding, unfold_aig
from repro.runtime.engine import Engine
from repro.runtime.recursion import estimate_recursion_depth
from repro.runtime.tagging import (NullEventSink, build_document,
                                   stream_document)
from repro.xmlmodel.serialize import StreamSerializer

from measure import Calibrator, DigestWriter, percentile
from workloads import (INDENT, SCENARIOS, Tally, close_sources, median_row,
                       produce, row, whole_rounds)

OUT = Path(__file__).resolve().parent / "out"
RESIDUAL_LIMIT = 0.10
MAX_UNFOLD_DEPTH = 64          # Middleware's default


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class _Span:
    __slots__ = ("recorder", "index")

    def __init__(self, recorder, index):
        self.recorder, self.index = recorder, index

    def __enter__(self):
        return self.recorder.spans[self.index]

    def __exit__(self, *exc):
        recorder = self.recorder
        recorder.spans[self.index]["end"] = time.perf_counter()
        recorder.stack.pop()
        return False


class SpanRecorder:
    """Spans in memory: ``{name, start, end, parent, doc, rows}``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.doc = None
        #: document id -> calibration factor of the moment it ran in
        #: (measure.Calibrator); its spans are multiplied by it
        self.scales: dict = {}
        #: wrappers installed on shared sources stay silent while an
        #: untraced middleware uses them
        self.active = False

    def span(self, name: str) -> _Span:
        index = len(self.spans)
        self.spans.append({
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self.stack[-1] if self.stack else None,
            "doc": self.doc, "rows": 0})
        self.stack.append(index)
        return _Span(self, index)

    def wrap(self, target, method: str, name: str, rows_of=None) -> None:
        """Time every call of ``target.method`` as a span named ``name``;
        ``rows_of(args, result)`` counts the rows the call moved.

        Set on the instance, so the class — and every other source —
        is untouched.  A wrapped method calling another wrapped method of
        the same object (``Mediator.cache_result`` ->
        ``create_temp_table``) nests as parent and child, and self time
        counts the interval once."""
        inner = getattr(target, method)

        def timed(*args, **kwargs):
            if not self.active:
                return inner(*args, **kwargs)
            with self.span(name) as span:
                result = inner(*args, **kwargs)
                if rows_of is not None:
                    span["rows"] = rows_of(args, result)
                return result

        setattr(target, method, timed)

    def duration(self, span: dict) -> float:
        """Calibrated seconds of one span."""
        return ((span["end"] - span["start"])
                * self.scales.get(span["doc"], 1.0))

    def self_times(self) -> list[float]:
        """Duration of each span minus what its child spans cover."""
        selfs = [self.duration(span) for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                selfs[span["parent"]] -= self.duration(span)
        return selfs

    def chrome_trace(self) -> dict:
        origin = self.spans[0]["start"] if self.spans else 0.0
        return {"displayTimeUnit": "ms", "traceEvents": [
            {"name": span["name"], "ph": "X", "pid": 1, "tid": 1,
             "ts": (span["start"] - origin) * 1e6,
             "dur": (span["end"] - span["start"]) * 1e6,
             "args": {"document": span["doc"], "parent": span["parent"],
                      "rows": span["rows"]}}
            for span in self.spans if span["end"] is not None]}


def _fetched(args, result) -> int:
    return len(result)


def _shipped(args, result) -> int:
    """Rows of ``create_temp_table(columns, rows, ...)``; the default
    (row-tuple) plane ships lists, a generator's length is not known."""
    return len(args[1]) if hasattr(args[1], "__len__") else 0


def instrument(recorder: SpanRecorder, sources: dict, mediator) -> None:
    """Timing wrappers on the instances the benchmark built."""
    for source in sources.values():
        recorder.wrap(source, "execute", "relational.query", _fetched)
        recorder.wrap(source, "create_temp_table", "relational.ship",
                      _shipped)
        recorder.wrap(source, "drop_table", "relational.ship")
    recorder.wrap(mediator, "execute", "relational.mediator_query")
    recorder.wrap(mediator, "drop_table", "relational.mediator_query")
    recorder.wrap(mediator, "create_temp_table", "relational.mediator_ship")
    recorder.wrap(mediator, "cache_result", "relational.mediator_ship")


# ----------------------------------------------------------------------
# the pipeline, stage by stage
# ----------------------------------------------------------------------
class Pipeline:
    """``Middleware(aig, sources[, network], unfold_depth=)`` with every
    other argument at its default, driven stage by stage under spans."""

    def __init__(self, recorder: SpanRecorder, middleware: Middleware):
        """The pipeline equivalent to an (otherwise default) middleware."""
        self.recorder = recorder
        self.aig, self.sources = middleware.aig, middleware.sources
        self.network = middleware.network
        self.unfold_depth = middleware.unfold_depth
        self.mediator = Mediator()
        self.prepares = 0
        instrument(recorder, self.sources, self.mediator)

    def prepare(self) -> None:
        """Statistics, depth estimate, compile, optimise — the work a
        fresh ``Middleware`` does before its first document."""
        span, aig = self.recorder.span, self.aig
        self.prepares += 1
        self.recorder.doc = ("prepare", self.prepares)
        with span("relational.stats"):
            stats = StatisticsCatalog.from_sources(list(self.sources.values()))
        self.depth, working = None, aig
        if recursive_types(aig.dtd):
            with span("dtd.unfold"):
                if self.unfold_depth == "auto":
                    self.depth = estimate_recursion_depth(
                        aig, self.sources, MAX_UNFOLD_DEPTH) or 4
                else:
                    self.depth = int(self.unfold_depth)
                working = unfold_aig(aig, self.depth)
        with span("compilation.specialize"):
            spec = specialize(working, stats)
        with span("optimizer.build_qdg"):
            graph, self.tagging_plan = build_qdg(spec, stats)
        model = CostModel(stats, overhead=QUERY_OVERHEAD)
        with span("optimizer.merge_schedule"):
            self.graph, self.plan, self.cost, _ = merge_graph(
                graph, model, self.network)
        self.rename = base_name if self.depth is not None else None

    def run_engine(self, root: dict):
        engine = Engine(self.graph, self.plan, self.sources, self.network,
                        mediator=self.mediator,
                        query_overhead=QUERY_OVERHEAD,
                        tagging_plan=self.tagging_plan)
        with self.recorder.span("engine.run"):
            return engine, engine.run(dict(root))

    def tree_document(self, root: dict, doc_id) -> dict:
        """evaluate + serialize of one materialized document."""
        recorder = self.recorder
        recorder.doc, recorder.active = doc_id, True
        try:
            with recorder.span("document"):
                engine, result = self.run_engine(root)
                try:
                    with recorder.span("tagging.build"):
                        document = build_document(self.tagging_plan,
                                                  result.cache, dict(root))
                        if self.depth is not None:
                            strip_unfolding(document)
                        nodes = document.size()
                finally:
                    engine.cleanup()
                # Middleware walks the tree a second time for its
                # document_nodes gauge; that is glue, not a layer
                document.size()
                with recorder.span("xmlmodel.serialize"):
                    data = serialize(document, indent=INDENT).encode("utf-8")
        finally:
            recorder.active = False
        return {"digest": hashlib.sha256(data).hexdigest(),
                "bytes": len(data), "nodes": nodes, "result": result,
                "document": document}

    def stream_document(self, root: dict, doc_id) -> dict:
        """``evaluate_stream`` of one document into a hashing writer."""
        recorder = self.recorder
        recorder.doc, recorder.active = doc_id, True
        writer = DigestWriter()
        try:
            with recorder.span("document"):
                engine, result = self.run_engine(root)
                try:
                    with recorder.span("tagging.stream+serialize"):
                        stream_document(
                            self.tagging_plan, result.cache, dict(root),
                            StreamSerializer(writer.write, indent=INDENT),
                            rename=self.rename)
                finally:
                    engine.cleanup()
        finally:
            recorder.active = False
        return {"digest": writer.hexdigest(), "bytes": writer.bytes,
                "result": result}

    def other_path(self, root: dict, doc_id, made: dict, stream: bool,
                   constraints) -> dict:
        """The same layers used the other way, and the post-hoc checkers:
        auxiliary spans outside any document span (they are not part of a
        document's latency).  Returns seconds per auxiliary measurement."""
        recorder, cache = self.recorder, made["result"].cache
        recorder.doc = doc_id
        out = {}

        def timed(name, fn):
            with recorder.span(name) as span:
                value = fn()
            out[name] = recorder.duration(span)
            return value

        def stream_into(*sinks):
            return stream_document(self.tagging_plan, cache, dict(root),
                                   *sinks, rename=self.rename)

        timed("aux.stream_null", lambda: stream_into(NullEventSink()))
        if stream:
            def build():
                document = build_document(self.tagging_plan, cache,
                                          dict(root))
                if self.depth is not None:
                    strip_unfolding(document)
                out["nodes"] = document.size()
                return document
            document = timed("aux.tree_build", build)
            timed("aux.tree_serialize",
                  lambda: serialize(document, indent=INDENT).encode("utf-8"))
        else:
            document = made["document"]
            sink = DigestWriter()
            timed("aux.stream_serialize", lambda: stream_into(
                StreamSerializer(sink.write, indent=INDENT)))
            out["stream_digest"] = sink.hexdigest()
        if constraints:
            found = timed("aux.tree_check",
                          lambda: check_constraints(document, constraints))
            checker = StreamingConstraintChecker(constraints)
            timed("aux.stream_check", lambda: stream_into(checker))
            out["violations"] = len(found)
            out["stream_violations"] = len(checker.result())
        return out


# ----------------------------------------------------------------------
# rows from spans
# ----------------------------------------------------------------------
MEDIATOR_SPANS = ("relational.mediator_ship", "relational.mediator_query")
SELF_ROWS = {
    "engine.self_s": "engine.run",
    "relational.query_s": "relational.query",
    "relational.ship_s": "relational.ship",
    "relational.mediator_ship_s": "relational.mediator_ship",
    "relational.mediator_query_s": "relational.mediator_query",
    "tagging.build_s": "tagging.build",
    "xmlmodel.serialize_s": "xmlmodel.serialize",
}
STAGE_ROWS = {
    "relational.stats_s": "relational.stats",
    "dtd.unfold_s": "dtd.unfold",
    "compilation.specialize_s": "compilation.specialize",
    "optimizer.build_qdg_s": "optimizer.build_qdg",
    "optimizer.merge_schedule_s": "optimizer.merge_schedule",
}


def document_rows(recorder: SpanRecorder) -> tuple[dict, list[float]]:
    """Per-document layer figures -> rows (medians over documents), and
    each document's residual share."""
    selfs = recorder.self_times()
    spans = recorder.spans
    per_doc: dict = {}
    for index, span in enumerate(spans):
        root = index
        while spans[root]["parent"] is not None:
            root = spans[root]["parent"]
        if spans[root]["name"] != "document":
            continue
        doc = per_doc.setdefault(span["doc"], {})
        name = span["name"]
        doc[f"self:{name}"] = doc.get(f"self:{name}", 0.0) + selfs[index]
        doc[f"rows:{name}"] = doc.get(f"rows:{name}", 0) + span["rows"]
        parent = span["parent"]
        # a wrapper inside a wrapper is one call into the layer
        if not (name in MEDIATOR_SPANS and parent is not None
                and spans[parent]["name"] in MEDIATOR_SPANS):
            doc[f"calls:{name}"] = doc.get(f"calls:{name}", 0) + 1
        if name in ("document", "engine.run", "tagging.stream+serialize"):
            doc[f"total:{name}"] = recorder.duration(span)

    def over_documents(pick):
        return [pick(doc) for doc in per_doc.values()]

    rows = {}
    for metric, name in SELF_ROWS.items():
        rows[metric] = median_row(over_documents(
            lambda doc: doc.get(f"self:{name}", 0.0)))
    rows["engine.run_s"] = median_row(over_documents(
        lambda doc: doc.get("total:engine.run", 0.0)))
    rows["relational.query_calls"] = median_row(over_documents(
        lambda doc: doc.get("calls:relational.query", 0)))
    rows["relational.rows_fetched"] = median_row(over_documents(
        lambda doc: doc.get("rows:relational.query", 0)))
    rows["relational.ship_rows"] = median_row(over_documents(
        lambda doc: doc.get("rows:relational.ship", 0)))
    rows["relational.mediator_calls"] = median_row(over_documents(
        lambda doc: sum(doc.get(f"calls:{name}", 0)
                        for name in MEDIATOR_SPANS)))
    residual = over_documents(
        lambda doc: doc["self:document"] / doc["total:document"])
    rows["trace.residual_share"] = median_row(residual)
    rows["_stream_total"] = median_row(over_documents(
        lambda doc: doc.get("total:tagging.stream+serialize", 0.0)))
    return rows, residual


def stage_rows(recorder: SpanRecorder) -> dict:
    rows = {}
    for metric, name in STAGE_ROWS.items():
        samples = [recorder.duration(span) for span in recorder.spans
                   if span["name"] == name]
        if samples:
            rows[metric] = median_row(samples)
    return rows


def write_trace(recorder: SpanRecorder, workload: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps(recorder.chrome_trace()))


# ----------------------------------------------------------------------
# the traced pass of an in-process scenario
# ----------------------------------------------------------------------
def trace_scenario(scenario, aig, sources, seconds: float, tally: Tally,
                   recorder: SpanRecorder, calibrator: Calibrator,
                   prepares: int = 3) -> dict:
    """Untraced and traced documents alternating over the scenario's
    roots for ``seconds``; returns the per-layer rows."""
    middleware = scenario.middleware(aig, sources)
    pipeline = Pipeline(recorder, middleware)
    for _ in range(prepares):
        wall0 = time.perf_counter()
        tally.attempt("traced prepare", pipeline.prepare)
        recorder.scales[recorder.doc] = calibrator.scale(
            time.perf_counter() - wall0)
    one = pipeline.stream_document if scenario.stream else \
        pipeline.tree_document
    produce(scenario, middleware, scenario.roots[0])    # plan warm

    untraced, traced_wall, aux, results, nodes, sizes = [], [], [], [], [], []
    rounds = 0
    for _ in whole_rounds(seconds):
        for index, root in enumerate(scenario.roots):
            gc.collect()
            wall0 = time.perf_counter()
            plain = tally.attempt(f"untraced {root}", produce, scenario,
                                  middleware, root)
            elapsed = time.perf_counter() - wall0
            untraced.append(elapsed * calibrator.scale(elapsed))
            gc.collect()
            wall0 = time.perf_counter()
            made = tally.attempt(f"traced {root}", one, root,
                                 (rounds, index))
            elapsed = time.perf_counter() - wall0
            recorder.scales[(rounds, index)] = calibrator.scale(elapsed)
            traced_wall.append(elapsed * recorder.scales[(rounds, index)])
            if plain is None or made is None:
                continue
            tally.check(made["digest"] == plain[0],
                        f"{root}: traced bytes differ from untraced")
            result = made["result"]
            results.append((result.response_time, result.bytes_shipped,
                            result.queries_executed))
            sizes.append(made["bytes"])
            nodes.append(made.get("nodes"))
            if rounds == 0:
                other = tally.attempt(
                    f"other path {root}", pipeline.other_path, root,
                    (rounds, index), made, scenario.stream, aig.constraints)
                if other is not None:
                    aux.append(other)
                    tally.check(other.get("stream_digest", made["digest"])
                                == made["digest"],
                                f"{root}: stream bytes differ from tree")
                    tally.check(other.get("violations") == other.get(
                        "stream_violations"), f"{root}: checkers disagree")
            # nothing of this document may be alive during the next one
            made = result = None
        rounds += 1
    pipeline.mediator.close()
    if scenario.stream:
        nodes = [item["nodes"] for item in aux]

    rows, residual = document_rows(recorder)
    rows.update(stage_rows(recorder))
    stream_total = rows.pop("_stream_total")
    tally.check(bool(residual)
                and statistics.median(residual) <= RESIDUAL_LIMIT,
                f"trace.residual_share of {residual} above {RESIDUAL_LIMIT}")

    def aux_row(name):
        return median_row([item[name] for item in aux if name in item])

    null = aux_row("aux.stream_null")
    rows["tagging.stream_s"] = null
    if scenario.stream:
        # the streamed pass drives tagging and the serializer sink in one
        # loop; the serializer's share is the pass minus a null-sink pass
        rows["xmlmodel.stream_serialize_s"] = row(
            max(0.0, stream_total["value"] - null["value"]))
        rows["tagging.build_s"] = aux_row("aux.tree_build")
        rows["xmlmodel.serialize_s"] = aux_row("aux.tree_serialize")
    else:
        both = aux_row("aux.stream_serialize")
        rows["xmlmodel.stream_serialize_s"] = row(
            max(0.0, both["value"] - null["value"]))
    if aig.constraints:
        rows["constraints.tree_check_s"] = aux_row("aux.tree_check")
        rows["constraints.stream_check_s"] = row(max(
            0.0, aux_row("aux.stream_check")["value"] - null["value"]))
        rows["constraints.violations"] = median_row(
            [item["violations"] for item in aux])
    rows["tagging.nodes"] = median_row(nodes)
    rows["xmlmodel.bytes"] = median_row(sizes)
    rows["optimizer.plan_nodes"] = row(len(pipeline.graph))
    # modelled figures: the paper's simulated clock, not wall time
    rows["optimizer.predicted_cost_s"] = row(pipeline.cost)
    for column, metric in enumerate(("engine.sim_response_s",
                                     "engine.bytes_shipped",
                                     "engine.queries_executed")):
        rows[metric] = median_row([item[column] for item in results])
    if untraced and traced_wall:
        rows["trace.overhead_x"] = row(
            statistics.median(traced_wall) / statistics.median(untraced))
    return rows


def sharding_rows(scenario, aig, sources, root, tally: Tally,
                  calibrator: Calibrator) -> tuple:
    """Wall-clock sharded vs single-process ``evaluate`` (never the
    CPU-seconds model).  ``(rows, note)``; no rows on one CPU."""
    from repro.runtime.sharding import shutdown_shard_pool
    cpus = len(os.sched_getaffinity(0))
    rows = {"sharding.cpu_count": row(cpus)}
    if cpus < 2:
        return rows, "one CPU: sharded wall time would measure nothing"

    def walls(middleware, count):
        out, report = [], None
        for _ in range(count):
            report = None
            gc.collect()
            started = time.perf_counter()
            report = middleware.evaluate(dict(root))
            elapsed = time.perf_counter() - started
            out.append(elapsed * calibrator.scale(elapsed))
        return out, report

    try:
        sharded = Middleware(aig, sources, shards=min(cpus, 4))
        tally.attempt("sharded warm-up", sharded.evaluate, dict(root))
        made = tally.attempt("sharded evaluate", walls, sharded, 2)
        base = tally.attempt("unsharded evaluate", walls,
                             scenario.middleware(aig, sources), 2)
    finally:
        shutdown_shard_pool()
    if made is None or base is None:
        return rows, "sharded evaluation failed"
    (sharded_walls, report), (base_walls, _) = made, base
    if report.shards < 2:
        return rows, "AIG not partitionable: single-process fallback ran"
    wall = statistics.median(sharded_walls)
    rows["sharding.wall_s"] = row(wall, sharded_walls)
    rows["sharding.wall_speedup_x"] = row(
        statistics.median(base_walls) / wall)
    rows["sharding.ipc_bytes"] = row(report.ipc_bytes)
    return rows, None


def run_traced_in_process(name: str, seed: int, seconds: float,
                          smoke: bool) -> dict:
    scenario = SCENARIOS[name]
    tally, notes = Tally(), {}
    recorder, calibrator = SpanRecorder(), Calibrator()
    sources = scenario.make_sources(
        seed, scenario.smoke if smoke else scenario.full)
    try:
        aig = scenario.build_aig()
        rows = trace_scenario(scenario, aig, sources, seconds, tally,
                              recorder, calibrator,
                              prepares=1 if smoke else 3)
        if name == "groups-constraints":
            shard_rows, note = sharding_rows(
                scenario, aig, sources, scenario.roots[0], tally, calibrator)
            rows.update(shard_rows)
            if note:
                notes["sharding"] = note
    finally:
        close_sources(sources)
    write_trace(recorder, name, seed)
    calibrator.close()
    return {"rows": rows, "attempted": tally.attempted,
            "failures": tally.failures, "notes": notes,
            "env": calibrator.stamp()}


# ----------------------------------------------------------------------
# the per-layer pass of service-mixed
# ----------------------------------------------------------------------
def run_traced_service(seed: int, seconds: float, smoke: bool) -> dict:
    """``service.*`` from the scripted run and the server's own counters;
    ``incremental.*``, ``service.miss_overhead_x`` and the in-process layer
    rows from the data set the server loads."""
    from repro.datagen import make_loaded_sources
    from repro.datagen.generator import DATES
    from repro.hospital import build_hospital_aig
    from service import run_service

    served = run_service(seed, seconds, smoke, spawns=1)
    tally = Tally()
    tally.attempted, tally.failures = served["attempted"], served["failures"]
    extra, notes = served["extra"], {}
    rows = {
        "service.hit_latency_p50_s": median_row(extra["hit"]),
        "service.hit_latency_p99_s": row(
            percentile(extra["hit"], 0.99) if extra["hit"] else None,
            extra["hit"]),
        "service.write_latency_p50_s": median_row(extra["write"]),
        "service.server_cpu_s_per_miss": served["rows"]["doc_cpu_p50_s"],
    }
    counters = extra["counters"]
    if counters["service_requests"]:
        rows["service.cache_hit_ratio"] = row(
            counters["service_cache_hits"] / counters["service_requests"])
    rows["service.evaluations"] = row(counters["service_evaluations"])
    rows["service.coalesced_requests"] = row(
        counters["service_coalesced_requests"])

    aig = build_hospital_aig()
    sources, _ = make_loaded_sources("tiny" if smoke else "small")
    recorder, calibrator = SpanRecorder(), Calibrator()

    def seconds_of(operation) -> float:
        """Calibrated seconds of one call."""
        gc.collect()
        started = time.perf_counter()
        operation()
        elapsed = time.perf_counter() - started
        return elapsed * calibrator.scale(elapsed)

    try:
        # what `repro serve` registers its tenant with
        middleware = Middleware(aig, sources, incremental=True,
                                unfold_depth="auto")

        def miss_like(date):
            report = middleware.evaluate({"date": date})
            serialize(report.document, indent=INDENT).encode("utf-8")

        # like the server's script: one warm-up round, then the round timed
        for date in DATES:
            middleware.evaluate({"date": date})
        local = [seconds_of(lambda: miss_like(date)) for date in DATES]
        replay, delta = [], []
        for step, date in enumerate(DATES[:3]):
            middleware.evaluate({"date": date})
            replay.append(seconds_of(
                lambda: middleware.evaluate({"date": date})))
            sources["DB3"].load_rows("billing", [(f"ZL{seed}-{step}", "100")])
            delta.append(seconds_of(
                lambda: middleware.evaluate({"date": date})))
        rows["incremental.warm_replay_s"] = median_row(replay)
        rows["incremental.delta_s"] = median_row(delta)
        miss = served["rows"]["doc_latency_p50_s"]["value"]
        if miss and local:
            rows["service.miss_overhead_x"] = row(
                miss / statistics.median(local))

        tenant = dataclasses.replace(
            SCENARIOS["hospital-daily"], middleware=lambda aig, sources:
            Middleware(aig, sources, unfold_depth="auto"))
        for name, value in trace_scenario(
                tenant, aig, sources, 0.0, tally, recorder, calibrator,
                prepares=1 if smoke else 3).items():
            rows.setdefault(name, value)
        notes["layers"] = ("engine/relational/tagging/xmlmodel rows: "
                           "in-process, on the data the server loads")
    finally:
        close_sources(sources)
    write_trace(recorder, "service-mixed", seed)
    calibrator.close()
    return {"rows": rows, "attempted": tally.attempted,
            "failures": tally.failures, "notes": notes,
            "env": calibrator.stamp()}


def run_traced(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    if name == "service-mixed":
        return run_traced_service(seed, seconds, smoke)
    return run_traced_in_process(name, seed, seconds, smoke)

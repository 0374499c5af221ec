"""Sharded multi-process evaluation (docs/SHARDING.md).

The GIL caps CPU-bound tagging and constraint checking at one core no
matter how many worker *threads* the engine runs.  This module escapes
it by partitioning the document itself: a set-valued top-level
production (``A -> B*``) creates one independent subtree per row of its
driving query, so the row set can be split into key ranges and each
range evaluated by the existing single-process engine inside a separate
``multiprocessing`` worker — same plans, same optimizer, same tagging —
then spliced back together in driving-row order.

The pipeline:

1. :func:`find_partition` walks the DTD from the root through
   singly-referenced, non-recursive ``Sequence`` productions to the
   first eligible ``Star`` production (the *partition production*) and
   refuses anything whose data flow could leak partition content into
   the shared part of the document (syn consumers, guards, set-valued
   query parameters).  Ineligible AIGs fall back to the single-process
   path — sharding is an optimization, never a semantics change.
2. :func:`build_shard_tasks` runs the driving query once in the
   parent, sorts the rows by the tagging phase's canonical order, cuts
   them into ``shards`` contiguous key ranges, and packages one
   spawn-safe :class:`ShardTask` per range: a rewritten AIG whose star
   rule reads its range from a private ``BLOB``-typed shard relation
   (no affinity, so values round-trip exactly), full dumps of the base
   sources, the network model, and a whitelisted config.  Nothing in a
   task holds a sqlite3 connection, tracer or ledger.
3. :func:`_shard_worker` (in the worker process) rebuilds the sources,
   runs a fresh :class:`~repro.runtime.middleware.Middleware` on the
   shard AIG with its constraints removed, and returns its document plus
   the constraint *evidence* of one pass of the streaming checker over
   it (:func:`repro.constraints.reconcile.shard_evidence`).
4. :func:`evaluate_sharded` (back in the parent) splices the shard
   documents at the partition production — order-preserving, so the
   result is byte-identical to the single-process document — and
   reconciles the constraint evidence across shards
   (:func:`repro.constraints.reconcile.reconcile`): the scopes no slice
   could decide are merged and judged by the same streaming checker.

Workers compile no guards: a guard inside one shard could fire on a
constraint that another shard's rows satisfy (or miss one only the union
violates), and guards never change the document (Section 3.3).  The
*reconciled* verdict is the sharded run's verdict: the parent raises
:class:`~repro.errors.EvaluationAborted` with its located violations
exactly when it is non-empty.

Worker processes are spawned (never forked: the parent holds sqlite
connections and locks) and kept in a module-level pool so repeated
evaluations amortize interpreter start-up.
"""

from __future__ import annotations

import atexit
import gc
import logging
import multiprocessing
import pickle
import threading
import time
from dataclasses import dataclass

from repro.aig.functions import (
    Assign,
    AttrRef,
    CollectChildren,
    Const,
    QueryFunc,
    UnionExpr,
    scalar_refs,
)
from repro.aig.grammar import AIG
from repro.aig.rules import (
    ChoiceRule,
    EmptyRule,
    PCDataRule,
    SequenceRule,
    StarRule,
)
from repro.constraints.reconcile import reconcile, shard_evidence
from repro.dtd.analysis import element_graph, recursive_types
from repro.dtd.model import Sequence, Star
from repro.errors import EvaluationAborted, EvaluationError
from repro.relational.schema import (
    Catalog,
    Column,
    RelationSchema,
    SourceSchema,
)
from repro.relational.source import DataSource, Federation
from repro.sqlq.analyze import scalar_params, set_params
from repro.sqlq.ast import BaseTable, ColumnRef, Query, SelectItem
from repro.sqlq.render import render_sqlite
from repro.xmlmodel.node import (XMLElement, child_nodes, new_element,
                                 new_text)

#: Relation name of the per-shard key-range table.
SHARD_RELATION = "rows"


@dataclass(frozen=True)
class PartitionSpec:
    """Where and how a document can be partitioned.

    ``chain`` is the element-type path from the DTD root to the
    partition production (inclusive).
    """

    chain: tuple[str, ...]
    star_type: str
    query: Query
    bindings: QueryFunc


@dataclass
class ShardTask:
    """Everything one worker needs, spawn-safe and picklable.

    ``source_dump`` is the pickled ``{name: (schema, {relation: rows})}``
    dump of every base source.  It is pickled *once* in the parent and
    the same bytes object is shared by every task, so serializing N
    payloads costs one pickle pass plus N C-speed copies instead of N
    object-graph pickles.
    """

    aig: AIG
    source_dump: bytes
    shard_schema: SourceSchema
    chunk: list
    network: object
    root_inh: dict
    config: dict
    chain: tuple
    #: the parent's effective ``repro`` log level, which the worker takes
    #: for the task (a spawned process starts at the default WARNING)
    log_level: int


@dataclass
class ShardResult:
    """One worker's document, evidence, and run statistics.

    ``document`` is the :func:`encode_document` form of the shard's
    tree, not an :class:`XMLElement`: flat label/shape lists pickle at
    C speed, where pickling the linked node graph costs several
    microseconds per node — on big documents the parent's deserialize
    is the serial bottleneck sharding must not widen.
    """

    document: tuple
    evidence: object
    response_time: float
    estimated_cost: float
    queries_executed: int
    bytes_shipped: int
    node_count: int
    unfold_depth: int | None
    peak_rss_kb: int
    rows: int


# ----------------------------------------------------------------------
# eligibility
# ----------------------------------------------------------------------
def _syn_consumers(aig: AIG) -> set[str]:
    """Element types whose synthesized attributes any rule consumes.

    A chain member with a consumed syn could leak partition-dependent
    data into the shared part of the document, so it disqualifies the
    chain.
    """
    consumed: set[str] = set()

    def scan_expr(expression) -> None:
        if isinstance(expression, CollectChildren):
            consumed.add(expression.child)
            return
        if isinstance(expression, UnionExpr):
            for arg in expression.args:
                scan_expr(arg)
            return
        for ref in scalar_refs(expression):
            if ref.kind == "syn" and ref.element:
                consumed.add(ref.element)

    def scan_func(function) -> None:
        if isinstance(function, Assign):
            for _, expression in function.items:
                scan_expr(expression)
        elif isinstance(function, QueryFunc):
            for name in (scalar_params(function.query)
                         | set_params(function.query)):
                ref = function.binding_for(name)
                if ref.kind == "syn" and ref.element:
                    consumed.add(ref.element)

    for rule in aig.rules.values():
        if isinstance(rule, PCDataRule):
            scan_func(rule.text)
            scan_func(rule.syn)
        elif isinstance(rule, EmptyRule):
            scan_func(rule.syn)
        elif isinstance(rule, SequenceRule):
            for _, function in rule.inh:
                scan_func(function)
            scan_func(rule.syn)
        elif isinstance(rule, ChoiceRule):
            scan_func(rule.condition)
            for _, branch in rule.branches:
                scan_func(branch.inh)
                scan_func(branch.syn)
        elif isinstance(rule, StarRule):
            scan_func(rule.child_query)
            scan_func(rule.syn)
    return consumed


def _assign_inh_only(function) -> bool:
    """Is a chain inh function computable from the parent env alone?"""
    if not isinstance(function, Assign):
        return False
    return all(isinstance(expression, Const)
               or (isinstance(expression, AttrRef)
                   and expression.kind == "inh")
               for _, expression in function.items)


def _query_eligible(child_query: QueryFunc) -> bool:
    """Can the driving query run once in the parent, parameter-free of
    sibling state?  Base tables only, scalar parameters only, every
    parameter bound to an inherited attribute."""
    query = child_query.query
    if any(not isinstance(item, BaseTable) for item in query.from_items):
        return False
    if set_params(query):
        return False
    return all(child_query.binding_for(name).kind == "inh"
               for name in scalar_params(query))


def find_partition(aig: AIG) -> PartitionSpec | None:
    """The shallowest partitionable star production, or ``None``.

    Walks breadth-first from the DTD root through ``Sequence``
    productions.  Every chain member must be referenced exactly once in
    the whole DTD (so the splice point is unique), non-recursive, not an
    internal state, have no consumed synthesized attributes, and be
    reached through ``Assign``-only inherited functions (so the parent
    can compute the driving query's bindings without evaluating
    anything).  Custom guards disqualify the AIG entirely: a guard may
    encode a global condition the per-shard runs cannot see.
    """
    if aig.guards:
        return None
    dtd = aig.dtd
    recursive = recursive_types(dtd)
    consumed = _syn_consumers(aig)
    reference_counts: dict[str, int] = {}
    for model in dtd.productions.values():
        for name in model.names():
            reference_counts[name] = reference_counts.get(name, 0) + 1

    from collections import deque
    queue = deque([(dtd.root, (dtd.root,))])
    visited: set[str] = set()
    while queue:
        element, chain = queue.popleft()
        if element in visited:
            continue
        visited.add(element)
        if element in recursive or element in aig.internal_states \
                or element in consumed:
            continue
        if element != dtd.root and reference_counts.get(element, 0) != 1:
            continue
        model = dtd.production(element)
        rule = aig.rules.get(element)
        if isinstance(model, Star):
            if not isinstance(rule, StarRule):
                continue
            if rule.syn.items != ():
                continue
            if not _query_eligible(rule.child_query):
                continue
            return PartitionSpec(chain, element, rule.child_query.query,
                                 rule.child_query)
        if isinstance(model, Sequence):
            if rule is not None and not isinstance(rule, SequenceRule):
                continue
            for child in model.names():
                function = (rule.inh_for(child) if rule is not None
                            else Assign(()))
                if _assign_inh_only(function):
                    queue.append((child, chain + (child,)))
    return None


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
def _chain_environment(aig: AIG, spec: PartitionSpec,
                       root_inh: dict) -> dict:
    """The partition production's inherited env, folded down the chain."""
    env = dict(root_inh)
    for parent, child in zip(spec.chain, spec.chain[1:]):
        rule = aig.rules.get(parent)
        function = (rule.inh_for(child) if isinstance(rule, SequenceRule)
                    else Assign(()))
        env = {member: (expression.value
                        if isinstance(expression, Const)
                        else env.get(expression.member))
               for member, expression in function.items}
    return env


def _canonical_key(row: tuple) -> tuple:
    """The tagging phase's child sort key (``_Table`` in tagging.py):
    None-safe string order over all driving columns."""
    return tuple((value is not None, str(value)) for value in row)


def partition_rows(middleware, spec: PartitionSpec,
                   root_inh: dict) -> list[tuple]:
    """Run the driving query once and return its rows in canonical
    (tagging) order, ready for contiguous key-range slicing."""
    env = _chain_environment(middleware.aig, spec, root_inh)
    values = {name: env.get(spec.bindings.binding_for(name).member)
              for name in scalar_params(spec.query)}
    sql, params = render_sqlite(spec.query, scalar_values=values,
                                qualify_sources=True)
    federation = Federation(list(middleware.sources.values()))
    try:
        result = federation.execute(sql, tuple(params))
    finally:
        federation.connection.close()
    return sorted(result.rows, key=_canonical_key)


def _fresh_source_name(aig: AIG, sources: dict) -> str:
    name = "__shard"
    taken = set(aig.catalog.source_names) | set(sources)
    while name in taken:
        name += "_x"
    return name


def _shard_aig(aig: AIG, spec: PartitionSpec, shard_source: str):
    """The worker-side AIG: same grammar, but the partition production's
    driving query reads its key range from the private shard relation."""
    columns = spec.query.output_names
    schema = SourceSchema(shard_source, (RelationSchema(
        SHARD_RELATION, tuple(Column(c, "BLOB") for c in columns)),))
    replacement = Query(
        select=tuple(SelectItem(ColumnRef("s", column), column)
                     for column in columns),
        from_items=(BaseTable(shard_source, SHARD_RELATION, "s"),))
    clone = aig.clone()
    clone.rules[spec.star_type] = StarRule(
        QueryFunc(replacement), aig.rules[spec.star_type].syn)
    clone.catalog = Catalog([aig.catalog.source(name)
                             for name in aig.catalog.source_names]
                            + [schema])
    return clone, schema


#: Middleware knobs a worker inherits.  Deliberately excluded: tracer,
#: ledger, incremental, deadline — they hold process-local handles
#: (files, sqlite, locks) or cross-run caches that must not ride a pickle
#: into another process.
_WORKER_CONFIG_KEYS = (
    "merging", "unfold_depth", "max_unfold_depth",
)


def build_shard_tasks(middleware, root_inh: dict,
                      shards: int | None = None):
    """Partition one evaluation into spawn-safe worker tasks.

    Returns ``(spec, tasks, total_rows)`` or ``None`` when the AIG has
    no eligible partition production.  Exposed separately from
    :func:`evaluate_sharded` so tests can assert payload spawn-safety
    (``pickle.dumps`` of every task) without paying for worker
    processes.
    """
    shards = middleware.shards if shards is None else shards
    spec = find_partition(middleware.aig)
    if spec is None:
        return None
    rows = partition_rows(middleware, spec, root_inh)
    count = len(rows)
    chunks = [rows[index * count // shards:(index + 1) * count // shards]
              for index in range(shards)]
    shard_source = _fresh_source_name(middleware.aig, middleware.sources)
    shard_aig, shard_schema = _shard_aig(middleware.aig, spec,
                                         shard_source)
    dumps = {}
    for name, source in middleware.sources.items():
        relations = {}
        for relation_schema in source.schema.relations:
            result = source.execute(
                f'SELECT * FROM "{relation_schema.name}"')
            relations[relation_schema.name] = result.rows
        dumps[name] = (source.schema, relations)
    # One pickle pass; every task shares the same bytes object.
    source_dump = pickle.dumps(dumps, protocol=pickle.HIGHEST_PROTOCOL)
    config = {key: getattr(middleware, key) for key in _WORKER_CONFIG_KEYS}
    tasks = [ShardTask(aig=shard_aig, source_dump=source_dump,
                       shard_schema=shard_schema, chunk=chunk,
                       network=middleware.network,
                       root_inh=dict(root_inh), config=config,
                       chain=spec.chain,
                       log_level=logging.getLogger("repro")
                       .getEffectiveLevel())
             for chunk in chunks]
    return spec, tasks, count


# ----------------------------------------------------------------------
# compact tree codec (worker -> parent IPC)
# ----------------------------------------------------------------------
def encode_document(root: XMLElement) -> tuple[list, list]:
    """Flatten a tree into pre-order ``(labels, shape)`` lists.

    ``labels[i]`` is the i-th node's tag (elements) or value (text);
    ``shape[i]`` is its child count, with ``-1`` marking a text node.
    Two flat lists of strings and small ints pickle at C speed and
    round-trip byte-identically through :func:`decode_document`.
    """
    from repro.xmlmodel.node import XMLText

    labels: list[str] = []
    shape: list[int] = []
    stack: list = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, XMLText):
            labels.append(node.value)
            shape.append(-1)
        else:
            children = child_nodes(node)
            labels.append(node.tag)
            shape.append(len(children))
            stack.extend(reversed(children))
    return labels, shape


def decode_document(labels: list, shape: list) -> XMLElement:
    """Rebuild the tree from :func:`encode_document` output.

    The labels were a tree's own tags and values a moment ago, so the
    nodes come from the trusted constructors (``xmlmodel/node.py``): the
    validation and re-parenting in ``XMLElement.append`` would dominate
    the parent's serial merge cost on large documents.
    """
    malformed = EvaluationError("sharded merge: malformed encoded document")
    root: XMLElement | None = None
    #: (element, children still to attach) — pre-order frontier.
    stack: list[list] = []
    for label, count in zip(labels, shape):
        if stack:
            top = stack[-1]
            node = (new_text if count == -1 else new_element)(label, top[0])
            top[1] -= 1
            if top[1] == 0:
                stack.pop()
        elif root is None and count != -1:
            node = root = new_element(label, None)
        else:
            raise malformed     # a text node, or a second tree, at the top
        if count > 0:
            stack.append([node, count])
    if root is None or stack:
        raise malformed
    return root


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _locate_splice(document: XMLElement, chain: tuple) -> XMLElement:
    """The partition production's element, by walking the chain tags.

    Every chain member is singly-referenced, so following the *first*
    child with each tag is unambiguous.
    """
    node = document
    for tag in chain[1:]:
        child = node.find(tag)
        if child is None:
            raise EvaluationError(
                f"sharded merge: chain element {tag!r} missing from the "
                f"shard document (path {'/'.join(chain)})")
        node = child
    return node


def _shard_worker(payload: bytes) -> bytes:
    """Evaluate one shard task end to end; runs in a worker process.

    Takes and returns pickled bytes so the parent can meter IPC volume
    exactly.  Evaluates the shard AIG without its constraints — a
    shard-local guard verdict is meaningless before reconciliation — and
    returns the evidence the parent needs for the global constraint pass.
    """
    # Pause the cyclic collector for the task body: evaluation garbage
    # is acyclic (freed by refcount) while the document tree is cyclic
    # (parent <-> children) but alive until the result ships, so every
    # generational pass would only rescan a growing live graph (~20% of
    # worker CPU measured).  The task is bounded; one collect at the
    # end returns the pooled worker to a clean state.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _shard_worker_body(payload)
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()


def _shard_worker_body(payload: bytes) -> bytes:
    """The body of :func:`_shard_worker` (GC paused around it)."""
    import resource

    from repro.runtime.middleware import Middleware

    task: ShardTask = pickle.loads(payload)
    logging.getLogger("repro").setLevel(task.log_level)
    sources = {}
    for name, (schema, relations) in pickle.loads(task.source_dump).items():
        source = DataSource(schema)
        for relation_name, rows in relations.items():
            if rows:
                source.load_rows(relation_name,
                                 [tuple(row) for row in rows])
        sources[name] = source
    shard_store = DataSource(task.shard_schema)
    if task.chunk:
        shard_store.load_rows(SHARD_RELATION,
                              [tuple(row) for row in task.chunk])
    sources[task.shard_schema.source] = shard_store
    middleware = Middleware(task.aig.without_constraints(), sources,
                            task.network, **task.config)
    report = middleware.evaluate(dict(task.root_inh))
    # No guard ran, so every constraint is judged in the slice.
    evidence = shard_evidence(
        report.document, task.aig.constraints,
        _locate_splice(report.document, task.chain),
        set(task.aig.constraints), element_graph(task.aig.dtd))
    encoded = encode_document(report.document)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for source in sources.values():
        source.close()
    return pickle.dumps(ShardResult(
        document=encoded,
        evidence=evidence,
        response_time=report.response_time,
        estimated_cost=report.estimated_cost,
        queries_executed=report.queries_executed,
        bytes_shipped=report.bytes_shipped,
        node_count=report.node_count,
        unfold_depth=report.unfold_depth,
        peak_rss_kb=peak_rss_kb,
        rows=len(task.chunk)))


# ----------------------------------------------------------------------
# worker pool (persistent, spawn-based)
# ----------------------------------------------------------------------
_pool = None
_pool_size = 0
_pool_lock = threading.Lock()


def _get_pool(size: int):
    """The shared spawn pool, grown (never shrunk) to ``size``."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < size:
            if _pool is not None:
                _pool.terminate()
                _pool.join()
            context = multiprocessing.get_context("spawn")
            _pool = context.Pool(size)
            _pool_size = size
        return _pool


def shutdown_shard_pool() -> None:
    """Tear down the worker pool (idempotent; registered atexit)."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is not None:
            _pool.terminate()
            _pool.join()
            _pool = None
            _pool_size = 0


atexit.register(shutdown_shard_pool)


# ----------------------------------------------------------------------
# parent-side coordinator
# ----------------------------------------------------------------------
def merge_documents(documents: list[XMLElement],
                    chain: tuple) -> XMLElement:
    """Splice shard documents into one, in shard (= key-range) order.

    Shard 0's document is the base — its shared part is identical to
    every other shard's by construction — and the other shards'
    partition children are appended at the splice element in order,
    which is exactly the driving-row order the single-process tagging
    phase would have produced.
    """
    base = documents[0]
    splice = _locate_splice(base, chain)
    for other in documents[1:]:
        other_splice = _locate_splice(other, chain)
        # Bulk transfer instead of per-child ``append``: append would
        # remove each child from the donor list (a linear scan), turning
        # the splice quadratic in shard size.
        for child in other_splice.children:
            child.parent = splice
        splice.children.extend(other_splice.children)
        other_splice.children = []
    return base


def evaluate_sharded(middleware, root_inh: dict, tracer):
    """One sharded evaluation; ``None`` when the AIG is not partitionable.

    Called by :meth:`Middleware.evaluate` under the run lock when
    ``shards > 1``.  Returns a regular
    :class:`~repro.runtime.middleware.ExecutionReport` whose document is
    byte-identical to the single-process engine's; raises
    :class:`~repro.errors.EvaluationAborted` with the *reconciled*
    cross-shard verdict (located, as ``check_constraints`` lists them)
    exactly when that verdict is non-empty.
    """
    from repro.runtime.middleware import ExecutionReport

    shards = middleware.shards
    started = time.perf_counter()
    with tracer.span("shard-partition", "shard", shards=shards):
        built = build_shard_tasks(middleware, root_inh)
        if built is None:
            tracer.metrics.add("shard_fallbacks", 1)
            return None
        spec, tasks, total_rows = built
    driving_seconds = time.perf_counter() - started
    payloads = [pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
                for task in tasks]
    ipc_bytes = sum(len(payload) for payload in payloads)
    results, documents = [], []
    # Pause the cyclic collector while rebuilding the shard trees: the
    # decode loop allocates hundreds of thousands of live, cyclic
    # (parent <-> children) nodes and almost no cyclic garbage, so each
    # generational pass would only rescan the growing result document
    # (over half of the decode cost measured).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with tracer.span("shard-dispatch", "shard", shards=shards,
                         rows=total_rows):
            pool = _get_pool(shards)
            # imap pipelines the parent's deserialize/decode with the
            # still-running workers: shard 0's tree is rebuilt while
            # shards 1..N-1 are still evaluating, so on a multi-core
            # host only the last shard's decode sits on the critical
            # path.
            for blob in pool.imap(_shard_worker, payloads):
                ipc_bytes += len(blob)
                result = pickle.loads(blob)
                results.append(result)
                documents.append(decode_document(*result.document))
        with tracer.span("shard-merge", "shard"):
            document = merge_documents(documents, spec.chain)
    finally:
        if gc_was_enabled:
            gc.enable()
    reconcile_started = time.perf_counter()
    with tracer.span("shard-reconcile", "shard"):
        violations = reconcile(middleware.aig.constraints,
                               [result.evidence for result in results])
    reconcile_seconds = time.perf_counter() - reconcile_started
    if violations:
        raise EvaluationAborted(violations)
    measured_seconds = time.perf_counter() - started

    tracer.metrics.add("sharded_evaluations", 1)
    tracer.metrics.add("evaluations", 1)
    tracer.metrics.observe("evaluation_latency_seconds", measured_seconds)
    tracer.metrics.set_gauge("shard_count", shards)
    tracer.metrics.set_gauge("shard_reconcile_seconds", reconcile_seconds)
    tracer.metrics.set_gauge("shard_ipc_bytes", ipc_bytes)
    for index, result in enumerate(results):
        tracer.metrics.set_gauge(f"shard_rows.{index}", result.rows)
        tracer.metrics.set_gauge(f"shard_peak_rss.{index}",
                                 result.peak_rss_kb)
    return ExecutionReport(
        document=document,
        response_time=(driving_seconds
                       + max(result.response_time for result in results)
                       + reconcile_seconds),
        estimated_cost=max(result.estimated_cost for result in results),
        measured_seconds=measured_seconds,
        queries_executed=1 + sum(result.queries_executed
                                 for result in results),
        bytes_shipped=sum(result.bytes_shipped for result in results),
        node_count=results[0].node_count,
        merged=middleware.merging,
        unfold_depth=results[0].unfold_depth,
        shards=shards,
        shard_rows=[result.rows for result in results],
        reconcile_seconds=reconcile_seconds,
        ipc_bytes=ipc_bytes,
        shard_peak_rss=[result.peak_rss_kb for result in results])

"""Collections and guards at the mediator site (docs/INTERNALS.md, "Collect
nodes and guards").

A guard reads its collections in place — no collect node, no table of its
own; a collection that stays a node (a set parameter some query reads) is
a collect node.  Both run in process, over the result sets the engine
holds: no mediator statement.  These tests pin that on the groups and
hospital AIGs, that a collection program's rows are SQLite's over the
same table, that a source-side reader and the incremental store get the
collected rows, and that no failure path of the one SQL job left to the
mediator — a step that reads no base table — strands a ``cache_*`` table.
"""

from contextlib import contextmanager

import pytest

from repro.aig import AIG, ConceptualEvaluator, assign, inh, query
from repro.aig.functions import Const
from repro.compilation import specialize
from repro.dtd import parse_dtd
from repro.datagen import make_loaded_sources
from repro.errors import EvaluationAborted, EvaluationError
from repro.hospital import build_hospital_aig, make_sources
from repro.obs import Tracer
from repro.optimizer.qdg import (Branch, CollectionProgram,
                                 QueryDependencyGraph, QueryNode)
from repro.relational import Network
from repro.relational.schema import Catalog, SourceSchema, relation
from repro.relational.source import (MEDIATOR_NAME, DataSource, Mediator,
                                     ResultSet)
from repro.resilience import FaultInjector, RetryPolicy
from repro.runtime import Middleware
from repro.runtime.engine import Engine, _with_ids
from repro.runtime.incremental import compute_fingerprints, plan_increment
from repro.xmlmodel import serialize
from tests.conftest import load_tiny_hospital

# the groups-constraints document: root -> group* -> member*
GROUP_DTD = """
<!ELEMENT root (group*)>
<!ELEMENT group (gid, members)>
<!ELEMENT members (member*)>
<!ELEMENT member (mid, score)>
<!ELEMENT gid (#PCDATA)>
<!ELEMENT mid (#PCDATA)>
<!ELEMENT score (#PCDATA)>
"""
GROUP_SCHEMA = SourceSchema("S", (relation("groups", "gid"),
                                  relation("members", "eid", "mid", "score")))


def build_group_aig() -> AIG:
    aig = AIG(parse_dtd(GROUP_DTD), Catalog([GROUP_SCHEMA]),
              root_inh=("run",))
    aig.inh("group", "gid")
    aig.inh("members", "gid")
    aig.inh("member", "mid", "score")
    aig.rule("root", inh={"group": query("select g.gid from S:groups g")})
    aig.rule("group", inh={"gid": assign(val=inh("gid")),
                           "members": assign(gid=inh("gid"))})
    aig.rule("members", inh={"member": query(
        "select m.mid, m.score from S:members m")})
    aig.rule("member", inh={"mid": assign(val=inh("mid")),
                            "score": assign(val=inh("score"))})
    aig.key("root", "group", "gid")
    aig.key("group", "member", "mid")
    aig.key("group", "member", "score")
    aig.key("group", "member", ("mid", "score"))
    aig.inclusion("group", "member", "score", "member", "score")
    aig.inclusion("group", "member", "mid", "member", "mid")
    aig.inclusion("group", "member", ("mid", "score"),
                  "member", ("mid", "score"))
    return aig.validate()


def group_sources(groups=6, members=(("m1", "10"), ("m2", "20"),
                                     ("m3", "30"))):
    source = DataSource(GROUP_SCHEMA)
    source.load_rows("groups", [(f"g{i}",) for i in range(groups)])
    source.load_rows("members", [("x", mid, score)
                                 for mid, score in members])
    return {"S": source}


def cache_tables(mediator) -> list[str]:
    return [name for name in mediator.table_names()
            if name.startswith("cache_")]


# ----------------------------------------------------------------------
# (a) a collect node's output is its program's rows plus __id
# ----------------------------------------------------------------------
MIXED_ROWS = [(None, 1, "a"), (7, 2.5, "héllo wörld ✓"), (-3, None, ""),
              (2 ** 40, 1e-9, "日本語"), (0, 0.0, None), (-3, None, "")]


def _collect_node(branches, distinct, fields=("x", "y", "z")):
    graph = QueryDependencyGraph()
    graph.add(QueryNode(
        name="c", source=MEDIATOR_NAME, kind="collect",
        collections=(CollectionProgram(fields, branches, distinct),),
        inputs=tuple(sorted({branch.table for branch in branches})),
        output_columns=fields + ("__group",)))
    return graph


@pytest.mark.parametrize("distinct", ["", "DISTINCT "])
def test_handle_equals_fetched_result(distinct):
    """Two branches over one table, grouped under the root (0) and under
    the row's ``__parent`` (1): the rows, their types and their price are
    SQLite's ``SELECT [DISTINCT]`` over the same table."""
    rows = [row + (1,) for row in MIXED_ROWS]
    mediator = Mediator()
    mediator.create_temp_table(["x", "y", "z", "__parent"], rows, "src")
    expected = _with_ids(mediator.execute(
        f'SELECT {distinct}* FROM (SELECT "x", "y", "z", 0 AS __group '
        f'FROM "src" UNION ALL SELECT "x", "y", "z", "__parent" FROM "src")'))
    mediator.close()

    values = tuple(("column", 0, name) for name in ("x", "y", "z"))
    graph = _collect_node((Branch("src", (), None, (), values),
                           Branch("src", (), (0, "__parent"), (), values)),
                          distinct=bool(distinct))
    engine = Engine(graph, {MEDIATOR_NAME: ["c"]}, {}, Network.mbps(1.0))
    cache = {"src": _with_ids(ResultSet(["x", "y", "z", "__parent"], rows))}
    _, outputs, _ = engine._execute(graph.nodes["c"], cache, {})
    output = outputs["c"]
    assert type(output) is ResultSet
    assert output.columns == expected.columns
    assert len(output) == len(expected) == (12 if not distinct else 10)
    assert output.width_bytes() == expected.width_bytes()
    # order aside (ids follow it), the same values of the same types
    assert sorted(map(repr, (row[:-1] for row in output.rows))) == \
        sorted(map(repr, (row[:-1] for row in expected.rows)))
    assert engine.mediator.table_names() == []
    engine.mediator.close()


def test_empty_collect_prices_to_zero():
    graph = _collect_node((), distinct=False, fields=("v",))
    engine = Engine(graph, {MEDIATOR_NAME: ["c"]}, {}, Network.mbps(1.0))
    try:
        output = engine.run({}).cache["c"]
        assert (len(output), output.width_bytes(), output.rows) == (0, 0, [])
    finally:
        engine.cleanup()
        engine.mediator.close()


# ----------------------------------------------------------------------
# (b) guards and collects issue no mediator call
# ----------------------------------------------------------------------
def count_mediator_calls(middleware) -> list:
    """One entry per call into the middleware's mediator (a statement, a
    shipped or cached table, a drop), outermost calls only."""
    calls, depth = [], [0]
    mediator = middleware.mediator
    for method in ("execute", "create_temp_table", "cache_result",
                   "drop_table"):
        def counted(*args, _inner=getattr(mediator, method),
                    _method=method, **kwargs):
            if not depth[0]:
                calls.append(_method)
            depth[0] += 1
            try:
                return _inner(*args, **kwargs)
            finally:
                depth[0] -= 1
        setattr(mediator, method, counted)
    return calls


def test_guards_read_collects_without_a_round_trip(tiny_sources):
    """Zero mediator calls per document on the groups AIG (7 guards over
    one merged source output, the members through the product node that
    pairs them with every group) and on the hospital AIG (a collect node
    and two guards over the unfolded treatment chain)."""
    tracer = Tracer()
    middleware = Middleware(build_group_aig(), group_sources(),
                            tracer=tracer)
    calls = count_mediator_calls(middleware)
    report = middleware.evaluate({"run": "r"})
    assert report.violations == []
    graph = middleware.last_plan.graph
    guards = [n for n in graph.nodes.values() if n.kind == "guard"]
    assert not [n for n in graph.nodes.values() if n.kind == "collect"]
    assert len(guards) == len(middleware.aig.constraints) == 7
    (merged,) = [n for n in graph.nodes.values() if n.source == "S"]
    for guard in guards:
        for name in guard.inputs:
            node = graph.node_for(name)
            if node.kind == "product":
                node = graph.node_for(node.inputs[0])
            assert node is merged
    assert calls == []
    assert tracer.metrics.counter("mediator_cache_tables") == 0
    assert tracer.metrics.counter("temp_tables_created") == 0
    conceptual = ConceptualEvaluator(
        middleware.aig, list(middleware.sources.values())).evaluate(
            {"run": "r"})
    assert serialize(report.document) == serialize(conceptual)

    middleware = Middleware(build_hospital_aig(), tiny_sources,
                            unfold_depth=8)
    calls = count_mediator_calls(middleware)
    report = middleware.evaluate({"date": "d1"})
    kinds = [n.kind for n in middleware.last_plan.graph.nodes.values()]
    assert (kinds.count("collect"), kinds.count("guard")) == (1, 2)
    assert report.queries_executed == len(kinds)
    assert calls == []


# ----------------------------------------------------------------------
# (c) a collect read by a source-side set parameter still ships its rows
# ----------------------------------------------------------------------
def _hospital(**kwargs):
    sources = make_sources()
    load_tiny_hospital(sources)
    tracer = Tracer()
    middleware = Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                            unfold_depth=8, tracer=tracer, **kwargs)
    return middleware, sources, tracer


def test_source_side_set_parameter_gets_the_rows():
    middleware, sources, tracer = _hospital()
    report = middleware.evaluate({"date": "d1"})
    conceptual = ConceptualEvaluator(
        middleware.aig, list(sources.values())).evaluate({"date": "d1"})
    assert serialize(report.document) == serialize(conceptual)
    assert "<price>75</price>" in serialize(report.document)

    graph, cache = middleware.last_plan.graph, middleware._last_result.cache
    shipped_out = {name for node in graph.nodes.values()
                   if node.source != MEDIATOR_NAME for name in node.inputs
                   if graph.node_for(name).kind == "collect"}
    assert shipped_out, "the hospital bill query takes a collected trIdS"
    for name in shipped_out:
        assert cache[name].rows
    assert tracer.metrics.counter("rows_shipped") >= \
        sum(len(cache[name]) for name in shipped_out)
    assert cache_tables(middleware.mediator) == []


# ----------------------------------------------------------------------
# (d) the incremental store replays a collect's rows
# ----------------------------------------------------------------------
def test_delta_run_replays_a_clean_collect_into_a_tainted_consumer():
    middleware, sources, tracer = _hospital(incremental=True)
    cold = middleware.evaluate({"date": "d1"})
    store = middleware._result_caches[cold.unfold_depth]
    graph = middleware.last_plan.graph
    stored = plan_increment(graph, store, *compute_fingerprints(
        graph, sources, {"date": "d1"})).reusable
    kept = [entry.outputs[name] for name, entry in stored.items()
            if name.startswith("collect:")]
    assert kept and all(result.rows for result in kept)

    # billing feeds the bill query (tainted); the trIdS it takes as a set
    # parameter is collected from DB4 (clean, replayed from the store)
    sources["DB3"].execute("UPDATE billing SET price='999' WHERE trId='t1'")
    delta = middleware.evaluate({"date": "d1"})
    assert 0 < delta.queries_executed < cold.queries_executed
    assert delta.reused_nodes > 0
    fresh = Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                       unfold_depth=8).evaluate({"date": "d1"})
    assert serialize(delta.document) == serialize(fresh.document)
    assert "<price>999</price>" in serialize(delta.document)

    warm = middleware.evaluate({"date": "d1"})
    assert warm.queries_executed == 0
    assert serialize(warm.document) == serialize(delta.document)
    assert cache_tables(middleware.mediator) == []


# ----------------------------------------------------------------------
# (e) no failure path strands a cache table
# ----------------------------------------------------------------------
DUPLICATE_MID = (("m1", "10"), ("m1", "20"), ("m3", "30"))


def test_guard_abort_leaves_no_cache_tables():
    middleware = Middleware(build_group_aig(),
                            group_sources(members=DUPLICATE_MID))
    with pytest.raises(EvaluationAborted):
        middleware.evaluate({"run": "r"})
    assert cache_tables(middleware.mediator) == []


def test_report_mode_violation_leaves_no_cache_tables():
    middleware = Middleware(build_group_aig(),
                            group_sources(members=DUPLICATE_MID),
                            violation_mode="report")
    report = middleware.evaluate({"run": "r"})
    assert report.violations
    assert cache_tables(middleware.mediator) == []


#: Q4 over the shipped set alone: no base table, so the step runs at the
#: mediator, over the ``trIdS`` rows shipped in as ``cache_N`` tables.
MEDIATOR_Q4_TEXT = "select s.trId, s.trId as price from $trIdS s"


def mediator_bill_aig() -> AIG:
    """σ0 with the bill's items read from ``$trIdS`` alone."""
    from repro.aig import collect, singleton, syn, union
    from repro.hospital.aig_def import Q1_TEXT, Q2_TEXT, Q3_TEXT
    from repro.hospital.schema import hospital_catalog, hospital_dtd
    aig = AIG(hospital_dtd(), hospital_catalog(), root_inh=("date",))
    aig.inh("patient", "date", "SSN", "pname", "policy")
    aig.inh("treatments", "date", "SSN", "policy")
    aig.syn("treatments", sets={"trIdS": ("trId",)})
    aig.inh("treatment", "trId", "tname")
    aig.syn("treatment", sets={"trIdS": ("trId",)})
    aig.inh("procedure", "trId")
    aig.syn("procedure", sets={"trIdS": ("trId",)})
    aig.inh("bill", sets={"trIdS": ("trId",)})
    aig.inh("item", "trId", "price")
    aig.rule("report", inh={"patient": query(Q1_TEXT)})
    aig.rule("patient", inh={
        "SSN": assign(val=inh("SSN")),
        "pname": assign(val=inh("pname")),
        "treatments": assign(date=inh("date"), SSN=inh("SSN"),
                             policy=inh("policy")),
        "bill": assign(trIdS=syn("treatments", "trIdS")),
    })
    aig.rule("treatments", inh={"treatment": query(Q2_TEXT)},
             syn=assign(trIdS=collect("treatment", "trIdS")))
    aig.rule("treatment", inh={
        "trId": assign(val=inh("trId")),
        "tname": assign(val=inh("tname")),
        "procedure": assign(trId=inh("trId")),
    }, syn=assign(trIdS=union(syn("procedure", "trIdS"),
                              singleton(trId=syn("trId", "val")))))
    aig.rule("procedure", inh={"treatment": query(Q3_TEXT)},
             syn=assign(trIdS=collect("treatment", "trIdS")))
    aig.rule("bill", inh={"item": query(MEDIATOR_Q4_TEXT)})
    aig.rule("item", inh={"trId": assign(val=inh("trId")),
                          "price": assign(val=inh("price"))})
    aig.key("patient", "item", "trId")
    aig.inclusion("patient", "treatment", "trId", "item", "trId")
    return aig.validate()


@contextmanager
def mediator_mix(**kwargs):
    """σ0 with a bill step that reads no base table, so the mediator
    receives the shipped ``trIdS`` rows and runs the step."""
    sources, dataset = make_loaded_sources("tiny")
    try:
        yield (Middleware(mediator_bill_aig(), sources,
                          Network.mbps(1.0), **kwargs),
               {"date": dataset.busiest_date()})
    finally:
        for source in sources.values():
            source.close()


def test_a_step_without_a_base_table_runs_at_the_mediator():
    tracer = Tracer()
    with mediator_mix(tracer=tracer) as (middleware, root):
        report = middleware.evaluate(root)
        reference = ConceptualEvaluator(
            mediator_bill_aig(),
            list(middleware.sources.values())).evaluate(root)
    assert report.document == reference
    assert list(report.document.iter("item"))
    assert tracer.metrics.counter("mediator_cache_tables") > 0
    assert cache_tables(middleware.mediator) == []


def test_mediator_fault_at_every_statement_leaves_no_cache_tables():
    """Fail the N-th mediator statement for every N the run reaches."""
    failures = 0
    for index in range(1, 200):
        with mediator_mix() as (middleware, root):
            injector = FaultInjector.from_spec(
                f"{MEDIATOR_NAME}:error@{index}").install(
                    {MEDIATOR_NAME: middleware.mediator})
            try:
                middleware.evaluate(root)
            except EvaluationError:
                failures += 1
            assert cache_tables(middleware.mediator) == [], \
                f"statement {index}"
            if not injector.fired:      # a clean run: count its steps
                joins = [n for n in middleware.last_plan.graph.nodes.values()
                         if n.source == MEDIATOR_NAME and n.kind == "step"]
                break
    else:
        pytest.fail("the run never got past the injected fault")
    # each shipped input and each mediator step is a statement whose
    # fault aborts
    assert joins and failures == index - 1 > len(joins)


def test_retry_after_a_mediator_fault_reuses_the_table_and_recovers():
    with mediator_mix() as (middleware, root):
        expected = serialize(middleware.evaluate(root).document)
    for index in range(1, 200):
        with mediator_mix(retry_policy=RetryPolicy(
                retries=1, base_delay=0.0001)) as (middleware, root):
            injector = FaultInjector.from_spec(
                f"{MEDIATOR_NAME}:error@{index}").install(
                    {MEDIATOR_NAME: middleware.mediator})
            report = middleware.evaluate(root)
            assert serialize(report.document) == expected, \
                f"statement {index}"
            assert cache_tables(middleware.mediator) == [], \
                f"statement {index}"
        if not injector.fired:
            break
    else:
        pytest.fail("the run never got past the injected fault")


# ----------------------------------------------------------------------
# (f) root attribute values are Python values, never text
# ----------------------------------------------------------------------
HDR_DTD = """
<!ELEMENT root (hdr, items)>
<!ELEMENT hdr (a, b)>
<!ELEMENT items (item*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT item (#PCDATA)>
"""
HDR_SCHEMA = SourceSchema("S", (relation("t", "x"),))


def hdr_middleware(a=inh("p"), b=inh("q"), **kwargs):
    """``hdr(a, b)`` copied from the root attributes ``p`` and ``q``, under
    the key ``root(hdr.(a, b) -> hdr)`` whose bag is made of root values;
    returns the middleware and the mediator calls it makes."""
    aig = AIG(parse_dtd(HDR_DTD), Catalog([HDR_SCHEMA]), root_inh=("p", "q"))
    aig.inh("hdr", "p", "q")
    aig.rule("root", inh={"hdr": assign(p=inh("p"), q=inh("q")),
                          "items": assign()})
    aig.rule("hdr", inh={"a": assign(val=a), "b": assign(val=b)})
    aig.rule("items", inh={"item": query("select t.x as val from S:t t")})
    aig.key("root", "hdr", ("a", "b"))
    source = DataSource(HDR_SCHEMA)
    source.load_rows("t", [("1",), ("2",)])
    middleware = Middleware(aig.validate(), {"S": source},
                            violation_mode="report", **kwargs)
    return middleware, count_mediator_calls(middleware)


def conceptual(middleware, root):
    evaluator = ConceptualEvaluator(
        specialize(middleware.aig).aig, list(middleware.sources.values()),
        violation_mode="report")
    return serialize(evaluator.evaluate(dict(root))), evaluator.violations


def the_guard(middleware):
    (guard,) = [node for node in middleware.last_plan.graph.nodes.values()
                if node.kind == "guard"]
    return guard


@pytest.mark.parametrize("q", [
    "z", " || (SELECT group_concat(name) FROM sqlite_master) || "])
def test_a_root_value_that_names_a_slot_is_data(q):
    root = {"p": "{root:q}", "q": q}
    middleware, calls = hdr_middleware()
    report = middleware.evaluate(dict(root))
    document = serialize(report.document)
    assert f"<a>{{root:q}}</a><b>{q}</b>" in document
    # the bag is the two values as given, read by name from the root
    (program,) = the_guard(middleware).collections
    assert program.root_members() == ["p", "q"] and calls == []
    assert (document, report.violations) == conceptual(middleware, root)


def test_a_plan_constant_that_names_a_slot_is_text():
    root = {"p": "unused", "q": "z"}
    middleware, calls = hdr_middleware(a=Const("it's {root:q}"))
    report = middleware.evaluate(dict(root))
    document = serialize(report.document)
    assert "<a>it&apos;s {root:q}</a><b>z</b>" in document
    (program,) = the_guard(middleware).collections
    assert program.root_members() == ["q"] and calls == []
    ((branch),) = program.branches
    assert ("const", "it's {root:q}") in branch.values
    assert (document, report.violations) == conceptual(middleware, root)

"""Mediator-side collections and guards (docs/INTERNALS.md, "Collect nodes
and guards").

A guard reads its collections in place — one mediator statement per
constraint, no collect node, no table of its own; a collection that stays
a node (a set parameter some query reads) is one fetched statement.  These
tests pin that plan shape on the groups AIG, that a source-side reader and
the incremental store get the collected rows, and that no failure path
strands a ``cache_*`` table.
"""

import pytest

from repro.aig import AIG, ConceptualEvaluator, assign, inh, query
from repro.aig.functions import Const
from repro.compilation import specialize
from repro.dtd import parse_dtd
from repro.errors import EvaluationAborted, EvaluationError
from repro.hospital import build_hospital_aig, make_sources
from repro.obs import Tracer
from repro.optimizer.qdg import QueryDependencyGraph, QueryNode
from repro.relational import Network
from repro.relational.schema import Catalog, SourceSchema, relation
from repro.relational.source import (MEDIATOR_NAME, DataSource, Mediator,
                                     ResultSet)
from repro.resilience import FaultInjector, RetryPolicy
from repro.runtime import Middleware
from repro.runtime.engine import Engine, _with_ids
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


def watch_mediator(middleware, observe) -> None:
    """Call ``observe(sql, params, run)`` in place of every statement the
    mediator executes; ``run()`` executes it."""
    execute = middleware.mediator.execute

    def watched(sql, params=(), **kwargs):
        return observe(sql, params,
                       lambda: execute(sql, params, **kwargs))

    middleware.mediator.execute = watched


def log_statements(middleware) -> list:
    """The ``(sql, params)`` of every mediator statement, as they run."""
    statements = []
    watch_mediator(middleware, lambda sql, params, run: (
        statements.append((sql, params)), run())[1])
    return statements


# ----------------------------------------------------------------------
# (a) a collect node's output is the statement's rows plus __id
# ----------------------------------------------------------------------
MIXED_ROWS = [(None, 1, "a"), (7, 2.5, "héllo wörld ✓"), (-3, None, ""),
              (2 ** 40, 1e-9, "日本語"), (0, 0.0, None), (-3, None, "")]


@pytest.mark.parametrize("distinct", ["", "DISTINCT "])
def test_handle_equals_fetched_result(distinct):
    mediator = Mediator()
    mediator.create_temp_table(["x", "y", "z"], MIXED_ROWS, "src")
    sql = (f'SELECT {distinct}* FROM (SELECT "x", "y", "z", 0 AS __group '
           f'FROM "src" UNION ALL SELECT "x", "y", "z", 1 FROM "src")')
    expected = _with_ids(mediator.execute(sql))

    graph = QueryDependencyGraph()
    graph.add(QueryNode(name="c", source=MEDIATOR_NAME, kind="collect",
                        raw_sql=sql,
                        output_columns=("x", "y", "z", "__group")))
    engine = Engine(graph, {MEDIATOR_NAME: ["c"]}, {}, Network.mbps(1.0),
                    mediator=mediator)
    try:
        output = engine.run({}).cache["c"]
        assert type(output) is ResultSet
        assert output.columns == expected.columns
        assert len(output) == len(expected) == (12 if not distinct else 10)
        assert output.width_bytes() == expected.width_bytes()
        assert output.rows == expected.rows
        assert [type(v) for row in output.rows for v in row] == \
            [type(v) for row in expected.rows for v in row]
    finally:
        engine.cleanup()
    assert cache_tables(mediator) == []
    mediator.close()


def test_empty_collect_prices_to_zero():
    mediator = Mediator()
    graph = QueryDependencyGraph()
    graph.add(QueryNode(name="c", source=MEDIATOR_NAME, kind="collect",
                        raw_sql="SELECT NULL AS v, NULL AS __group WHERE 0",
                        output_columns=("v", "__group")))
    engine = Engine(graph, {MEDIATOR_NAME: ["c"]}, {}, Network.mbps(1.0),
                    mediator=mediator)
    try:
        output = engine.run({}).cache["c"]
        assert (len(output), output.width_bytes(), output.rows) == (0, 0, [])
    finally:
        engine.cleanup()
    mediator.close()


# ----------------------------------------------------------------------
# (b) a guard is one statement over the cached source outputs
# ----------------------------------------------------------------------
def test_guards_read_collects_without_a_round_trip():
    tracer = Tracer()
    middleware = Middleware(build_group_aig(), group_sources(),
                            tracer=tracer)
    statements = log_statements(middleware)
    report = middleware.evaluate({"run": "r"})
    assert report.violations == []
    graph = middleware._last_graph
    guards = [n for n in graph.nodes.values() if n.kind == "guard"]
    # a merged node caches one slice per member
    source_outputs = [member for n in graph.nodes.values()
                      if n.source != MEDIATOR_NAME
                      for member in getattr(n, "members", None) or (n,)]
    assert not [n for n in graph.nodes.values() if n.kind == "collect"]
    # one mediator statement per constraint, each reading source outputs
    assert len(statements) == len(guards) == \
        len(middleware.aig.constraints) == 7
    assert not [sql for sql, _ in statements if "INSERT" in sql.upper()]
    for guard in guards:
        assert {graph.node_for(name).source for name in guard.inputs} == {"S"}
    metrics = tracer.metrics
    # only what the sources produced is shipped into the mediator ...
    assert metrics.counter("mediator_cache_tables") == len(source_outputs)
    # ... and nothing is shipped anywhere else
    assert metrics.counter("temp_tables_created") == 0
    assert cache_tables(middleware.mediator) == []
    conceptual = ConceptualEvaluator(
        middleware.aig, list(middleware.sources.values())).evaluate(
            {"run": "r"})
    assert serialize(report.document) == serialize(conceptual)


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

    graph, cache = middleware._last_graph, middleware._last_result.cache
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
    kept = [entry.outputs[name] for name, entry in store.entries.items()
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


def test_mediator_fault_at_every_statement_leaves_no_cache_tables():
    """Fail the N-th mediator statement for every N the run reaches."""
    failures = 0
    for index in range(1, 200):
        middleware = Middleware(build_group_aig(), group_sources())
        injector = FaultInjector.from_spec(
            f"{MEDIATOR_NAME}:error@{index}").install(
                {MEDIATOR_NAME: middleware.mediator})
        try:
            middleware.evaluate({"run": "r"})
        except EvaluationError:
            failures += 1
        assert cache_tables(middleware.mediator) == [], f"statement {index}"
        if not injector.fired:
            break
    else:
        pytest.fail("the run never got past the injected fault")
    # 2 source outputs cached + 7 guards
    assert failures == 9


def test_retry_after_a_mediator_fault_reuses_the_table_and_recovers():
    expected = serialize(Middleware(build_group_aig(), group_sources())
                         .evaluate({"run": "r"}).document)
    for index in range(1, 200):
        middleware = Middleware(
            build_group_aig(), group_sources(),
            retry_policy=RetryPolicy(retries=1, base_delay=0.0001))
        injector = FaultInjector.from_spec(
            f"{MEDIATOR_NAME}:error@{index}").install(
                {MEDIATOR_NAME: middleware.mediator})
        report = middleware.evaluate({"run": "r"})
        assert serialize(report.document) == expected, f"statement {index}"
        assert cache_tables(middleware.mediator) == [], f"statement {index}"
        if not injector.fired:
            break
    else:
        pytest.fail("the run never got past the injected fault")


# ----------------------------------------------------------------------
# (f) root attribute values are bound into mediator SQL, never spliced
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


def hdr_middleware(a=inh("p")):
    """``hdr(a, b)`` copied from the root attributes ``p`` and ``q``, under
    the key ``root(hdr.(a, b) -> hdr)`` whose bag is made of root values;
    returns the middleware and the mediator statements it runs."""
    aig = AIG(parse_dtd(HDR_DTD), Catalog([HDR_SCHEMA]), root_inh=("p", "q"))
    aig.inh("hdr", "p", "q")
    aig.rule("root", inh={"hdr": assign(p=inh("p"), q=inh("q")),
                          "items": assign()})
    aig.rule("hdr", inh={"a": assign(val=a), "b": assign(val=inh("q"))})
    aig.rule("items", inh={"item": query("select t.x as val from S:t t")})
    aig.key("root", "hdr", ("a", "b"))
    source = DataSource(HDR_SCHEMA)
    source.load_rows("t", [("1",), ("2",)])
    middleware = Middleware(aig.validate(), {"S": source},
                            violation_mode="report")
    return middleware, log_statements(middleware)


def conceptual(middleware, root):
    evaluator = ConceptualEvaluator(
        specialize(middleware.aig).aig, list(middleware.sources.values()),
        violation_mode="report")
    return serialize(evaluator.evaluate(dict(root))), evaluator.violations


@pytest.mark.parametrize("q", [
    "z", " || (SELECT group_concat(name) FROM sqlite_master) || "])
def test_a_root_value_that_names_a_slot_is_data(q):
    root = {"p": "{root:q}", "q": q}
    middleware, statements = hdr_middleware()
    report = middleware.evaluate(dict(root))
    document = serialize(report.document)
    assert f"<a>{{root:q}}</a><b>{q}</b>" in document
    # the bag is the two values as bound, in one pass over the template
    ((sql, params),) = statements
    assert params == ("{root:q}", q) and sql.count("?") == 2
    assert q not in sql and "{root:" not in sql
    assert (document, report.violations) == conceptual(middleware, root)


def test_a_plan_constant_that_names_a_slot_is_text():
    root = {"p": "unused", "q": "z"}
    middleware, statements = hdr_middleware(a=Const("it's {root:q}"))
    report = middleware.evaluate(dict(root))
    document = serialize(report.document)
    assert "<a>it&apos;s {root:q}</a><b>z</b>" in document
    ((sql, params),) = statements
    assert params == ("z",) and "'it''s {root:q}'" in sql
    assert (document, report.violations) == conceptual(middleware, root)

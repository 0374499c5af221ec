"""Mediator-resident collect results (docs/INTERNALS.md, "Collect nodes
and guards").

A collect node's output stays in the mediator table that computed it; the
engine cache holds a handle.  These tests pin the handle to what the old
fetch + ``_with_ids`` path produced, show that nothing round-trips through
Python when every consumer is at the mediator, that the rows *are* pulled
for consumers outside it (another source, the incremental store), and that
no failure path strands a ``cache_*`` table.
"""

import pytest

from repro.aig import AIG, ConceptualEvaluator, assign, inh, query
from repro.dtd import parse_dtd
from repro.errors import EvaluationAborted, EvaluationError
from repro.hospital import build_hospital_aig, make_sources
from repro.obs import Tracer
from repro.optimizer.qdg import QueryDependencyGraph, QueryNode
from repro.relational import Network
from repro.relational.schema import Catalog, SourceSchema, relation
from repro.relational.source import (MEDIATOR_NAME, DataSource, Mediator,
                                     ResidentResult)
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


# ----------------------------------------------------------------------
# (a) the handle equals what execute + _with_ids produced
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
    tracer = Tracer()
    engine = Engine(graph, {MEDIATOR_NAME: ["c"]}, {}, Network.mbps(1.0),
                    mediator=mediator, tracer=tracer)
    try:
        handle = engine.run({}).cache["c"]
        assert isinstance(handle, ResidentResult) and handle.resident
        assert handle.columns == expected.columns
        assert len(handle) == len(expected) == (12 if not distinct else 10)
        assert handle.width_bytes() == expected.width_bytes()
        assert tracer.metrics.counter("mediator_rows_fetched") == 0
        assert handle.rows == expected.rows     # pulls them, once
        assert not handle.resident
        assert [type(v) for row in handle.rows for v in row] == \
            [type(v) for row in expected.rows for v in row]
        assert tracer.metrics.counter("mediator_rows_fetched") == \
            len(expected)
        assert handle.rows is handle.rows
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
        handle = engine.run({}).cache["c"]
        assert (len(handle), handle.width_bytes(), handle.rows) == (0, 0, [])
    finally:
        engine.cleanup()
    mediator.close()


# ----------------------------------------------------------------------
# (b) collect -> guard never round-trips through Python
# ----------------------------------------------------------------------
def test_guards_read_collects_without_a_round_trip():
    tracer = Tracer()
    middleware = Middleware(build_group_aig(), group_sources(),
                            tracer=tracer)
    report = middleware.evaluate({"run": "r"})
    assert report.violations == []
    graph = middleware._last_graph
    collects = [n for n in graph.nodes.values() if n.kind == "collect"]
    # a merged node caches one slice per member
    source_outputs = [member for n in graph.nodes.values()
                      if n.source != MEDIATOR_NAME
                      for member in getattr(n, "members", None) or (n,)]
    assert len(collects) == 10
    metrics = tracer.metrics
    assert metrics.counter("mediator_rows_fetched") == 0
    assert metrics.counter("mediator_resident_results") == len(collects)
    # only what the sources produced is shipped into the mediator ...
    assert metrics.counter("mediator_cache_tables") == \
        len(collects) + len(source_outputs)
    # ... and nothing is shipped anywhere else
    assert metrics.counter("temp_tables_created") == 0
    for span in tracer.spans_by_category("collect"):
        assert span.attrs["resident"] is True
        assert span.attrs["rows"] == span.attrs["output_rows"]
    timings = middleware._last_result.timings
    assert all(timings[node.name].resident for node in collects)
    assert sum(timing.resident for timing in timings.values()) == \
        len(collects)
    assert cache_tables(middleware.mediator) == []
    conceptual = ConceptualEvaluator(
        middleware.aig, list(middleware.sources.values())).evaluate(
            {"run": "r"})
    assert serialize(report.document) == serialize(conceptual)


# ----------------------------------------------------------------------
# (c) a collect read by a source-side set parameter still ships its rows
# ----------------------------------------------------------------------
def _hospital(workers, **kwargs):
    sources = make_sources()
    load_tiny_hospital(sources)
    tracer = Tracer()
    middleware = Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                            unfold_depth=8, workers=workers, tracer=tracer,
                            **kwargs)
    return middleware, sources, tracer


@pytest.mark.parametrize("workers", [1, 4])
def test_source_side_set_parameter_gets_the_rows(workers):
    middleware, sources, tracer = _hospital(workers)
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
        assert not cache[name].resident
    assert tracer.metrics.counter("mediator_rows_fetched") == \
        sum(len(cache[name]) for name in shipped_out)
    assert cache_tables(middleware.mediator) == []


def test_workers_do_not_change_the_document():
    documents = {serialize(_hospital(workers)[0].evaluate(
        {"date": "d1"}).document) for workers in (1, 4)}
    assert len(documents) == 1


# ----------------------------------------------------------------------
# (d) the incremental store never keeps a handle to a dropped table
# ----------------------------------------------------------------------
def test_delta_run_replays_a_clean_collect_into_a_tainted_consumer():
    middleware, sources, tracer = _hospital(1, incremental=True)
    cold = middleware.evaluate({"date": "d1"})
    store = middleware._result_caches[cold.unfold_depth]
    kept = [result for entry in store.entries.values()
            for result in entry.outputs.values()
            if isinstance(result, ResidentResult)]
    assert kept and not any(result.resident for result in kept)

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
    """Fail the N-th mediator statement for every N the run reaches —
    including the INSERT and the pricing aggregate of each collect."""
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
    # 2 sources' outputs cached + 10 collects x 2 + 7 guards, at least
    assert failures >= 29


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

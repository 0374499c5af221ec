"""Decomposition-shape tests: four-source chains, cross products,
set-param anchored queries, and predicate placement."""

import pytest

from repro.relational import Catalog, SourceSchema, StatisticsCatalog, TableStats
from repro.relational.schema import relation
from repro.sqlq import parse_query, plan_steps
from repro.sqlq.analyze import sources_of, temp_inputs
from repro.sqlq.ast import (
    ColumnRef,
    Comparison,
    InSet,
    Literal,
    Param,
    TempTable,
)
from repro.sqlq.planner import left_deep_order


class TestFourSourceChain:
    QUERY = """
    select d.val
    from S1:a a, S2:b b, S3:c c, S4:d d
    where a.k = $start and b.k = a.ref and c.k = b.ref and d.k = c.ref
    """

    def test_four_steps(self):
        steps = plan_steps(parse_query(self.QUERY), "Q")
        assert [s.source for s in steps] == ["S1", "S2", "S3", "S4"]
        for index, step in enumerate(steps):
            if index:
                assert temp_inputs(step.query) == {steps[index - 1].name}

    def test_each_step_single_source(self):
        for step in plan_steps(parse_query(self.QUERY), "Q"):
            assert len(sources_of(step.query)) == 1

    def test_final_output_preserved(self):
        steps = plan_steps(parse_query(self.QUERY), "Q")
        assert steps[-1].query.output_names == ["val"]


class TestCrossProduct:
    def test_unjoined_tables_still_planned(self):
        query = parse_query(
            "select a.x, b.y from S1:a a, S2:b b where a.k = $k")
        steps = plan_steps(query, "Q")
        assert len(steps) == 2
        # the bound table comes first
        assert steps[0].source == "S1"

    def test_same_source_cross_product_one_step(self):
        query = parse_query("select a.x, b.y from S1:a a, S1:b b")
        steps = plan_steps(query, "Q")
        assert len(steps) == 1


class TestSetParamAnchored:
    def test_set_param_starts_chain(self):
        query = parse_query(
            "select b.price from $V v, S1:billing b where b.trId = v.trId")
        order = left_deep_order(query)
        assert order[0].alias == "v"

    def test_in_predicate_placed_with_its_table(self):
        query = parse_query(
            "select a.x, b.y from S1:a a, S2:b b "
            "where b.k = a.k and b.y in $V")
        steps = plan_steps(query, "Q")
        in_steps = [s for s in steps
                    if any(isinstance(p, InSet) for p in s.query.where)]
        assert len(in_steps) == 1
        assert "b" in {f.alias for f in in_steps[0].query.from_items}


class TestPredicatePlacement:
    def test_local_filters_stay_local(self):
        query = parse_query(
            "select c.v from S1:a a, S2:c c "
            "where a.k = $k and a.flag = 'on' and c.ref = a.k")
        steps = plan_steps(query, "Q")
        first_predicates = [str(p) for p in steps[0].query.where]
        assert any("flag" in p for p in first_predicates)
        assert all("c." not in p for p in first_predicates)

    def test_cardinality_guides_start(self):
        stats = StatisticsCatalog()
        stats.set_stats("S1", "big", TableStats(cardinality=100000))
        stats.set_stats("S2", "small", TableStats(cardinality=10))
        query = parse_query(
            "select b.x from S1:big b, S2:small s where b.k = s.k")
        order = left_deep_order(query, stats)
        assert order[0].alias == "s"


# ---------------------------------------------------------------------------
# the decomposer leaves nothing for a later pass to push down
# ---------------------------------------------------------------------------

def _column_refs(query):
    """Every ``ColumnRef`` in the select list and ``where`` of ``query``."""
    sides = [item.expr for item in query.select]
    for predicate in query.where:
        sides += ([predicate.left, predicate.right]
                  if isinstance(predicate, Comparison)
                  else [predicate.column])
    return [side for side in sides if isinstance(side, ColumnRef)]


def _intermediate_steps(graph, tagging_plan):
    """Decomposition steps whose output only their consumers read (a
    product node's query is a whole site query, not one of them)."""
    read_by_tagging = set(tagging_plan.table_of.values()) | set(
        tagging_plan.condition_of.values())
    multiplied = {node.inputs[0] for node in graph.nodes.values()
                  if node.kind == "product"}
    return [node for node in graph.nodes.values()
            if node.kind == "step" and not node.ship_to_mediator
            and node.name not in read_by_tagging | multiplied]


def _pushdown_left_undone(graph, tagging_plan):
    """``(steps looked at, what a pushdown pass could still rewrite)``."""
    findings = []
    steps = _intermediate_steps(graph, tagging_plan)
    for step in steps:
        consumers = graph.consumers(step.name)
        assert consumers and all(c.query is not None for c in consumers)
        used = set()
        for consumer in consumers:
            aliases = {item.alias for item in consumer.query.from_items
                       if isinstance(item, TempTable)
                       and item.producer == step.name}
            refs = [ref for ref in _column_refs(consumer.query)
                    if ref.table in aliases]
            used.update(ref.column for ref in refs)
            if len(consumers) > 1 or len(aliases) != 1 \
                    or step.query.distinct:
                continue
            bare = {item.alias for item in step.query.select
                    if isinstance(item.expr, ColumnRef)}
            for predicate in consumer.query.where:
                if not isinstance(predicate, Comparison):
                    continue
                for column, other in ((predicate.left, predicate.right),
                                      (predicate.right, predicate.left)):
                    constant = isinstance(other, Literal) or (
                        isinstance(other, Param)
                        and other.name in consumer.root_params)
                    if constant and column in refs and column.column in bare:
                        findings.append(f"{consumer.name}: {predicate} "
                                        f"belongs in {step.name}")
        for column in step.output_columns:
            if column not in used:
                findings.append(f"{step.name}: no consumer reads {column!r}")
    return len(steps), findings


def _hospital_plan(depth):
    from repro.hospital import build_hospital_aig, make_sources
    from repro.runtime.recursion import unfold_aig
    from tests.conftest import load_tiny_hospital
    sources = make_sources()
    load_tiny_hospital(sources)
    return [(unfold_aig(build_hospital_aig(), depth), sources)]


def _fuzz_plans(seeds):
    from repro.fuzz.generator import generate_scenario
    from repro.fuzz.spec import build_scenario
    return (build_scenario(generate_scenario(seed)) for seed in seeds)


class TestDecomposerSubsumesPushdown:
    """What ``optimizer/pushdown.py`` checked on hand-built graphs, on the
    graphs ``build_qdg`` emits: §3.4's left-deep decomposition already
    projects from every intermediate step exactly what later steps read,
    and homes every predicate in the earliest step that covers it."""

    @pytest.mark.parametrize("scenarios", [
        pytest.param(lambda: _hospital_plan(2), id="hospital-depth-2"),
        pytest.param(lambda: _hospital_plan(8), id="hospital-depth-8"),
        pytest.param(lambda: _fuzz_plans(range(60)), id="fuzz-seeds-0-59"),
    ])
    def test_nothing_left_to_trim_or_move(self, scenarios):
        from repro.dtd.analysis import recursive_types
        from repro.runtime import Middleware
        looked_at, findings = 0, []
        for aig, sources in scenarios():
            depth = 4 if recursive_types(aig.dtd) else None
            prepared = Middleware(aig, sources,
                                  merging=False).prepare(depth)
            steps, found = _pushdown_left_undone(prepared.graph,
                                                 prepared.tagging_plan)
            looked_at += steps
            findings += found
            for source in sources.values():
                source.close()
        assert looked_at >= 1, "no intermediate step: the check is vacuous"
        assert findings == []

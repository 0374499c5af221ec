"""Tests for the optimizer: QDG construction, cost model, Schedule, Merge."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError
from repro.relational import Network, StatisticsCatalog, TableStats
from repro.relational.source import MEDIATOR_NAME
from repro.compilation import specialize
from repro.optimizer import (
    CostModel,
    QueryDependencyGraph,
    QueryNode,
    build_qdg,
    merge,
    plan_cost,
    schedule,
)
from repro.optimizer.merge import MergedNode, merge_pair, unmerged_plan
from repro.optimizer.schedule import levels, naive_schedule
from repro.runtime import unfold_aig


def hospital_qdg(hospital_aig, depth=2):
    spec = specialize(unfold_aig(hospital_aig, depth))
    return build_qdg(spec)


def synthetic_stats():
    stats = StatisticsCatalog()
    for source, table, card in [("DB1", "patient", 2500),
                                ("DB1", "visitInfo", 11371),
                                ("DB2", "cover", 2224),
                                ("DB3", "billing", 175),
                                ("DB4", "treatment", 175),
                                ("DB4", "procedure", 441)]:
        stats.set_stats(source, table, TableStats(cardinality=card))
    return stats


def chain_graph(lengths):
    """A synthetic QDG: one chain per (source, length) pair."""
    graph = QueryDependencyGraph()
    from repro.sqlq.parser import parse_query
    for chain_index, (source, length) in enumerate(lengths):
        previous = None
        for step in range(length):
            name = f"c{chain_index}.q{step}"
            query = parse_query(f"select t.a from {source}:t t")
            node = QueryNode(name=name, source=source, kind="step",
                             query=query,
                             inputs=(previous,) if previous else (),
                             output_columns=("a",),
                             ship_to_mediator=(step == length - 1))
            graph.add(node)
            previous = name
    return graph


class TestQDGConstruction:
    def test_builds_dag(self, hospital_aig):
        graph, plan = hospital_qdg(hospital_aig)
        assert graph.is_acyclic()
        assert len(graph) > 8

    def test_single_source_nodes(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig)
        from repro.sqlq.analyze import sources_of
        for node in graph.nodes.values():
            if node.query is not None:
                assert len(sources_of(node.query)) <= 1

    def test_tagging_plan_covers_iterations(self, hospital_aig):
        graph, plan = hospital_qdg(hospital_aig)
        tabled_paths = {o.path for o in plan.tree.tabled}
        assert set(plan.table_of) == tabled_paths

    def test_guard_nodes_present(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig)
        guards = [n for n in graph.nodes.values() if n.kind == "guard"]
        assert len(guards) == 2
        assert all(n.source == MEDIATOR_NAME for n in guards)

    def test_collect_nodes_shared(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig)
        collects = [n for n in graph.nodes.values() if n.kind == "collect"]
        # only the set parameter a query reads; the key bag and the
        # inclusion's two sides are read in place by their guards
        assert [n.name.rsplit(".", 1)[-1] for n in collects] == ["trIdS"]
        guards = [n for n in graph.nodes.values() if n.kind == "guard"]
        assert len(guards) == 2
        for guard in guards:
            assert guard.inputs
            assert {graph.node_for(name).kind
                    for name in guard.inputs} == {"step"}

    def test_recursive_aig_rejected(self, hospital_aig):
        spec = specialize(hospital_aig)
        with pytest.raises(PlanError):
            build_qdg(spec)

    def test_root_params_only_on_root_bound_queries(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig)
        rooted = [n for n in graph.nodes.values() if n.root_params]
        # Q1 and the first treatments step bind $date
        assert rooted
        for node in rooted:
            assert set(node.root_params.values()) == {"date"}


class TestCostModel:
    def test_estimates_all_nodes(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig)
        model = CostModel(synthetic_stats())
        estimates = model.estimate_graph(graph)
        assert set(estimates) == set(graph.nodes)
        for estimate in estimates.values():
            assert estimate.cardinality >= 0
            assert estimate.eval_seconds > 0

    def test_join_selectivity_reduces_cardinality(self):
        from repro.sqlq.parser import parse_query
        model = CostModel(synthetic_stats())
        product = parse_query("select p.SSN from DB1:patient p, DB1:visitInfo v")
        joined = parse_query("select p.SSN from DB1:patient p, DB1:visitInfo v "
                             "where p.SSN = v.SSN")
        card_product = model._estimate_query(product, {}).cardinality
        card_joined = model._estimate_query(joined, {}).cardinality
        assert card_joined < card_product

    def test_distinct_caps_cardinality(self):
        from repro.sqlq.parser import parse_query
        stats = StatisticsCatalog()
        stats.set_stats("DB1", "t", TableStats(1000, {"a": 5}))
        model = CostModel(stats)
        plain = parse_query("select t.a from DB1:t t")
        distinct = parse_query("select distinct t.a from DB1:t t")
        assert model._estimate_query(distinct, {}).cardinality <= 5
        assert model._estimate_query(plain, {}).cardinality == 1000

    def test_merged_estimate_discounts_internal_inputs(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig)
        model = CostModel(synthetic_stats())
        estimates = model.estimate_graph(graph)
        # find a dependent same-source pair
        for name, node in graph.nodes.items():
            for producer in node.inputs:
                if producer in graph.nodes and \
                        graph.nodes[producer].source == node.source and \
                        node.kind == "step" and \
                        graph.nodes[producer].kind == "step":
                    merged_graph = merge_pair(graph, producer, name)
                    merged_node = next(
                        n for n in merged_graph.nodes.values()
                        if isinstance(n, MergedNode))
                    merged_estimate = model.estimate_merged(merged_node,
                                                            estimates)
                    separate = (estimates[producer].eval_seconds
                                + estimates[name].eval_seconds)
                    assert merged_estimate.eval_seconds < separate
                    return
        pytest.skip("no dependent same-source pair in this graph")


class TestSchedule:
    def setup_method(self):
        self.network = Network.mbps(1.0)

    def test_plan_covers_all_nodes(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig)
        model = CostModel(synthetic_stats())
        estimates = model.estimate_graph(graph)
        plan = schedule(graph, estimates, self.network)
        scheduled = {name for seq in plan.values() for name in seq}
        assert scheduled == set(graph.nodes)

    def test_respects_same_source_dependencies(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig)
        model = CostModel(synthetic_stats())
        plan = schedule(graph, model.estimate_graph(graph), self.network)
        for source, sequence in plan.items():
            position = {name: i for i, name in enumerate(sequence)}
            for name in sequence:
                for producer in graph.producer_names(graph.nodes[name]):
                    if producer in position:
                        assert position[producer] < position[name]

    def test_levels_decrease_along_edges(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig)
        model = CostModel(synthetic_stats())
        estimates = model.estimate_graph(graph)
        priority = levels(graph, estimates, self.network)
        for node in graph.nodes.values():
            for producer in graph.producer_names(node):
                assert priority[producer] > priority[node.name]

    def test_schedule_beats_or_ties_naive(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig, depth=4)
        model = CostModel(synthetic_stats())
        estimates = model.estimate_graph(graph)
        good = plan_cost(graph, schedule(graph, estimates, self.network),
                         estimates, self.network)
        naive = plan_cost(graph, naive_schedule(graph), estimates,
                          self.network)
        assert good <= naive * 1.0001

    def test_plan_cost_requires_consistency(self):
        graph = chain_graph([("DB1", 2)])
        model = CostModel(StatisticsCatalog())
        estimates = model.estimate_graph(graph)
        bad_plan = {"DB1": ["c0.q1", "c0.q0"]}  # inverted order
        with pytest.raises(PlanError):
            plan_cost(graph, bad_plan, estimates, self.network)

    def test_parallel_sources_overlap(self):
        # two independent chains on different sources should overlap: the
        # plan cost is far less than the serial sum
        graph = chain_graph([("DB1", 3), ("DB2", 3)])
        model = CostModel(StatisticsCatalog())
        estimates = model.estimate_graph(graph)
        network = Network.mbps(1000.0)
        plan = schedule(graph, estimates, network)
        cost = plan_cost(graph, plan, estimates, network)
        serial = sum(e.eval_seconds for e in estimates.values())
        assert cost < serial * 0.75

    def test_recurrence_over_the_measurements_of_a_finished_run(self):
        """``run_cost`` on a hand-built plan with fixed timings — no clock.

        1000 B/s, 0.5 s latency: a hop to or from the mediator costs
        0.5 + B/1000, source to source twice that.  Overhead is 0.25 per
        query + 5e-4 per input row + 1e-4 per output row; 0.01 at the
        mediator.

            DB1: a (replayed from the cache), b <- a
            DB2: m = merge(c+d) <- b, then e <- d
            Mediator: g <- c, a
        """
        from repro.optimizer.cost import run_cost
        from repro.relational.source import ResultSet
        from repro.runtime.engine import NodeTiming

        graph = QueryDependencyGraph()
        graph.add(QueryNode("a", "DB1", "step", ship_to_mediator=True))
        graph.add(QueryNode("b", "DB1", "step", inputs=("a",)))
        members = (QueryNode("c", "DB2", "step", ship_to_mediator=True),
                   QueryNode("d", "DB2", "step"))
        graph.add(MergedNode("m", "DB2", "merged", inputs=("b",),
                             ship_to_mediator=True, members=members))
        graph.aliases.update(c="m", d="m")
        graph.add(QueryNode("e", "DB2", "step", inputs=("d",),
                            ship_to_mediator=True))
        graph.add(QueryNode("g", MEDIATOR_NAME, "collect",
                            inputs=("c", "a")))
        plan = {"DB1": ["a", "b"], "DB2": ["m", "e"], MEDIATOR_NAME: ["g"]}

        def result(rows):           # 10 bytes a row
            return ResultSet(["v"], [("x" * 8,)] * rows)

        cache = {"a": result(10), "b": result(50), "c": result(30),
                 "d": result(20), "m": result(2), "e": result(25),
                 "g": result(1)}
        timings = {
            "a": NodeTiming("a", "DB1", 0.0, 0.0, 10, 100, cached=True),
            "b": NodeTiming("b", "DB1", 2.0, 0.0, 0, 500),
            "m": NodeTiming("m", "DB2", 1.0, 0.0, 2500, 520,
                            rows_materialized=1000),
            "e": NodeTiming("e", "DB2", 0.5, 0.0, 0, 250),
            "g": NodeTiming("g", MEDIATOR_NAME, 0.1, 0.0, 0, 10),
        }
        response, shipped = run_cost(graph, plan, timings, cache,
                                     Network(1000.0, 0.5))

        overheads = {name: t.overhead_seconds for name, t in timings.items()}
        assert overheads == pytest.approx(
            {"a": 0.0, "b": 0.25, "m": 0.25 + 0.5 + 0.25, "e": 0.25,
             "g": 0.01})
        completions = {name: t.completion for name, t in timings.items()}
        assert completions == pytest.approx({
            "a": 0.0,                    # replayed: done at 0, lane free
            "b": 0.0 + 2.0 + 0.25,       # a is local, DB1 idle
            # b's 500 B cross DB1 -> Mediator -> DB2: 2 * (0.5 + 0.5)
            "m": 2.25 + 2.0 + 1.0 + 1.0,
            "e": 6.25 + 0.5 + 0.25,      # waits for m on its lane; d local
            # c's 300 B arrive at 6.25 + 0.8; a's 100 B at 0 + 0.6
            "g": 7.05 + 0.1 + 0.01,
        })
        # final hops: m ships its members' 300 + 200 B (7.25), e 250 B
        # (7.0 + 0.75); a is already at the mediator, b and g never ship
        assert response == pytest.approx(7.75)
        assert shipped == 500 + (300 + 100) + 500 + 250


class TestMerge:
    def setup_method(self):
        self.network = Network.mbps(1.0)

    def test_merge_reduces_or_keeps_cost(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig, depth=4)
        model = CostModel(synthetic_stats())
        _, baseline_cost, _ = unmerged_plan(graph, model, self.network)
        merged_graph, plan, merged_cost, _ = merge(graph, model, self.network)
        assert merged_cost <= baseline_cost
        assert len(merged_graph) <= len(graph)

    def test_merge_keeps_dag(self, hospital_aig):
        graph, _ = hospital_qdg(hospital_aig, depth=3)
        model = CostModel(synthetic_stats())
        merged_graph, _, _, _ = merge(graph, model, self.network)
        assert merged_graph.is_acyclic()

    def test_merge_pair_rewires_consumers(self):
        graph = chain_graph([("DB1", 3)])
        merged = merge_pair(graph, "c0.q0", "c0.q1")
        assert len(merged) == 2
        consumer = merged.nodes["c0.q2"]
        (producer,) = merged.producer_names(consumer)
        assert producer.startswith("merge(")

    def test_merge_pair_requires_same_source(self):
        graph = chain_graph([("DB1", 1), ("DB2", 1)])
        with pytest.raises(PlanError):
            merge_pair(graph, "c0.q0", "c1.q0")

    def test_cycle_producing_merge_rejected_by_driver(self):
        # A -> B -> C with A, C on DB1: merging A+C creates a cycle through B
        from repro.sqlq.parser import parse_query
        graph = QueryDependencyGraph()
        graph.add(QueryNode("A", "DB1", "step",
                            parse_query("select t.a from DB1:t t"),
                            inputs=(), output_columns=("a",)))
        graph.add(QueryNode("B", "DB2", "step",
                            parse_query("select t.a from DB2:t t"),
                            inputs=("A",), output_columns=("a",)))
        graph.add(QueryNode("C", "DB1", "step",
                            parse_query("select t.a from DB1:t t"),
                            inputs=("B",), output_columns=("a",)))
        trial = merge_pair(graph, "A", "C")
        assert not trial.is_acyclic()

    def test_flattening_of_nested_merges(self):
        graph = chain_graph([("DB1", 3)])
        once = merge_pair(graph, "c0.q0", "c0.q1")
        merged_name = next(n for n in once.nodes if n.startswith("merge("))
        twice = merge_pair(once, merged_name, "c0.q2")
        node = next(n for n in twice.nodes.values()
                    if isinstance(n, MergedNode))
        assert len(node.members) == 3

    def test_aliases_resolve_transitively(self):
        graph = chain_graph([("DB1", 3)])
        once = merge_pair(graph, "c0.q0", "c0.q1")
        merged_name = next(n for n in once.nodes if n.startswith("merge("))
        twice = merge_pair(once, merged_name, "c0.q2")
        final_name = next(n for n in twice.nodes if n.startswith("merge("))
        assert twice.resolve("c0.q0") == final_name

    @settings(deadline=None, max_examples=15)
    @given(lengths=st.lists(
        st.tuples(st.sampled_from(["DB1", "DB2", "DB3"]),
                  st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=4))
    def test_merge_never_increases_cost(self, lengths):
        graph = chain_graph(lengths)
        model = CostModel(StatisticsCatalog())
        network = Network.mbps(1.0)
        _, baseline, _ = unmerged_plan(graph, model, network)
        _, _, merged_cost, _ = merge(graph, model, network)
        assert merged_cost <= baseline + 1e-9

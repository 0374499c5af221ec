"""Unit tests for runtime internals: engine mechanics and the tagging phase."""

import pytest

from repro.errors import PlanError
from repro.compilation import specialize
from repro.optimizer import CostModel, build_qdg, merge, schedule
from repro.optimizer.merge import merge_pair, MergedNode
from repro.relational import (DataSource, Network, ResultSet,
                              SourceSchema, StatisticsCatalog)
from repro.relational.schema import relation
from repro.relational.source import MEDIATOR_NAME
from repro.runtime import Middleware, unfold_aig
from repro.runtime.engine import Engine, ID_COLUMN, _with_ids
from repro.runtime.tagging import _Table, build_document
from repro.xmlmodel import conforms_to


def build_pipeline(hospital_aig, sources, merging=False, depth=3):
    stats = StatisticsCatalog.from_sources(list(sources.values()))
    spec = specialize(unfold_aig(hospital_aig, depth), stats)
    graph, tagging_plan = build_qdg(spec, stats)
    model = CostModel(stats)
    network = Network.mbps(1.0)
    if merging:
        graph, plan, _, _ = merge(graph, model, network)
    else:
        estimates = model.estimate_graph(graph)
        plan = schedule(graph, estimates, network)
    return graph, plan, tagging_plan, network


class TestEngine:
    def test_with_ids_appends_unique_ids(self):
        result = _with_ids(ResultSet(["a"], [("x",), ("y",)]))
        assert result.columns == ["a", ID_COLUMN]
        assert result.column(ID_COLUMN) == [1, 2]

    def test_with_ids_idempotent(self):
        once = _with_ids(ResultSet(["a"], [("x",)]))
        assert _with_ids(once) is once

    def test_cache_holds_every_node_output(self, hospital_aig, tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        for name in graph.nodes:
            assert name in result.cache

    def test_merged_member_slices_cached_separately(self, hospital_aig,
                                                    tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(
            hospital_aig, tiny_sources, merging=True)
        merged_names = [name for name, node in graph.nodes.items()
                        if isinstance(node, MergedNode)]
        if not merged_names:
            pytest.skip("merge found no beneficial pair on this graph")
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        for name in merged_names:
            for member in graph.nodes[name].members:
                assert member.name in result.cache
                assert ID_COLUMN in result.cache[member.name].columns

    def test_timings_and_bytes_recorded(self, hospital_aig, tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        assert result.queries_executed == len(graph)
        assert result.response_time > 0
        assert all(t.eval_seconds >= 0 for t in result.timings.values())

    def test_bad_plan_rejected(self, hospital_aig, tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        broken = {source: [] for source in plan}
        with pytest.raises(PlanError):
            Engine(graph, broken, tiny_sources, network).run({"date": "d1"})

    def test_overhead_affects_clock_not_wall(self, hospital_aig,
                                             tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        cheap = Engine(graph, plan, tiny_sources, network,
                       query_overhead=0.0).run({"date": "d1"})
        costly = Engine(graph, plan, tiny_sources, network,
                        query_overhead=2.0).run({"date": "d1"})
        assert costly.response_time > cheap.response_time + 1.0

    def test_mediator_nodes_run_without_shipping(self, hospital_aig,
                                                 tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        mediator_nodes = [t for t in result.timings.values()
                          if t.source == MEDIATOR_NAME]
        assert mediator_nodes  # collect + guard nodes


class TestShipOnce:
    def test_shared_registry_creates_table_once(self):
        source = DataSource(SourceSchema("P", (relation("r", "a"),)))
        engine = Engine.__new__(Engine)   # only _materialize_inputs needed
        cache = {"n": ResultSet(["a"], [(1,), (2,)])}
        shipped = {}
        first, rows_first = engine._materialize_inputs(
            ["n"], source, cache, shipped)
        second, rows_second = engine._materialize_inputs(
            ["n"], source, cache, shipped)
        assert first == second                   # same physical table reused
        assert rows_first == rows_second == 2    # modeled charge per consumer
        assert source._temp_counter == 1
        source.close()


class TestTaggingTable:
    def test_grouping_by_parent(self):
        result = ResultSet(["v", "__parent", "__id"],
                           [("b", 1, 10), ("a", 1, 11), ("c", 2, 12)])
        table = _Table(result, ["v"])
        assert [row[0] for row in table.rows_for(1)] == ["a", "b"]
        assert [row[0] for row in table.rows_for(2)] == ["c"]
        assert table.rows_for(99) == []

    def test_no_parent_column_single_group(self):
        result = ResultSet(["v", "__id"], [("x", 1), ("y", 2)])
        table = _Table(result, ["v"])
        assert len(table.rows_for(None)) == 2

    def test_sort_none_first(self):
        result = ResultSet(["v", "__id"], [("b", 1), (None, 2), ("a", 3)])
        table = _Table(result, ["v"])
        assert [row[0] for row in table.rows_for(None)] == [None, "a", "b"]

    def test_value_accessor(self):
        result = ResultSet(["v", "w", "__id"], [("x", "y", 1)])
        table = _Table(result, [])
        row = table.rows_for(None)[0]
        assert row[table.index_of("w")] == "y"


class TestTaggingDocument:
    def test_rebuild_from_cache(self, hospital_aig, tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        document = build_document(tagging_plan, result.cache, {"date": "d1"})
        # tags still carry unfolding suffixes at this stage
        assert document.tag.startswith("report")
        from repro.runtime import strip_unfolding
        strip_unfolding(document)
        assert conforms_to(document, hospital_aig.dtd)

    def test_missing_table_reported(self, hospital_aig, tiny_sources):
        from repro.errors import EvaluationError
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        cache = dict(result.cache)
        victim = next(iter(tagging_plan.table_of.values()))
        del cache[victim]
        with pytest.raises(EvaluationError):
            build_document(tagging_plan, cache, {"date": "d1"})

    def test_tagging_is_pure(self, hospital_aig, tiny_sources):
        """Tagging twice from the same cache yields equal documents."""
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        first = build_document(tagging_plan, result.cache, {"date": "d1"})
        second = build_document(tagging_plan, result.cache, {"date": "d1"})
        assert first == second

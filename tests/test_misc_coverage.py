"""Coverage for smaller behaviors: file-backed sources, Middleware.prepare,
plan-cost monotonicity, statistics details, serializer edge cases."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.compilation import specialize
from repro.optimizer import CostModel, build_qdg, plan_cost, schedule
from repro.relational import (
    DataSource,
    Network,
    SourceSchema,
    StatisticsCatalog,
)
from repro.relational.schema import relation
from repro.runtime import Middleware, unfold_aig
from repro.xmlmodel import element, parse_xml, serialize


class TestFileBackedSources:
    def test_roundtrip_through_disk(self, tmp_path):
        path = str(tmp_path / "db1.sqlite")
        schema = SourceSchema("DB1", (relation("t", "a", "b"),))
        source = DataSource(schema, backend=f"sqlite:{path}")
        source.load_rows("t", [("x", "1"), ("y", "2")])
        source.close()
        reopened = DataSource.__new__(DataSource)
        # reopening must not recreate tables: connect directly
        import sqlite3
        connection = sqlite3.connect(path)
        rows = connection.execute("SELECT * FROM t ORDER BY a").fetchall()
        assert rows == [("x", "1"), ("y", "2")]
        connection.close()
        assert os.path.exists(path)

    def test_federation_attaches_file_sources(self, tmp_path):
        from repro.relational import Federation
        path = str(tmp_path / "db2.sqlite")
        schema = SourceSchema("DB2", (relation("t", "a"),))
        source = DataSource(schema, backend=f"sqlite:{path}")
        source.load_rows("t", [("z",)])
        federation = Federation([source])
        result = federation.execute('SELECT a FROM "DB2"."t"')
        assert result.rows == [("z",)]


class TestMiddlewarePrepare:
    def test_prepare_exposes_optimization_artifacts(self, hospital_aig,
                                                    tiny_sources):
        middleware = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0))
        prepared = middleware.prepare(3)
        graph = prepared.graph
        assert (prepared.depth, prepared.merged) == (3, True)
        assert len(graph) > 5
        assert prepared.cost > 0
        assert set(prepared.estimates) >= set(graph.nodes)
        scheduled = {name for seq in prepared.plan.values() for name in seq}
        assert scheduled == set(graph.nodes)

    def test_prepare_without_merging(self, hospital_aig, tiny_sources):
        merged = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                            merging=True).prepare(3)
        plain = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                           merging=False).prepare(3)
        assert len(merged.graph) <= len(plain.graph)
        assert merged.cost <= plain.cost + 1e-9
        assert not plain.merged


class TestPlanCostProperties:
    def make(self, hospital_aig, tiny_sources):
        stats = StatisticsCatalog.from_sources(list(tiny_sources.values()))
        spec = specialize(unfold_aig(hospital_aig, 2), stats)
        graph, _ = build_qdg(spec, stats)
        estimates = CostModel(stats).estimate_graph(graph)
        return graph, estimates

    def test_cost_decreases_with_bandwidth(self, hospital_aig, tiny_sources):
        graph, estimates = self.make(hospital_aig, tiny_sources)
        for mbps in (0.1, 0.5, 2.0, 10.0, 50.0):
            slow = Network.mbps(mbps)
            fast = Network.mbps(mbps * 4)
            slow_cost = plan_cost(graph, schedule(graph, estimates, slow),
                                  estimates, slow)
            fast_cost = plan_cost(graph, schedule(graph, estimates, fast),
                                  estimates, fast)
            assert fast_cost <= slow_cost + 1e-9

    def test_cost_at_least_critical_eval_path(self, hospital_aig,
                                              tiny_sources):
        graph, estimates = self.make(hospital_aig, tiny_sources)
        network = Network.mbps(1000.0)
        plan = schedule(graph, estimates, network)
        cost = plan_cost(graph, plan, estimates, network)
        assert cost >= max(e.eval_seconds for e in estimates.values())


class TestStatisticsDetails:
    def test_distinct_counts(self):
        from repro.relational.statistics import collect_stats
        schema = SourceSchema("DB", (relation("t", "a", "b"),))
        source = DataSource(schema)
        source.load_rows("t", [("x", "1"), ("x", "2"), ("y", "3")])
        stats = collect_stats(source)["t"]
        assert stats.distinct_count("a") == 2
        assert stats.distinct_count("b") == 3


class TestSerializerEdgeCases:
    def test_deep_nesting_roundtrip(self):
        node = element("l0")
        cursor = node
        for depth in range(1, 60):
            cursor = cursor.append(element(f"l{depth}"))
        cursor.append(element("leaf", "x"))
        assert parse_xml(serialize(node)) == node
        assert parse_xml(serialize(node, indent=1)) == node

    def test_unicode_text(self):
        tree = element("a", element("b", "héllo — ‹мир› 漢字"))
        assert parse_xml(serialize(tree)) == tree

    @given(st.text(alphabet="<>&\"' abc", max_size=30).filter(
        lambda s: s.strip()))
    def test_hostile_text_roundtrips(self, value):
        tree = element("a", element("b", value))
        assert parse_xml(serialize(tree)) == tree

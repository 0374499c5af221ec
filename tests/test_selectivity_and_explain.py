"""Tests for MCV-based selectivity estimation and Middleware.explain()."""

import re

import pytest

from repro.optimizer import CostModel
from repro.relational import (
    DataSource,
    Network,
    SourceSchema,
    StatisticsCatalog,
    TableStats,
    collect_stats,
)
from repro.relational.schema import relation
from repro.runtime import Middleware
from repro.sqlq import parse_query


def skewed_source():
    """A table where the value 'hot' covers 90% of rows."""
    source = DataSource(SourceSchema("DB", (relation("t", "k", "v"),)))
    rows = [(f"id{i}", "hot") for i in range(90)]
    rows += [(f"id{90 + i}", f"cold{i}") for i in range(10)]
    source.load_rows("t", rows)
    return source


class TestMCVCollection:
    def test_most_common_values_gathered(self):
        stats = collect_stats(skewed_source())["t"]
        assert stats.most_common["v"][0] == ("hot", 90)
        assert len(stats.most_common["v"]) <= 3

    def test_unique_column_has_no_mcvs(self):
        stats = collect_stats(skewed_source())["t"]
        assert "k" not in stats.most_common  # all-distinct: MCVs useless

    def test_mcv_collection_can_be_disabled(self):
        stats = collect_stats(skewed_source(), mcv_count=0)["t"]
        assert stats.most_common == {}


class TestEqualitySelectivity:
    def setup_method(self):
        self.stats = collect_stats(skewed_source())["t"]

    def test_hot_value_gets_high_selectivity(self):
        assert self.stats.equality_selectivity("v", "hot") == pytest.approx(0.9)

    def test_cold_value_gets_residual_selectivity(self):
        cold = self.stats.equality_selectivity("v", "cold0")
        assert cold < 0.05

    def test_without_mcvs_uniform(self):
        plain = TableStats(cardinality=100, distinct={"v": 11})
        assert plain.equality_selectivity("v", "anything") == \
            pytest.approx(1 / 11)

    def test_empty_table(self):
        assert TableStats(cardinality=0).equality_selectivity("v", "x") == 0.0


class TestCostModelUsesMCVs:
    def test_literal_predicates_differ_by_popularity(self):
        catalog = StatisticsCatalog.from_sources([skewed_source()])
        model = CostModel(catalog)
        hot = parse_query("select t.k from DB:t t where t.v = 'hot'")
        cold = parse_query("select t.k from DB:t t where t.v = 'cold0'")
        hot_card = model._estimate_query(hot, {}).cardinality
        cold_card = model._estimate_query(cold, {}).cardinality
        assert hot_card > 20 * cold_card
        assert hot_card == pytest.approx(90, rel=0.2)

    def test_param_predicates_stay_uniform(self):
        catalog = StatisticsCatalog.from_sources([skewed_source()])
        model = CostModel(catalog)
        param = parse_query("select t.k from DB:t t where t.v = $x")
        card = model._estimate_query(param, {}).cardinality
        # 100 rows / 11 distinct values
        assert card == pytest.approx(100 / 11, rel=0.01)


class TestExplain:
    def test_explain_contains_all_sections(self, hospital_aig, tiny_sources):
        middleware = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0))
        text = middleware.explain(3)
        assert "query dependency graph" in text
        assert "Algorithm Schedule" in text
        assert "predicted cost(P)" in text
        assert "unfolded to depth 3" in text
        assert "guard" in text and "collect" in text
        # a guard line says what it checks, in the constraint's own words
        assert "      unique  patient(item.trId -> item)\n" in text
        assert "      subset  patient(treatment.trId ⊆ item.trId)\n" in text

    def test_explain_shows_merges(self, hospital_aig, tiny_sources):
        merged = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                            merging=True).explain(4)
        assert "merged" in merged

    def test_explain_without_merging(self, hospital_aig, tiny_sources):
        plain = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                           merging=False).explain(4)
        assert "merging off" in plain

    def test_cli_explain(self, capsys):
        from repro.__main__ import main
        assert main(["explain", "--scale", "tiny", "--depth", "2"]) == 0
        assert "predicted cost(P)" in capsys.readouterr().out

    def test_explain_prints_no_measured_seconds(self, hospital_aig,
                                                tiny_sources):
        # the statistics read list is the plan's inputs, not its clock:
        # two explains of one plan are the same bytes
        middleware = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0))
        text = middleware.explain()
        assert "-- statistics read" in text
        assert [line for line in text.splitlines()
                if re.search(r"[0-9.]+s$", line)] == []
        assert middleware.explain() == text
        reads = middleware.explain(timed=True).split("-- statistics read")[1]
        assert all(re.search(r"  [0-9.]+s$", line)
                   for line in reads.splitlines()[1:])

    def test_cli_explain_analyze_prints_read_seconds(self, capsys):
        from repro.__main__ import main
        assert main(["explain", "--scale", "tiny", "--analyze"]) == 0
        out = capsys.readouterr().out
        reads = out.split("-- statistics read")[1].split("\n\n")[0]
        lines = reads.splitlines()[1:]
        assert lines and all(re.search(r"  [0-9.]+s$", line)
                             for line in lines)

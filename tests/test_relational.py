"""Tests for the multi-source relational substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EvaluationError, SpecError
from repro.relational import (
    Catalog,
    DataSource,
    Federation,
    Mediator,
    Network,
    SourceSchema,
    StatisticsCatalog,
    TableStats,
    collect_stats,
)
from repro.relational.network import MBPS
from repro.relational.schema import Column, RelationSchema, relation
from repro.relational.source import (
    INTERN_CACHE_LIMIT,
    MEDIATOR_NAME,
    ResultSet,
    _interned_columns,
    intern_columns,
)


def patient_source():
    schema = SourceSchema("DB1", (
        relation("patient", "SSN", "pname", "policy", key=("SSN",)),
        relation("visitInfo", "SSN", "trId", "date"),
    ))
    source = DataSource(schema)
    source.load_rows("patient", [("s1", "Ann", "p1"), ("s2", "Bob", "p2")])
    source.load_rows("visitInfo", [("s1", "t1", "d1"), ("s2", "t2", "d1"),
                                   ("s1", "t3", "d2")])
    return source


class TestSchema:
    def test_relation_shorthand(self):
        schema = relation("billing", "trId", "price:REAL", key=("trId",))
        assert schema.column_names == ["trId", "price"]
        assert schema.columns[1].sqltype == "REAL"

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SpecError):
            RelationSchema("r", (Column("a"), Column("a")))

    def test_bad_key_rejected(self):
        with pytest.raises(SpecError):
            relation("r", "a", key=("zzz",))

    def test_bad_type_rejected(self):
        with pytest.raises(SpecError):
            Column("a", "DATETIME")

    def test_catalog_resolution(self):
        catalog = Catalog([SourceSchema("DB1", (relation("t", "a"),))])
        source_name, schema = catalog.resolve("DB1:t")
        assert source_name == "DB1" and schema.name == "t"

    def test_catalog_unknown_source(self):
        catalog = Catalog([])
        with pytest.raises(SpecError):
            catalog.resolve("DBX:t")

    def test_catalog_unqualified_rejected(self):
        catalog = Catalog([SourceSchema("DB1", (relation("t", "a"),))])
        with pytest.raises(SpecError):
            catalog.resolve("t")

    def test_duplicate_source_rejected(self):
        with pytest.raises(SpecError):
            Catalog([SourceSchema("DB1", ()), SourceSchema("DB1", ())])


class TestDataSource:
    def test_load_and_query(self):
        source = patient_source()
        result = source.execute(
            "SELECT pname FROM patient WHERE SSN = ?", ("s1",))
        assert result.rows == [("Ann",)]

    def test_metrics_recorded(self):
        source = patient_source()
        before = source.total_queries
        source.execute("SELECT * FROM patient")
        assert source.total_queries == before + 1
        assert source.last_execution_seconds >= 0

    def test_sql_error_wrapped(self):
        source = patient_source()
        with pytest.raises(EvaluationError):
            source.execute("SELECT * FROM missing_table")

    def test_temp_table_shipping(self):
        source = patient_source()
        name = source.create_temp_table(["trId"], [("t1",), ("t3",)])
        result = source.execute(
            f'SELECT v.SSN FROM visitInfo v JOIN "{name}" s '
            f'ON v.trId = s.trId ORDER BY v.SSN')
        assert result.rows == [("s1",), ("s1",)]
        source.drop_table(name)
        assert name not in source.table_names()

    def test_temp_table_overwrites(self):
        source = patient_source()
        source.create_temp_table(["a"], [(1,)], name="x")
        source.create_temp_table(["a"], [(2,), (3,)], name="x")
        assert source.row_count("x") == 2

    def test_row_count(self):
        assert patient_source().row_count("patient") == 2


class TestResultSet:
    def test_column_access(self):
        result = ResultSet(["a", "b"], [(1, 2), (3, 4)])
        assert result.column("b") == [2, 4]
        assert dict(zip(result.columns, result.rows[0])) == {"a": 1, "b": 2}

    def test_project(self):
        result = ResultSet(["a", "b"], [(1, 2)])
        assert result.project(["b"]).rows == [(2,)]

    def test_missing_column(self):
        with pytest.raises(EvaluationError):
            ResultSet(["a"], []).column("z")

    def test_width_bytes_counts_values(self):
        small = ResultSet(["a"], [("x",)]).width_bytes()
        large = ResultSet(["a"], [("x" * 100,)]).width_bytes()
        assert large > small

    def test_len_and_iter(self):
        result = ResultSet(["a"], [(1,), (2,)])
        assert len(result) == 2
        assert list(result) == [(1,), (2,)]

    def test_intern_cache_is_bounded(self):
        for i in range(INTERN_CACHE_LIMIT + 50):
            intern_columns([f"col_{i}", "b"])
        assert len(_interned_columns) <= INTERN_CACHE_LIMIT

    def test_intern_cache_reuses_shapes(self):
        first = intern_columns(["alpha", "beta"])
        second = intern_columns(["alpha", "beta"])
        assert [id(a) for a in first] == [id(b) for b in second]


class TestResultSetInterning:
    def test_execute_interns_columns(self):
        source = DataSource(SourceSchema("P", (relation("r", "a", "b"),)))
        source.load_rows("r", [(1, 2)])
        first = source.execute("SELECT a, b FROM r")
        second = source.execute("SELECT a, b FROM r")
        assert first.columns is second.columns
        source.close()

    def test_intern_columns_identity(self):
        assert intern_columns(["x", "y"]) is intern_columns(("x", "y"))

    def test_width_bytes_cached(self):
        result = ResultSet(["a"], [(1,), ("xy",)])
        first = result.width_bytes()
        result.rows.append(("should-not-count",))
        assert result.width_bytes() == first


class TestFederation:
    def test_cross_source_join(self):
        db1 = patient_source()
        db2 = DataSource(SourceSchema("DB2", (relation("cover", "policy", "trId"),)))
        db2.load_rows("cover", [("p1", "t1"), ("p2", "t2")])
        federation = Federation([db1, db2])
        result = federation.execute(
            'SELECT p.pname FROM "DB1"."patient" p, "DB2"."cover" c '
            'WHERE p.policy = c.policy ORDER BY p.pname')
        assert result.rows == [("Ann",), ("Bob",)]

    def test_federation_sees_source_updates(self):
        db1 = patient_source()
        federation = Federation([db1])
        db1.load_rows("patient", [("s3", "Cyd", "p3")])
        result = federation.execute('SELECT COUNT(*) FROM "DB1"."patient"')
        assert result.rows == [(3,)]

    def test_federation_temp_table(self):
        db1 = patient_source()
        federation = Federation([db1])
        federation.create_temp_table(["trId"], [("t1",)], "params")
        result = federation.execute(
            'SELECT v.SSN FROM "DB1"."visitInfo" v, main."params" p '
            'WHERE v.trId = p.trId')
        assert result.rows == [("s1",)]


class TestNetwork:
    def test_same_source_free(self):
        network = Network()
        assert network.trans_cost("DB1", "DB1", 10 ** 9) == 0.0

    def test_mediator_one_hop(self):
        network = Network(bandwidth_bytes_per_s=1000, latency_seconds=0.5)
        assert network.trans_cost("DB1", MEDIATOR_NAME, 1000) == pytest.approx(1.5)

    def test_source_to_source_two_hops(self):
        network = Network(bandwidth_bytes_per_s=1000, latency_seconds=0.5)
        assert network.trans_cost("DB1", "DB2", 1000) == pytest.approx(3.0)

    def test_mbps_constructor(self):
        network = Network.mbps(1.0)
        assert network.bandwidth == pytest.approx(MBPS)

    def test_link_override(self):
        # one uniform bandwidth: the per-link override argument is gone
        with pytest.raises(TypeError):
            Network(1000, 0.0, {("DB1", MEDIATOR_NAME): 10_000.0})

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Network(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            Network(latency_seconds=-1)
        with pytest.raises(ValueError):
            Network().trans_cost("a", "b", -5)

    @given(nbytes=st.integers(min_value=0, max_value=10 ** 9))
    def test_cost_monotone_in_bytes(self, nbytes):
        network = Network()
        assert (network.trans_cost("DB1", "DB2", nbytes)
                <= network.trans_cost("DB1", "DB2", nbytes + 1))


class TestStatistics:
    def test_collect(self):
        stats = collect_stats(patient_source())
        assert stats["patient"].cardinality == 2
        assert stats["visitInfo"].distinct_count("SSN") == 2
        assert stats["visitInfo"].distinct_count("trId") == 3

    def test_distinct_fallback(self):
        stats = TableStats(cardinality=50)
        assert stats.distinct_count("anything") == 50

    def test_distinct_floor_is_one(self):
        stats = TableStats(cardinality=0, distinct={"a": 0})
        assert stats.distinct_count("a") == 1

    def test_catalog(self):
        catalog = StatisticsCatalog.from_sources([patient_source()])
        assert catalog.table("DB1", "patient").cardinality == 2
        assert catalog.has("DB1", "patient")
        # unknown tables get a neutral default
        assert catalog.table("DBX", "zzz").cardinality == 1000

    def test_set_stats_override(self):
        catalog = StatisticsCatalog()
        catalog.set_stats("DB9", "r", TableStats(cardinality=7))
        assert catalog.table("DB9", "r").cardinality == 7

    def test_mediator_has_no_base_tables(self):
        mediator = Mediator()
        assert collect_stats(mediator) == {}

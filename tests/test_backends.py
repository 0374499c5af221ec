"""Cross-storage conformance and differential tests (docs/BACKENDS.md).

Both storage specs (a sqlite3 database, and the read-only CSV source
whose files the same engine loads) must present the same relational
contract to the engine: tuple rows, SQLite NULL ordering, SQLite
column-affinity storage semantics, honest capability flags, deadline
interruption, and version counters that move on every base-table write
and only then.  On top of the per-spec conformance suite, the
differential tests assert that the hospital pipeline produces
byte-identical documents over every storage mix — including the
ship-to-inline rewrite that the CSV source triggers — and that sharding
falls back cleanly when a source lacks BLOB affinity.
"""

import os
import time

import pytest

from repro.errors import EvaluationError, SpecError
from repro.relational import DataSource, SourceSchema
from repro.relational.schema import relation
from repro.relational.source import parse_spec

#: One spec of each storage kind.
BACKEND_SPECS = ["sqlite", "file"]

TYPED_SCHEMA = SourceSchema("S1", (
    relation("typed", "t:TEXT", "i:INTEGER", "r:REAL"),
    relation("plain", "a", "b", key=("a",)),
    relation("extremes", "r:REAL", "i:INTEGER", "n:NUMERIC", "t:TEXT"),
))


@pytest.fixture
def typed_source(request):
    source = DataSource(TYPED_SCHEMA, backend=request.param)
    yield source
    source.close()


def _parametrize_source(cls):
    return pytest.mark.parametrize("typed_source", BACKEND_SPECS,
                                   indirect=True)(cls)


# ----------------------------------------------------------------------
# conformance: identical relational contract on every backend
# ----------------------------------------------------------------------
@_parametrize_source
class TestConformance:
    def test_execute_returns_tuple_rows_and_columns(self, typed_source):
        typed_source.load_rows("plain", [("k1", "v1"), ("k2", "v2")])
        result = typed_source.execute(
            'SELECT "a", "b" FROM "plain" ORDER BY "a"')
        assert result.columns == ["a", "b"]
        assert result.rows == [("k1", "v1"), ("k2", "v2")]
        assert all(type(row) is tuple for row in result.rows)

    def test_null_ordering_matches_sqlite(self, typed_source):
        # SQLite sorts NULLs first ascending, last descending; every
        # backend must agree.
        typed_source.load_rows("plain",
                               [("k1", None), ("k2", "x"), ("k3", None)])
        ascending = typed_source.execute(
            'SELECT "b" FROM "plain" ORDER BY "b"')
        assert ascending.column("b") == [None, None, "x"]
        descending = typed_source.execute(
            'SELECT "b" FROM "plain" ORDER BY "b" DESC')
        assert descending.column("b") == ["x", None, None]

    def test_affinity_matches_sqlite(self, typed_source):
        # TEXT renders numbers as text, INTEGER parses lossless numeric
        # text, REAL parses floats — whether the values arrive as Python
        # objects or as decoded CSV text.
        typed_source.load_rows("typed", [(7, "12", "2.5"),
                                         (2.5, 3.0, 4)])
        result = typed_source.execute(
            'SELECT "t", "i", "r" FROM "typed" ORDER BY "i"')
        assert result.rows == [("2.5", 3, 4.0), ("7", 12, 2.5)]

    def test_infinities_match_sqlite(self, typed_source):
        # ±inf is a REAL in every numeric column and SQLite's own 'Inf'
        # text in a TEXT column, so both sort the same on every backend.
        inf = float("inf")
        typed_source.load_rows("extremes",
                               [(2.5,) * 4, (inf,) * 4, (-inf,) * 4])

        def ordered(column):
            return typed_source.execute(
                f'SELECT "{column}", typeof("{column}") FROM "extremes" '
                f'ORDER BY "{column}"').rows

        for column in ("r", "i", "n"):
            assert ordered(column) == [(-inf, "real"), (2.5, "real"),
                                       (inf, "real")], column
        assert ordered("t") == [("-Inf", "text"), ("2.5", "text"),
                                ("Inf", "text")]

    def test_version_counter_moves_on_loads_only(self, typed_source):
        before = typed_source.table_version("plain")
        typed_source.execute('SELECT * FROM "plain"')
        assert typed_source.table_version("plain") == before
        typed_source.load_rows("plain", [("k1", "v1")])
        assert typed_source.table_version("plain") == before + 1
        # a shipped temp table is not a base-table write
        if typed_source.capabilities.supports_temp_tables:
            typed_source.create_temp_table(["c"], [("x",)], "tmp_probe")
            assert typed_source.table_version("plain") == before + 1

    def test_refused_load_changes_nothing(self, typed_source):
        # one transaction: rows before the duplicate are rolled back too,
        # and the version stays, so no cache keeps serving the old rows
        # as if they were current
        typed_source.load_rows("plain", [("k1", "v1")])
        before = typed_source.table_version("plain")
        with pytest.raises(EvaluationError, match="'S1'.*'plain'"):
            typed_source.load_rows("plain", [("k2", "v2"), ("k1", "dup"),
                                             ("k3", "v3")])
        assert typed_source.row_count("plain") == 1
        assert typed_source.table_version("plain") == before
        # the connection is clean: the next load commits
        typed_source.load_rows("plain", [("k2", "v2")])
        assert typed_source.row_count("plain") == 2
        assert typed_source.table_version("plain") == before + 1

    def test_capability_flags_are_honest(self, typed_source):
        capabilities = typed_source.capabilities
        if capabilities.supports_temp_tables:
            name = typed_source.create_temp_table(
                ["c1", "c2"], [("a", 1), ("b", 2)], "tmp_honest")
            result = typed_source.execute(
                f'SELECT "c1", "c2" FROM "{name}" ORDER BY "c1"')
            assert result.rows == [("a", 1), ("b", 2)]
            typed_source.drop_table(name)
        else:
            with pytest.raises(EvaluationError):
                typed_source.create_temp_table(["c1"], [("a",)],
                                               "tmp_honest")
        if capabilities.supports_writes:
            typed_source.execute(
                """INSERT INTO "plain" VALUES ('w', 'x')""")
            assert typed_source.row_count("plain") == 1
        else:
            with pytest.raises(EvaluationError, match="read-only"):
                typed_source.execute(
                    """INSERT INTO "plain" VALUES ('w', 'x')""")

    @pytest.mark.parametrize("sql", [
        """WITH x(v) AS (SELECT 'k2') INSERT INTO "plain" SELECT v, v FROM x""",
        """WITH x(v) AS (SELECT 'k1') DELETE FROM "plain" WHERE "a" IN x""",
        """WITH x(v) AS (SELECT 'w') UPDATE "plain" SET "b" = (SELECT v FROM x)""",
    ], ids=["insert", "delete", "update"])
    def test_a_write_led_by_with_is_a_write(self, typed_source, sql):
        # the engine, not the first keyword, says whether rows changed
        typed_source.load_rows("plain", [("k1", "v1")])
        before = typed_source.table_version("plain")
        rows = typed_source.execute('SELECT * FROM "plain"').rows
        if typed_source.capabilities.supports_writes:
            typed_source.execute(sql)
            assert typed_source.execute(
                'SELECT * FROM "plain"').rows != rows
            assert typed_source.table_version("plain") == before + 1
            return
        path = typed_source.csv_store.table_path("plain")
        with open(path, encoding="utf-8") as handle:
            stored = handle.read()
        with pytest.raises(EvaluationError, match="'S1'.*read-only"):
            typed_source.execute(sql)
        assert typed_source.execute('SELECT * FROM "plain"').rows == rows
        assert typed_source.table_version("plain") == before
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == stored
        # a load still lands in both afterwards
        typed_source.load_rows("plain", [("k9", "v9")])
        assert typed_source.row_count("plain") == 2
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == stored + "k9,v9\n"

    def test_ddl_is_refused_on_the_read_only_source(self, typed_source):
        if typed_source.capabilities.supports_writes:
            return
        for sql in ('CREATE TABLE "extra" (x)', 'DROP TABLE "plain"'):
            with pytest.raises(EvaluationError, match="read-only"):
                typed_source.execute(sql)
        assert "extra" not in typed_source.table_names()
        assert "plain" in typed_source.table_names()

    def test_table_names_lists_base_relations(self, typed_source):
        names = typed_source.table_names()
        assert {"typed", "plain"} <= set(names)

    def test_deadline_interrupts_a_runaway_statement(self, typed_source):
        from repro.resilience.retry import QueryDeadlineExceeded

        start = time.perf_counter()
        with pytest.raises(EvaluationError) as caught:
            typed_source.execute(
                "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
                "SELECT n + 1 FROM r) SELECT COUNT(*) FROM r",
                deadline=0.05)
        assert isinstance(caught.value.__cause__, QueryDeadlineExceeded)
        assert time.perf_counter() - start < 1.0


# ----------------------------------------------------------------------
# affinity keeps what it cannot convert
# ----------------------------------------------------------------------
class TestAffinityFunction:
    def test_sqlite_keeps_unconvertible_text_in_integer_column(self):
        source = DataSource(TYPED_SCHEMA)
        source.load_rows("typed", [("t", "abc", "r")])
        assert source.execute('SELECT "i" FROM "typed"').rows == [("abc",)]
        source.close()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registered_backends(self):
        assert [parse_spec(spec) for spec in (
            "sqlite", "sqlite:/x.db", "file", "file:csv", "file:csv:/d",
            "file:csv:", "sqlite:")] == [
            ("sqlite", None), ("sqlite", "/x.db"), ("file", None),
            ("file", None), ("file", "/d"), ("file", None),
            ("sqlite", None)]

    def test_unknown_spec_raises(self):
        with pytest.raises(SpecError, match="unknown backend 'oracle12c' "
                           r"\(valid spellings: sqlite, sqlite:PATH, "
                           r"file, file:csv, file:csv:DIR\)"):
            DataSource(TYPED_SCHEMA, backend="oracle12c")
        with pytest.raises(SpecError, match="non-empty string"):
            DataSource(TYPED_SCHEMA, backend="")
        with pytest.raises(SpecError, match="non-empty string, got 42"):
            DataSource(TYPED_SCHEMA, backend=42)
        with pytest.raises(SpecError, match="unknown file backend format "
                           "'xml' .valid spellings: sqlite"):
            DataSource(TYPED_SCHEMA, backend="file:xml")

    def test_spec_is_recorded(self):
        source = DataSource(TYPED_SCHEMA, backend="file:csv")
        assert source.spec == "file:csv"
        source.close()
        source = DataSource(TYPED_SCHEMA)
        assert source.spec == "sqlite"
        source.close()

    def test_sqlite_file_holding_the_schema_is_a_typed_error(self, tmp_path):
        path = tmp_path / "s1.db"
        DataSource(TYPED_SCHEMA, backend=f"sqlite:{path}").close()
        with pytest.raises(EvaluationError,
                           match=f"'S1'.*file:{path}.*already exists"):
            DataSource(TYPED_SCHEMA, backend=f"sqlite:{path}")


# ----------------------------------------------------------------------
# file backend specifics
# ----------------------------------------------------------------------
class TestFileBackend:
    def test_null_and_backslash_round_trip(self):
        source = DataSource(TYPED_SCHEMA, backend="file")
        source.load_rows("plain", [("k1", None), ("k2", "\\N"),
                                   ("k3", "\\literal"), ("k4", "")])
        result = source.execute(
            'SELECT "a", "b" FROM "plain" ORDER BY "a"')
        assert result.rows == [("k1", None), ("k2", "\\N"),
                               ("k3", "\\literal"), ("k4", "")]
        source.close()

    def test_files_survive_reload(self, tmp_path):
        root = str(tmp_path / "tables")
        source = DataSource(TYPED_SCHEMA, backend=f"file:csv:{root}")
        source.load_rows("plain", [("k1", "v1")])
        source.close()
        again = DataSource(TYPED_SCHEMA, backend=f"file:csv:{root}")
        assert again.execute('SELECT * FROM "plain"').rows == [("k1", "v1")]
        again.close()

    def test_temp_root_is_removed_on_close(self):
        source = DataSource(TYPED_SCHEMA, backend="file")
        root = source.csv_store.root
        source.close()
        assert not os.path.exists(root)

    def test_empty_directory_option_is_a_temp_root(self):
        source = DataSource(TYPED_SCHEMA, backend="file:csv:")
        root = source.csv_store.root
        assert os.path.isdir(root)
        source.close()
        assert not os.path.exists(root)

    def test_refused_load_leaves_the_file_intact(self, tmp_path):
        root = str(tmp_path / "tables")
        source = DataSource(TYPED_SCHEMA, backend=f"file:csv:{root}")
        source.load_rows("plain", [("k1", "v1")])
        path = source.csv_store.table_path("plain")
        with open(path, encoding="utf-8") as handle:
            before = handle.read()
        with pytest.raises(EvaluationError, match="'S1'.*'plain'"):
            source.load_rows("plain", [("k2", "v2"), ("k1", "dup")])
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == before
        assert source.execute('SELECT * FROM "plain"').rows == [("k1", "v1")]
        source.close()
        again = DataSource(TYPED_SCHEMA, backend=f"file:csv:{root}")
        assert again.execute('SELECT * FROM "plain"').rows == [("k1", "v1")]
        again.close()

    def test_blob_columns_are_rejected(self):
        schema = SourceSchema("S1", (relation("b", "c:BLOB"),))
        with pytest.raises(SpecError, match="BLOB"):
            DataSource(schema, backend="file")


# ----------------------------------------------------------------------
# differential: the hospital pipeline over backend mixes
# ----------------------------------------------------------------------
HOSPITAL_MIXES = [
    pytest.param("file", id="all-file"),
    pytest.param({"DB1": "file", "DB3": "file"}, id="mixed-file-sqlite"),
]


def _hospital_run(backend, tracer=None, **kwargs):
    from repro import Middleware, Network, serialize
    from repro.datagen import make_loaded_sources
    from repro.hospital import build_hospital_aig

    aig = build_hospital_aig()
    sources, dataset = make_loaded_sources("tiny", backend=backend)
    middleware = Middleware(aig, sources, Network.mbps(1.0),
                            tracer=tracer, **kwargs)
    report = middleware.evaluate({"date": dataset.busiest_date()})
    xml = serialize(report.document, indent=2)
    for source in sources.values():
        source.close()
    return xml, report


class TestHospitalDifferential:
    @pytest.fixture(scope="class")
    def sqlite_xml(self):
        return _hospital_run(None)[0]

    @pytest.mark.parametrize("backend", HOSPITAL_MIXES)
    def test_documents_are_byte_identical(self, backend, sqlite_xml):
        from repro.obs import Tracer

        tracer = Tracer()
        xml, _ = _hospital_run(backend, tracer=tracer)
        assert xml == sqlite_xml
        # file sources cannot host temp tables: the engine must
        # have rewritten at least one ship inline
        assert tracer.metrics.counter("ship_rewrites") > 0

    def test_full_grid_over_file_backend(self, sqlite_xml):
        from repro.fuzz.oracle import GRID
        from repro.obs import Tracer

        for kwargs in GRID:
            tracer = Tracer()
            xml, _ = _hospital_run("file", tracer=tracer, **kwargs)
            assert xml == sqlite_xml, f"diverged under {kwargs}"
            assert tracer.metrics.counter("ship_rewrites") > 0, \
                f"no inline rewrites under {kwargs}"

    def test_sharding_falls_back_without_blob_affinity(self, sqlite_xml):
        from repro.obs import Tracer

        tracer = Tracer()
        xml, report = _hospital_run("file", tracer=tracer, shards=2)
        assert xml == sqlite_xml
        assert report.shards == 1
        assert tracer.metrics.counter("shard_fallbacks") == 1

    def test_inline_ship_cap_is_enforced(self, monkeypatch):
        import repro.runtime.engine as engine_module

        monkeypatch.setattr(engine_module, "INLINE_SHIP_ROW_CAP", 0)
        with pytest.raises(EvaluationError,
                           match="inline rewrite is capped"):
            _hospital_run("file")

    def test_conceptual_federation_materializes_file_sources(self):
        from repro import serialize
        from repro.aig import ConceptualEvaluator
        from repro.datagen import make_loaded_sources
        from repro.hospital import build_hospital_aig

        documents = []
        for backend in (None, "file"):
            aig = build_hospital_aig()
            sources, dataset = make_loaded_sources("tiny", backend=backend)
            evaluator = ConceptualEvaluator(aig, list(sources.values()),
                                            violation_mode="report")
            document = evaluator.evaluate(
                {"date": dataset.busiest_date()})
            documents.append(serialize(document, indent=2))
            for source in sources.values():
                source.close()
        assert documents[0] == documents[1]


# ----------------------------------------------------------------------
# the inline ship rewrite carries every value SQLite can hold
# ----------------------------------------------------------------------
VALUES_SCHEMA = SourceSchema("A", (relation("vals", "k", "x:REAL"),))
TAGS_SCHEMA = SourceSchema("B", (relation("tags", "x:REAL", "label"),))
TAGS_DTD = """
<!ELEMENT root (row*)>
<!ELEMENT row (k, label)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT label (#PCDATA)>
"""


class TestInlineShip:
    @staticmethod
    def _run(tags_backend, tracer=None):
        from repro import Middleware, serialize
        from repro.aig import AIG, assign, inh, query
        from repro.dtd import parse_dtd
        from repro.relational import Catalog

        inf = float("inf")
        aig = AIG(parse_dtd(TAGS_DTD),
                  Catalog([VALUES_SCHEMA, TAGS_SCHEMA]), root_inh=("run",))
        aig.inh("row", "k", "label")
        # vals is the smaller table, so the plan reads it first and ships
        # its rows, infinities included, into B
        aig.rule("root", inh={"row": query(
            "select v.k, t.label from A:vals v, B:tags t "
            "where t.x = v.x")})
        aig.rule("row", inh={"k": assign(val=inh("k")),
                             "label": assign(val=inh("label"))})
        values = DataSource(VALUES_SCHEMA)
        values.load_rows("vals", [("up", inf), ("down", -inf),
                                  ("mid", 2.5)])
        tags = DataSource(TAGS_SCHEMA, backend=tags_backend)
        tags.load_rows("tags", [(inf, "top"), (-inf, "bottom"),
                                (2.5, "middle"), (1.0, "unused")])
        try:
            report = Middleware(aig.validate(), {"A": values, "B": tags},
                                tracer=tracer).evaluate({"run": "r"})
            return serialize(report.document, indent=2)
        finally:
            values.close()
            tags.close()

    def test_infinity_ships_inline_into_a_file_source(self):
        from repro.obs import Tracer

        tracer = Tracer()
        xml = self._run("file", tracer)
        assert xml == self._run(None)
        assert xml.count("<row>") == 3
        assert tracer.metrics.counter("ship_rewrites") > 0

"""Source storage conformance (docs/INTERNALS.md, "Source storage").

A source is one SQLite database, in memory (``sqlite``) or in a file
(``sqlite:PATH``).  Both spellings must present the same relational
contract to the engine: tuple rows, SQLite NULL ordering, SQLite
column-affinity storage semantics, shipped inputs landing as temp tables,
deadline interruption, and version counters that move on every
base-table write and only then.  On top of the conformance suite, the
hospital pipeline must produce byte-identical documents whichever
sources live in files, and every shipped value — ±inf included — must
land in the receiving source's temp table unchanged.
"""

import sqlite3
import time

import pytest

from repro.errors import EvaluationError, SpecError
from repro.relational import DataSource, SourceSchema
from repro.relational.schema import relation
from repro.relational.source import parse_spec

#: Both storage spellings; ``file`` is a database file under the test's
#: temporary directory.
BACKEND_SPECS = [pytest.param("sqlite", id="sqlite"),
                 pytest.param("sqlite:PATH", id="file")]

TYPED_SCHEMA = SourceSchema("S1", (
    relation("typed", "t:TEXT", "i:INTEGER", "r:REAL"),
    relation("plain", "a", "b", key=("a",)),
    relation("extremes", "r:REAL", "i:INTEGER", "n:NUMERIC", "t:TEXT"),
))


@pytest.fixture
def typed_source(request, tmp_path):
    spec = request.param.replace("PATH", str(tmp_path / "s1.db"))
    source = DataSource(TYPED_SCHEMA, backend=spec)
    yield source
    source.close()


def _parametrize_source(cls):
    return pytest.mark.parametrize("typed_source", BACKEND_SPECS,
                                   indirect=True)(cls)


# ----------------------------------------------------------------------
# conformance: identical relational contract on both spellings
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
        # SQLite sorts NULLs first ascending, last descending.
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
        # text, REAL parses floats.
        typed_source.load_rows("typed", [(7, "12", "2.5"),
                                         (2.5, 3.0, 4)])
        result = typed_source.execute(
            'SELECT "t", "i", "r" FROM "typed" ORDER BY "i"')
        assert result.rows == [("2.5", 3, 4.0), ("7", 12, 2.5)]

    def test_infinities_match_sqlite(self, typed_source):
        # ±inf is a REAL in every numeric column and SQLite's own 'Inf'
        # text in a TEXT column.
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

    def test_takes_temp_tables_and_writes(self, typed_source):
        name = typed_source.create_temp_table(
            ["c1", "c2"], [("a", 1), ("b", 2)], "tmp_landed")
        result = typed_source.execute(
            f'SELECT "c1", "c2" FROM "{name}" ORDER BY "c1"')
        assert result.rows == [("a", 1), ("b", 2)]
        typed_source.drop_table(name)
        assert name not in typed_source.table_names()
        typed_source.execute("""INSERT INTO "plain" VALUES ('w', 'x')""")
        assert typed_source.row_count("plain") == 1

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
        typed_source.execute(sql)
        assert typed_source.execute('SELECT * FROM "plain"').rows != rows
        assert typed_source.table_version("plain") == before + 1

    def test_table_names_lists_base_relations(self, typed_source):
        names = typed_source.table_names()
        assert {"typed", "plain"} <= set(names)

    def test_deadline_interrupts_a_runaway_statement(self, typed_source):
        from repro.resilience.deadline import QueryDeadlineExceeded

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
# spec parsing
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registered_backends(self):
        assert [parse_spec(spec) for spec in (
            "sqlite", "sqlite:/x.db", "sqlite:")] == [None, "/x.db", None]

    def test_unknown_spec_raises(self):
        with pytest.raises(SpecError, match="unknown backend 'oracle12c' "
                           r"\(valid spellings: sqlite, sqlite:PATH\)"):
            DataSource(TYPED_SCHEMA, backend="oracle12c")
        with pytest.raises(SpecError, match="non-empty string"):
            DataSource(TYPED_SCHEMA, backend="")
        with pytest.raises(SpecError, match="non-empty string, got 42"):
            DataSource(TYPED_SCHEMA, backend=42)

    @pytest.mark.parametrize("spec", ["file", "file:xml"] + [
        f"file:{options}" for options in ("csv", "csv:/d")])
    def test_file_spellings_are_refused(self, spec):
        # the read-only CSV source's spellings name no storage any more
        with pytest.raises(SpecError, match=f"unknown backend '{spec}' "
                           r"\(valid spellings: sqlite, sqlite:PATH\)$"):
            parse_spec(spec)

    def test_spec_is_recorded(self, tmp_path):
        spec = f"sqlite:{tmp_path / 's1.db'}"
        source = DataSource(TYPED_SCHEMA, backend=spec)
        assert source.spec == spec
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
# the database file a ``sqlite:PATH`` source writes
# ----------------------------------------------------------------------
def _file_rows(path):
    """The rows of ``plain`` in the database file, read without the source."""
    connection = sqlite3.connect(path)
    try:
        return connection.execute(
            'SELECT * FROM "plain" ORDER BY 1').fetchall()
    finally:
        connection.close()


class TestFileBackend:
    def test_null_and_backslash_round_trip(self, tmp_path):
        source = DataSource(TYPED_SCHEMA,
                            backend=f"sqlite:{tmp_path / 's1.db'}")
        source.load_rows("plain", [("k1", None), ("k2", "\\N"),
                                   ("k3", "\\literal"), ("k4", "")])
        result = source.execute(
            'SELECT "a", "b" FROM "plain" ORDER BY "a"')
        assert result.rows == [("k1", None), ("k2", "\\N"),
                               ("k3", "\\literal"), ("k4", "")]
        source.close()

    def test_files_survive_reload(self, tmp_path):
        path = tmp_path / "s1.db"
        source = DataSource(TYPED_SCHEMA, backend=f"sqlite:{path}")
        source.load_rows("plain", [("k1", "v1")])
        source.close()
        assert _file_rows(path) == [("k1", "v1")]

    def test_refused_load_leaves_the_file_intact(self, tmp_path):
        path = tmp_path / "s1.db"
        source = DataSource(TYPED_SCHEMA, backend=f"sqlite:{path}")
        source.load_rows("plain", [("k1", "v1")])
        with pytest.raises(EvaluationError, match="'S1'.*'plain'"):
            source.load_rows("plain", [("k2", "v2"), ("k1", "dup")])
        assert _file_rows(path) == [("k1", "v1")]
        source.close()
        assert _file_rows(path) == [("k1", "v1")]

    def test_a_shipment_waits_for_another_writer(self, tmp_path):
        """Another connection holds the file's write lock for 0.2 s.  A
        shipment whose transaction read the schema before asking for the
        write lock would fail at once (SQLite skips the busy handler for a
        reader that wants to write); it asks at ``BEGIN IMMEDIATE`` and
        waits the lock out."""
        import threading

        path = tmp_path / "s1.db"
        source = DataSource(TYPED_SCHEMA, backend=f"sqlite:{path}")
        locked = threading.Event()

        def hold_the_write_lock():
            other = sqlite3.connect(path, isolation_level=None)
            try:
                other.execute("BEGIN IMMEDIATE")
                other.execute("INSERT INTO plain VALUES ('k1', 'v1')")
                locked.set()
                time.sleep(0.2)
                other.execute("COMMIT")
            finally:
                other.close()

        holder = threading.Thread(target=hold_the_write_lock)
        holder.start()
        try:
            assert locked.wait(10)
            table = source.create_temp_table(["x"], [(1,), (2,)])
        finally:
            holder.join()
        assert source.execute(f'SELECT "x" FROM "{table}"').rows == [
            (1,), (2,)]
        source.close()


    def test_a_table_a_failed_drop_left_goes_with_the_next_shipment(
            self, tmp_path, monkeypatch):
        """A drop refused under another connection's lock leaves its
        ``__ship_N`` behind; the next shipment drops it in its own
        transaction, so no shipped table outlives the source's next
        one."""
        from repro.errors import SourceUnavailableError
        from repro.relational import source as source_module

        monkeypatch.setattr(source_module, "BUSY_TIMEOUT_SECONDS", 0.05)
        path = tmp_path / "s1.db"
        source = DataSource(TYPED_SCHEMA, backend=f"sqlite:{path}")
        shipped = source.create_temp_table(["x"], [(1,)])
        other = sqlite3.connect(path, isolation_level=None)
        try:
            other.execute("BEGIN EXCLUSIVE")
            with pytest.raises(SourceUnavailableError, match=shipped):
                source.drop_table(shipped)
            other.execute("COMMIT")
        finally:
            other.close()
        assert shipped in source.table_names()
        following = source.create_temp_table(["x"], [(2,)])
        assert shipped not in source.table_names()
        assert following in source.table_names()
        source.close()


# ----------------------------------------------------------------------
# differential: the hospital pipeline over database files
# ----------------------------------------------------------------------
#: Every hospital source.
ALL_SOURCES = frozenset({"DB1", "DB2", "DB3", "DB4"})

HOSPITAL_MIXES = [
    pytest.param(ALL_SOURCES, id="all-file"),
    pytest.param({"DB1", "DB3"}, id="mixed-file-sqlite"),
]


def _hospital_sources(in_files=(), directory=None):
    """Tiny hospital sources, those named in ``in_files`` in database
    files under ``directory``, the rest in memory."""
    from repro.datagen import generate, load_dataset
    from repro.hospital.schema import SOURCE_SCHEMAS

    sources = {schema.source: DataSource(
        schema, backend=(f"sqlite:{directory / schema.source}.db"
                         if schema.source in in_files else None))
        for schema in SOURCE_SCHEMAS}
    dataset = generate("tiny")
    load_dataset(dataset, sources)
    return sources, dataset


def _hospital_run(in_files=(), directory=None, tracer=None, **kwargs):
    from repro import Middleware, Network, serialize
    from repro.hospital import build_hospital_aig

    sources, dataset = _hospital_sources(in_files, directory)
    middleware = Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                            tracer=tracer, **kwargs)
    report = middleware.evaluate({"date": dataset.busiest_date()})
    xml = serialize(report.document, indent=2)
    for source in sources.values():
        source.close()
    return xml, report


class TestHospitalDifferential:
    @pytest.fixture(scope="class")
    def sqlite_xml(self):
        return _hospital_run()[0]

    @pytest.mark.parametrize("in_files", HOSPITAL_MIXES)
    def test_documents_are_byte_identical(self, in_files, sqlite_xml,
                                          tmp_path):
        from repro.obs import Tracer

        tracer = Tracer()
        xml, _ = _hospital_run(in_files, tmp_path, tracer=tracer)
        assert xml == sqlite_xml
        assert tracer.metrics.counter("temp_tables_created") > 0

    def test_full_grid_over_file_backend(self, sqlite_xml, tmp_path):
        from repro.fuzz.oracle import GRID

        for index, kwargs in enumerate(GRID):
            directory = tmp_path / str(index)
            directory.mkdir()
            xml, _ = _hospital_run(ALL_SOURCES, directory, **kwargs)
            assert xml == sqlite_xml, f"diverged under {kwargs}"

    def test_a_locked_file_source_waits_out_the_lock(self, sqlite_xml,
                                                     tmp_path):
        """Another connection holds DB2's file ``BEGIN EXCLUSIVE`` for
        0.2 s while the document is evaluated: SQLite's busy timeout, the
        only wait there is, waits it out, and the bytes are the unlocked
        run's."""
        import threading

        from repro import Middleware, Network, serialize
        from repro.hospital import build_hospital_aig
        from repro.relational.source import BUSY_TIMEOUT_SECONDS

        sources, dataset = _hospital_sources(ALL_SOURCES, tmp_path)
        assert sources["DB2"].connection.execute(
            "PRAGMA busy_timeout").fetchone() == (
                int(BUSY_TIMEOUT_SECONDS * 1000),)
        middleware = Middleware(build_hospital_aig(), sources,
                                Network.mbps(1.0))
        locked = threading.Event()

        def hold_the_lock():
            other = sqlite3.connect(tmp_path / "DB2.db",
                                    isolation_level=None)
            try:
                other.execute("BEGIN EXCLUSIVE")
                locked.set()
                time.sleep(0.2)
                other.execute("COMMIT")
            finally:
                other.close()

        holder = threading.Thread(target=hold_the_lock)
        holder.start()
        try:
            assert locked.wait(10)
            started = time.perf_counter()
            report = middleware.evaluate({"date": dataset.busiest_date()})
            waited = time.perf_counter() - started
        finally:
            holder.join()
        xml = serialize(report.document, indent=2)
        for source in sources.values():
            source.close()
        assert xml == sqlite_xml
        assert waited >= 0.1         # DB2 was reached under the lock

    def test_conceptual_federation_attaches_database_files(self, tmp_path):
        from repro import serialize
        from repro.aig import ConceptualEvaluator
        from repro.hospital import build_hospital_aig

        documents = []
        for in_files in ((), ALL_SOURCES):
            sources, dataset = _hospital_sources(in_files, tmp_path)
            evaluator = ConceptualEvaluator(build_hospital_aig(),
                                            list(sources.values()),
                                            violation_mode="report")
            document = evaluator.evaluate(
                {"date": dataset.busiest_date()})
            documents.append(serialize(document, indent=2))
            for source in sources.values():
                source.close()
        assert documents[0] == documents[1]


# ----------------------------------------------------------------------
# a shipped input lands as a temp table holding every value SQLite can
# ----------------------------------------------------------------------
VALUES_SCHEMA = SourceSchema("A", (relation("vals", "k", "x:REAL"),))
TAGS_SCHEMA = SourceSchema("B", (relation("tags", "x:REAL", "label"),))
TAGS_DTD = """
<!ELEMENT root (row*)>
<!ELEMENT row (k, label)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT label (#PCDATA)>
"""


class TestShip:
    def test_infinities_ship_into_a_temp_table(self):
        from repro import Middleware, serialize
        from repro.aig import AIG, assign, inh, query
        from repro.dtd import parse_dtd
        from repro.obs import Tracer
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
        tags = DataSource(TAGS_SCHEMA)
        tags.load_rows("tags", [(inf, "top"), (-inf, "bottom"),
                                (2.5, "middle"), (1.0, "unused")])
        tracer = Tracer()
        try:
            report = Middleware(aig.validate(), {"A": values, "B": tags},
                                tracer=tracer).evaluate({"run": "r"})
            xml = serialize(report.document, indent=2)
        finally:
            values.close()
            tags.close()
        assert xml.count("<row>") == 3
        for label in ("top", "bottom", "middle"):
            assert f"<label>{label}</label>" in xml
        assert tracer.metrics.counter("temp_tables_created") == 1
        assert tracer.metrics.counter("rows_shipped") == 3

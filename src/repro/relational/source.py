"""Data sources: one SQLite database per logical source.

Each :class:`DataSource` owns an independent database — the stand-in for
the paper's per-site DB2 instances (see DESIGN.md, substitutions).  The
interface mirrors what the middleware needs: execute a query, create and
populate a temporary table with shipped inputs, and record each
statement's measured seconds for the run's timings.  The :class:`Mediator`
is itself a source (the paper treats it as "a special data source
Mediator"); it runs the plan steps that read no base table.

A source opens and drives its own connections; its storage spec
(:data:`SPELLINGS`) picks an in-memory database or a database file.
"""

from __future__ import annotations

import itertools
import logging
import re
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import itemgetter

from repro.errors import EvaluationError, SourceUnavailableError, SpecError
from repro.relational.schema import SourceSchema
from repro.resilience.deadline import (PROGRESS_HANDLER_OPCODES,
                                       QueryDeadlineExceeded,
                                       make_deadline_handler)

logger = logging.getLogger("repro.source")

#: Reserved name of the mediator pseudo-source.
MEDIATOR_NAME = "Mediator"

#: Every valid storage spec shape, for error messages.
SPELLINGS = "sqlite, sqlite:PATH"


def parse_spec(spec) -> str | None:
    """The database file a storage spec names (``None``: in memory);
    raises :class:`~repro.errors.SpecError` on anything but
    :data:`SPELLINGS`."""
    if not isinstance(spec, str) or not spec:
        raise SpecError(f"backend spec must be a non-empty string, "
                        f"got {spec!r}")
    kind, _, location = spec.partition(":")
    if kind != "sqlite":
        raise SpecError(f"unknown backend {spec!r} "
                        f"(valid spellings: {SPELLINGS})")
    return location or None


#: Compiled-statement cache size per connection.  The execution engine
#: re-issues structurally identical statements (shipping inserts, cached
#: plan queries across evaluations), so a larger cache means SQLite
#: re-uses prepared statements instead of re-parsing.
STATEMENT_CACHE_SIZE = 256

#: How long a statement waits for another connection's lock on the
#: database before SQLite fails it with ``database is locked`` (the
#: ``sqlite3.connect`` default, named).  It is the only wait for a locked
#: file source: a statement that fails is refused, never retried.
BUSY_TIMEOUT_SECONDS = 5.0

_shared_memory_counter = itertools.count(1)

#: Upper bound on distinct column layouts kept by :func:`intern_columns`.
#: Long-lived processes (fuzz loops, a resident middleware) see an
#: unbounded stream of layouts; beyond this the least-recently-used shape
#: is evicted — eviction only costs a re-allocation on the next sighting.
INTERN_CACHE_LIMIT = 512

_interned_columns: "OrderedDict[tuple, list]" = OrderedDict()
_interned_columns_lock = threading.Lock()


def intern_columns(names) -> list[str]:
    """A shared column-name list for ``names`` (one allocation per shape).

    Query plans produce thousands of :class:`ResultSet` objects with a
    handful of distinct column layouts; interning keeps one list per
    layout instead of one per result.  Callers must treat the returned
    list as immutable (copy before mutating).  The cache is a bounded
    LRU (:data:`INTERN_CACHE_LIMIT` shapes), so a process evaluating an
    endless stream of distinct plans cannot grow it without bound.
    """
    key = tuple(names)
    with _interned_columns_lock:
        shared = _interned_columns.get(key)
        if shared is None:
            shared = list(key)
            _interned_columns[key] = shared
            while len(_interned_columns) > INTERN_CACHE_LIMIT:
                _interned_columns.popitem(last=False)
        else:
            _interned_columns.move_to_end(key)
    return shared


#: the exact types ``isinstance(value, (int, float))`` accepts
_NUMBERS = {int, float, bool}


@dataclass
class ResultSet:
    """Columns + rows of a query result (rows are plain tuples, each as
    wide as ``columns``)."""

    columns: list[str]
    rows: list[tuple]
    _width_cache: int | None = field(default=None, init=False, repr=False,
                                     compare=False)
    _types_cache: list | None = field(default=None, init=False, repr=False,
                                      compare=False)
    _clean_cache: dict = field(default_factory=dict, init=False,
                               repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise EvaluationError(
                f"result has no column {name!r} (has {self.columns})") from None

    def column(self, name: str) -> list:
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    def project(self, names: list[str]) -> "ResultSet":
        indexes = [self.column_index(n) for n in names]
        return ResultSet(list(names),
                         [tuple(row[i] for i in indexes) for row in self.rows])

    def column_types(self) -> list[set]:
        """Per column, the set of exact Python types it holds: one C-level
        pass each, computed once (rows never change after the result is
        built).  ``<= {str}`` holds for an all-``str`` column and for an
        empty one."""
        if self._types_cache is None:
            rows = self.rows
            self._types_cache = [set(map(type, map(itemgetter(index), rows)))
                                 for index in range(len(self.columns))]
        return self._types_cache

    def clean_columns(self, indexes, characters: str) -> list[bool]:
        """Per column at ``indexes``, whether it holds only ``str`` and
        none of ``characters``: one C-level join and a test per character,
        computed once per column (rows never change)."""
        cache = self._clean_cache
        types = self._types_cache or self.column_types()
        flags = []
        for index in indexes:
            key = (index, characters)
            if key not in cache:
                clean = types[index] <= {str}
                if clean:
                    joined = "".join(map(itemgetter(index), self.rows))
                    clean = not any(map(joined.__contains__, characters))
                cache[key] = clean
            flags.append(cache[key])
        return flags

    def width_bytes(self) -> int:
        """Actual serialized size estimate (used for communication costs):
        ``None`` 1, a number 8, anything else the length of its ``str``,
        plus 2 per value for separators / framing.

        Computed once and cached — the engine prices every edge and every
        mediator shipment of a result — column by column: all-``str`` and
        all-number columns in one C-level pass, any other value by value.
        """
        if self._width_cache is not None:
            return self._width_cache
        rows = self.rows
        total = 2 * len(self.columns) * len(rows)
        for index, types in enumerate(self.column_types()):
            if types <= _NUMBERS:
                total += 8 * len(rows)
            elif types <= {str}:
                total += sum(map(len, map(itemgetter(index), rows)))
            else:
                total += sum(1 if value is None
                             else 8 if isinstance(value, (int, float))
                             else len(str(value))
                             for value in map(itemgetter(index), rows))
        self._width_cache = total
        return total


def _statement_error(message: str, error: sqlite3.Error) -> EvaluationError:
    """The one place that decides what is the source's fault: an
    :class:`sqlite3.OperationalError` (locked or busy, an interrupt or
    deadline, an injected fault, a missing table) is the source's engine
    failing, :class:`~repro.errors.SourceUnavailableError`; any other
    error is the statement's own, a plain
    :class:`~repro.errors.EvaluationError`."""
    kind = (SourceUnavailableError
            if isinstance(error, sqlite3.OperationalError)
            else EvaluationError)
    return kind(message)


class DataSource:
    """One logical relational source: its own SQLite database.

    ``schema`` describes the base relations; temp tables for shipped inputs
    are created on demand and live beside them.  All execution is instrumented:
    ``last_execution_seconds`` holds the wall-clock time of the most recent
    ``execute`` call, and ``total_queries``/``total_seconds`` accumulate.

    ``backend`` is the storage spec (:data:`SPELLINGS`): ``None`` or
    ``"sqlite"`` is a shared-cache in-memory database, ``"sqlite:PATH"``
    a database file.

    Thread-safety rules (see docs/INTERNALS.md, "Execution order"): a
    source is *single-flight* — at most one statement may run against it at
    a time, on its one connection — but that statement may come from any
    thread (the service evaluates from many).  Exclusivity is enforced by
    the caller (``Middleware``'s run lock), not here.
    """

    def __init__(self, schema: SourceSchema, backend: str | None = None):
        self.schema = schema
        self.name = schema.source
        #: The storage spec this source was built from (``"sqlite"``, ...).
        self.spec = "sqlite" if backend is None else backend
        location = parse_spec(self.spec)
        #: SQLite URI of the database, which other connections can ATTACH.
        self.uri = (f"file:{location}" if location else
                    f"file:repro_{schema.source}_"
                    f"{next(_shared_memory_counter)}"
                    f"?mode=memory&cache=shared")
        self._closed = False
        self.connection = self._connect()
        self.last_execution_seconds = 0.0
        self.total_queries = 0
        self.total_seconds = 0.0
        #: Optional :class:`repro.resilience.faults.FaultInjector` hook —
        #: consulted at the statement boundary when installed.
        self.fault_injector = None
        self._temp_counter = 0
        #: Tables a failed ``drop_table`` left behind: the next shipment
        #: drops them in its own transaction (a ``__ship_N`` name is never
        #: reused, so nothing else would).
        self._stranded: list[str] = []
        #: Per-relation monotonic version counters (see docs/INCREMENTAL.md):
        #: bumped on every committed write to a base relation, never by
        #: temp-table shipments.  The incremental result cache fingerprints
        #: QDG nodes over these, so a stale counter means stale reuse —
        #: when in doubt (an unparseable write) every counter is bumped.
        self._versions: dict[str, int] = {
            relation_schema.name: 1
            for relation_schema in schema.relations}
        self._create_base_tables()

    def _connect(self) -> sqlite3.Connection:
        # Autocommit (isolation_level=None): shared-cache readers must not
        # hold transactions open, or cross-connection access deadlocks.
        # check_same_thread=False because the service evaluates on
        # whichever request thread holds the run lock; exclusivity is
        # enforced by that lock, not by SQLite.
        connection = sqlite3.connect(
            self.uri, uri=True, timeout=BUSY_TIMEOUT_SECONDS,
            isolation_level=None,
            check_same_thread=False,
            cached_statements=STATEMENT_CACHE_SIZE)
        connection.execute("PRAGMA synchronous=OFF")
        return connection

    def _create_base_tables(self) -> None:
        try:
            for relation_schema in self.schema.relations:
                self.connection.execute(relation_schema.create_table_sql())
        except sqlite3.Error as error:
            self.close()
            raise EvaluationError(
                f"source {self.name!r}: creating the base tables at "
                f"{self.uri} failed: {error}") from error

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_rows(self, relation_name: str, rows: list[tuple]) -> None:
        """Bulk-insert rows into a base relation, in one transaction: a
        refused row (a duplicate key) rolls the whole batch back.
        """
        relation_schema = self.schema.relation_schema(relation_name)
        connection = self.connection
        placeholders = ", ".join("?" * len(relation_schema.columns))
        try:
            connection.execute("BEGIN")
            connection.executemany(
                f'INSERT INTO "{relation_name}" VALUES ({placeholders})',
                rows)
            connection.execute("COMMIT")
        except sqlite3.Error as error:
            self._rollback()
            raise _statement_error(
                f"source {self.name!r}: loading rows into "
                f"{relation_name!r} failed: {error}", error) from error
        except BaseException:
            self._rollback()
            raise
        self.bump_version(relation_name)

    def _rollback(self) -> bool:
        """Roll back an open transaction; True if the connection is clean
        (False: even the rollback failed)."""
        try:
            if self.connection.in_transaction:
                self.connection.execute("ROLLBACK")
        except sqlite3.Error:
            return False
        return True

    # ------------------------------------------------------------------
    # table versions (incremental re-evaluation)
    # ------------------------------------------------------------------
    def table_version(self, relation_name: str) -> int:
        """Monotonic version of a base relation (0 for unknown tables)."""
        return self._versions.get(relation_name, 0)

    def table_versions(self) -> dict[str, int]:
        """Snapshot of every base relation's version counter."""
        return dict(self._versions)

    def bump_version(self, relation_name: str | None = None) -> None:
        """Advance a relation's version (all relations when ``None``).

        Loads call this automatically; callers mutating base data through
        a raw connection (bypassing :meth:`execute`) must bump explicitly
        or stale cached results may be reused.
        """
        if relation_name is None:
            for name in self._versions:
                self._versions[name] += 1
        elif relation_name in self._versions:
            self._versions[relation_name] += 1

    def _note_write(self, sql: str) -> None:
        """Bump versions for a committed write statement.

        Base relations named in the statement are bumped; a write naming
        no base relation (dynamic SQL we cannot attribute) conservatively
        bumps everything — over-invalidation is always safe, stale reuse
        never is.  Temp-table shipments go through
        :meth:`create_temp_table` and are deliberately exempt.
        """
        matched = [name for name in self._versions
                   if re.search(rf'\b{re.escape(name)}\b', sql,
                                re.IGNORECASE)]
        if matched:
            for name in matched:
                self.bump_version(name)
        else:
            self.bump_version()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: tuple = (),
                deadline: float | None = None) -> ResultSet:
        """Run a statement, returning a ResultSet; timing is recorded.

        ``deadline`` bounds *in-flight* work in seconds: SQLite's progress
        handler aborts the running statement once it elapses, and
        injected slow faults (Python-side sleeps the engine can never
        see) are clipped at the deadline inside :meth:`_faulted_sleep`.
        Both paths raise
        :class:`~repro.resilience.deadline.QueryDeadlineExceeded` wrapped
        in a :class:`~repro.errors.SourceUnavailableError`, as any
        ``OperationalError`` is.  A statement that *completes* keeps its
        rows even when total elapsed time lands slightly past the deadline
        — discarding finished work would make a near-deadline query fail
        although the engine succeeded.

        A statement is a write if the engine changed rows for it
        (``total_changes``, so ``WITH ... INSERT`` counts) or if it is not
        a query at all (DDL); a write bumps the versions of the relations
        it names.
        """
        conn = self.connection
        start = time.perf_counter()
        try:
            changes = conn.total_changes
            if self.fault_injector is not None:
                delay = self.fault_injector.on_statement(self.name)
                if delay > 0.0:
                    self._faulted_sleep(delay, deadline, start)
            if deadline is not None:
                conn.set_progress_handler(
                    make_deadline_handler(time.perf_counter, start,
                                          deadline),
                    PROGRESS_HANDLER_OPCODES)
            try:
                cursor = conn.execute(sql, params)
                rows = cursor.fetchall()
            except sqlite3.OperationalError as error:
                if (deadline is not None and "interrupt" in str(error)
                        and time.perf_counter() - start > deadline):
                    raise QueryDeadlineExceeded(
                        f"statement exceeded its {deadline:g}s deadline"
                    ) from error
                raise
            finally:
                if deadline is not None:
                    conn.set_progress_handler(None, 0)
        except sqlite3.Error as error:
            raise _statement_error(
                f"source {self.name!r}: SQL failed: {error}\n  {sql}",
                error) from error
        elapsed = time.perf_counter() - start
        self.last_execution_seconds = elapsed
        self.total_queries += 1
        self.total_seconds += elapsed
        if conn.total_changes != changes or not sql.lstrip()[:16].upper(
                ).startswith(("SELECT", "WITH", "PRAGMA", "EXPLAIN")):
            self._note_write(sql)
        description = cursor.description
        columns = intern_columns(
            [column[0] for column in description] if description else ())
        return ResultSet(columns, rows)

    def _faulted_sleep(self, delay: float, deadline: float | None,
                       start: float) -> None:
        """Serve an injected slow-query delay, honoring the deadline.

        Sleeping happens outside the SQLite VM, so the progress handler
        cannot interrupt it; instead the sleep is clipped at the deadline
        and the overrun raised as a deadline abort.
        """
        if deadline is not None:
            remaining = deadline - (time.perf_counter() - start)
            if delay > remaining:
                time.sleep(max(0.0, remaining))
                raise QueryDeadlineExceeded(
                    f"injected {delay:g}s slow query exceeded the "
                    f"{deadline:g}s deadline")
        time.sleep(delay)

    def execute_script(self, sql: str) -> None:
        try:
            self.connection.executescript(sql)
            self.connection.commit()
        except sqlite3.Error as error:
            raise _statement_error(
                f"source {self.name!r}: script failed: {error}",
                error) from error
        self._note_write(sql)

    # ------------------------------------------------------------------
    # shipped inputs
    # ------------------------------------------------------------------
    def create_temp_table(self, columns: list[str], rows: list[tuple],
                          name: str | None = None) -> str:
        """Materialize shipped tuples as a temp table; returns its name.

        This is the landing step of the paper's "results are then shipped
        (via the mediator) to every dependent site".  The whole shipment
        lands as one batch: DROP/CREATE plus a single ``executemany``
        insert inside one explicit transaction, so the engine journals the
        table once instead of once per statement.  The transaction takes
        its write lock at ``BEGIN IMMEDIATE``: a deferred one would read
        the schema first and then fail at once, without the busy timeout's
        wait, if another connection to a file source had begun to write
        in between.  The tables a failed drop stranded go in the same
        transaction.
        """
        conn = self.connection
        if name is None:
            self._temp_counter += 1
            name = f"__ship_{self._temp_counter}"
        quoted = ", ".join(f'"{column}"' for column in columns)
        try:
            if self.fault_injector is not None:
                delay = self.fault_injector.on_statement(self.name)
                if delay > 0.0:
                    time.sleep(delay)
            conn.execute("BEGIN IMMEDIATE")
            for stranded in self._stranded:
                conn.execute(f'DROP TABLE IF EXISTS "{stranded}"')
            conn.execute(f'DROP TABLE IF EXISTS "{name}"')
            conn.execute(f'CREATE TABLE "{name}" ({quoted})')
            if rows:
                placeholders = ", ".join("?" * len(columns))
                conn.executemany(
                    f'INSERT INTO "{name}" VALUES ({placeholders})', rows)
            conn.execute("COMMIT")
            self._stranded.clear()
        except sqlite3.Error as error:
            if not self._rollback():
                # A swallowed rollback hides a dead connection: the next
                # statement on it fails with a confusing open-transaction
                # error.  Keep raising the original shipment error, but
                # leave an observable trace of the rollback failure.
                logger.warning(
                    "source %s: rollback after failed shipment into %r "
                    "also failed", self.name, name)
            raise _statement_error(
                f"source {self.name!r}: shipping into {name!r} failed: "
                f"{error}", error) from error
        return name

    def drop_table(self, name: str) -> None:
        try:
            self.connection.execute(f'DROP TABLE IF EXISTS "{name}"')
        except sqlite3.Error as error:
            if name not in self._stranded:
                self._stranded.append(name)
            raise _statement_error(
                f"source {self.name!r}: dropping {name!r} failed: "
                f"{error}", error) from error

    def table_names(self) -> list[str]:
        try:
            return [row[0] for row in self.connection.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "ORDER BY name")]
        except sqlite3.Error as error:
            raise _statement_error(
                f"source {self.name!r}: listing tables failed: "
                f"{error}", error) from error

    def row_count(self, table: str) -> int:
        return self.execute(f'SELECT COUNT(*) FROM "{table}"').rows[0][0]

    def read_catalog(self, sql: str) -> list[tuple]:
        """Answer one statistics read (:mod:`repro.relational.statistics`),
        not a plan statement: on a connection of its own, outside
        ``execute``'s accounting and the fault injector's hooks."""
        if self._closed:
            raise EvaluationError(f"source {self.name!r} is closed")
        try:
            connection = self._connect()
            try:
                return connection.execute(sql).fetchall()
            finally:
                connection.close()
        except sqlite3.Error as error:
            raise _statement_error(
                f"source {self.name!r}: statistics read failed: {error}\n"
                f"  {sql}", error) from error

    def close(self) -> None:
        self._closed = True
        self.connection.close()

    def __repr__(self) -> str:
        return f"DataSource({self.name!r})"


class Mediator(DataSource):
    """The middleware's own SQL engine, for the join steps no source can run.

    The paper's prototype did middleware processing in application code and
    suggested adding "a relational query-processor on the middleware" as a
    simple extension.  Collect nodes and guards are middleware processing
    in application code here too (:mod:`repro.runtime.collect`); this
    SQLite engine runs only the steps that read no base table, which
    :func:`repro.sqlq.planner.plan_steps` places at the mediator, over
    inputs shipped in by ``cache_result``.
    """

    def __init__(self):
        super().__init__(SourceSchema(MEDIATOR_NAME, ()))

    def cache_result(self, table_name: str, result) -> str:
        """Cache a shipped query output under ``table_name``."""
        return self.create_temp_table(result.columns, result.rows,
                                      table_name)


class Federation:
    """A single connection with every source ATTACHed under its own name.

    Used by the *conceptual* evaluator (Section 3.2), which executes
    multi-source queries directly — the paper's semantics does not care where
    tables live.  Qualified names render as ``"DB1"."patient"``.  The
    optimized pipeline never uses this; it runs decomposed single-source
    queries at the individual sources, which is what the equality tests
    between the two evaluation paths exercise.

    Every source is ATTACHed by its URI and stays live.
    """

    def __init__(self, sources: list[DataSource]):
        self.sources = {source.name: source for source in sources}
        self.connection = sqlite3.connect(":memory:", isolation_level=None)
        self.connection.execute("PRAGMA read_uncommitted=ON")
        for source in sources:
            self.connection.execute(
                "ATTACH DATABASE ? AS " + f'"{source.name}"', (source.uri,))

    def execute(self, sql: str, params: tuple = ()) -> ResultSet:
        try:
            cursor = self.connection.execute(sql, params)
            rows = cursor.fetchall()
        except sqlite3.Error as error:
            raise EvaluationError(
                f"federation: SQL failed: {error}\n  {sql}") from error
        columns = ([description[0] for description in cursor.description]
                   if cursor.description else [])
        return ResultSet(columns, rows)

    def create_temp_table(self, columns: list[str], rows: list[tuple],
                          name: str) -> str:
        """Materialize a set parameter in the federation's main schema."""
        quoted = ", ".join(f'"{c}"' for c in columns)
        self.connection.execute(f'DROP TABLE IF EXISTS main."{name}"')
        self.connection.execute(f'CREATE TABLE main."{name}" ({quoted})')
        if rows:
            placeholders = ", ".join("?" * len(columns))
            self.connection.executemany(
                f'INSERT INTO main."{name}" VALUES ({placeholders})', rows)
        return name

    def close(self) -> None:
        self.connection.close()

"""Basic database statistics — the costing API, answered on demand.

Section 5.2 assumes every source provides ``eval_cost(Q)`` and ``size(Q)``
estimates for the queries the middleware poses.  Our estimator
(:mod:`repro.optimizer.cost`) derives those from per-table statistics —
cardinality, per-column distinct counts, most-common values: the "basic
database statistics" of the paper's run-time plan generation — and the
:class:`StatisticsCatalog` reads each one from its source the first time
the planner or the cost model asks for exactly that, not before.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from functools import partial

from repro.errors import EvaluationError
from repro.relational.source import DataSource

logger = logging.getLogger("repro.statistics")

#: Assumed for a table nothing is known about (an unregistered source, a
#: failed read): a neutral default keeps estimation total.
NEUTRAL_CARDINALITY = 1000
_READS = {
    "cardinality": 'SELECT COUNT(*) FROM "{relation}"',
    "distinct": 'SELECT COUNT(DISTINCT "{column}") FROM "{relation}"',
    "mcv": 'SELECT CAST("{column}" AS TEXT), COUNT(*) FROM "{relation}" '
           'GROUP BY "{column}" ORDER BY COUNT(*) DESC, "{column}" '
           'LIMIT {limit}',
}


@dataclass
class TableStats:
    """Statistics for one relation.  What it does not hold it asks of the
    catalog: ``ask(kind, column)`` answers the value, or ``None`` when the
    read failed (a synthetic table has nobody to ask).

    ``most_common`` holds per-column most-common-value lists (value, count)
    — the optimizer uses them for constant-equality selectivities instead
    of the uniform 1/V assumption (Section 7's "make use of selectivity
    estimates within our cost function").
    """

    cardinality: int
    distinct: dict[str, int] = field(default_factory=dict)
    most_common: dict[str, tuple] = field(default_factory=dict)
    ask: object = field(default=lambda kind, column: None, repr=False)

    def distinct_count(self, column: str) -> int:
        """Distinct values in ``column`` (falls back to cardinality)."""
        value = self.distinct.get(column)
        if value is None:
            value = self.ask("distinct", column)
        return max(1, self.cardinality if value is None else value)

    def common_values(self, column: str) -> tuple:
        """The column's most-common ``(value, count)`` list — empty where
        it could say nothing: an empty table, an all-distinct column."""
        mcvs = self.most_common.get(column)
        if mcvs is None and self.cardinality:
            distinct = self.ask("distinct", column)
            if distinct is not None and distinct < self.cardinality:
                mcvs = self.ask("mcv", column)
        return mcvs or ()

    def equality_selectivity(self, column: str, value) -> float:
        """Fraction of rows with ``column = value``.

        With MCV statistics: the exact fraction for a most-common value,
        and the residual mass spread over the remaining distinct values
        otherwise; without them, the uniform ``1 / V(column)``.
        """
        if self.cardinality <= 0:
            return 0.0
        mcvs = self.common_values(column)
        if not mcvs:
            return 1.0 / self.distinct_count(column)
        as_text = None if value is None else str(value)
        for mcv_value, count in mcvs:
            if mcv_value == as_text or mcv_value == value:
                return count / self.cardinality
        mcv_mass = sum(count for _, count in mcvs)
        remaining_rows = max(self.cardinality - mcv_mass, 0)
        remaining_distinct = max(self.distinct_count(column) - len(mcvs), 1)
        return (remaining_rows / remaining_distinct) / self.cardinality


def collect_stats(source: DataSource,
                  mcv_count: int = 3) -> dict[str, TableStats]:
    """Read every statistic of every base relation of ``source`` now: a
    snapshot through the catalog's own readers (raises if one fails).

    ``mcv_count`` most-common values are gathered per column (0 disables).
    """
    catalog = StatisticsCatalog(mcv_count)
    catalog.add_source(source)
    stats: dict[str, TableStats] = {}
    for relation_schema in source.schema.relations:
        asked = catalog.table(source.name, relation_schema.name)
        held = stats[relation_schema.name] = TableStats(asked.cardinality)
        for column in relation_schema.column_names:
            held.distinct[column] = asked.ask("distinct", column)
            if mcv_count and (mcvs := asked.common_values(column)):
                held.most_common[column] = mcvs
    if catalog.read_failures:
        raise EvaluationError(f"{catalog.read_failures} statistics read(s) of "
                              f"source {source.name!r} failed")
    return stats


class StatisticsCatalog:
    """Statistics for all sources, addressable as ``source:relation``.

    A registered source is *asked*: each statistic is one read
    (:meth:`DataSource.read_catalog`) under the catalog's lock, issued the
    first time something wants it and kept until :meth:`invalidate`.  Reads
    are advisory — one that fails is logged, counted, not kept and answered
    like an unknown table: planning goes on, and the plan's own statement
    reports the broken source.
    """

    def __init__(self, mcv_count: int = 3):
        from repro.obs.tracer import NULL_TRACER
        self.mcv_count = mcv_count
        self._stats: dict[str, dict[str, TableStats]] = {}
        self._sources: dict[str, DataSource] = {}
        self._lock = threading.Lock()
        self._memo: dict[tuple, object] = {}
        #: Reads since the last invalidation, in order:
        #: ``(source, relation, kind, column, seconds)``.
        self.reads: list[tuple] = []
        self.read_failures = 0
        #: Gets a ``statistics`` span per read; ``Middleware.prepare``
        #: points it at the tracer of the prepare the reads serve.
        self.tracer = NULL_TRACER

    def add_source(self, source: DataSource) -> None:
        """Register ``source``; nothing is read until it is asked for."""
        self._sources[source.name] = source

    def invalidate(self) -> None:
        """Forget every read: the next plan asks the sources again."""
        with self._lock:
            self._memo.clear()
            self.reads.clear()

    def _ask(self, source: DataSource, relation: str, kind: str,
             column: str | None):
        key = (source.name, relation, kind, column)
        with self._lock:
            if key not in self._memo:
                sql = _READS[kind].format(relation=relation, column=column,
                                          limit=int(self.mcv_count))
                try:
                    with self.tracer.span("statistics", "statistics",
                                          source=source.name,
                                          relation=relation, kind=kind,
                                          column=column) as span:
                        rows = source.read_catalog(sql)
                except EvaluationError as error:
                    logger.warning("statistics read failed, planning on the "
                                   "neutral default: %s", error)
                    self.read_failures += 1
                    self.tracer.metrics.add("statistics_read_failures", 1)
                    return None
                self._memo[key] = (tuple(rows) if kind == "mcv"
                                   else rows[0][0])
                self.reads.append((*key, span.duration))
                self.tracer.metrics.add("statistics_reads", 1)
            return self._memo[key]

    def describe_reads(self, timed: bool = True) -> list[str]:
        """What the plans asked of their sources, one line per read, with
        its measured seconds unless ``timed`` is False."""
        return [f"  {source}:{relation} {kind}"
                f"{'' if column is None else f'({column})'}"
                f"{f'  {seconds:.4f}s' if timed else ''}"
                for source, relation, kind, column, seconds in self.reads]

    def table_version(self, source_name: str, relation_name: str) -> int:
        """Current monotonic version of ``source:relation`` — a live read
        (docs/INCREMENTAL.md); 0 if the source was never registered via
        :meth:`add_source`: synthetic catalogs carry no freshness."""
        source = self._sources.get(source_name)
        return 0 if source is None else source.table_version(relation_name)

    def set_stats(self, source_name: str, relation_name: str,
                  stats: TableStats) -> None:
        self._stats.setdefault(source_name, {})[relation_name] = stats

    def table(self, source_name: str, relation_name: str) -> TableStats:
        held = self._stats.get(source_name, {}).get(relation_name)
        if held is not None:
            return held
        if not self.has(source_name, relation_name):
            return TableStats(NEUTRAL_CARDINALITY)
        ask = partial(self._ask, self._sources[source_name], relation_name)
        cardinality = ask("cardinality", None)
        return TableStats(NEUTRAL_CARDINALITY if cardinality is None
                          else cardinality, ask=ask)

    def has(self, source_name: str, relation_name: str) -> bool:
        source = self._sources.get(source_name)
        return (relation_name in self._stats.get(source_name, {})
                or source is not None
                and source.schema.has_relation(relation_name))

    @classmethod
    def from_sources(cls, sources: list[DataSource]) -> "StatisticsCatalog":
        catalog = cls()
        for source in sources:
            catalog.add_source(source)
        return catalog

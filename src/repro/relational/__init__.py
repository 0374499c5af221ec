"""Multi-source relational substrate.

The paper evaluates AIGs over several relational databases that "may have
different systems and may even reside in different sites".  Here each logical
source is a :class:`DataSource` over its own ``sqlite3`` database, plus a
distinguished :class:`Mediator` source that runs the plan steps reading no
base table over results shipped to it.  Inter-site data transfer is simulated by
:class:`Network` (the paper, too, *simulated* transfers at configurable
bandwidths).  :mod:`repro.relational.statistics` implements the per-source
"query costing API" inputs: table cardinalities, distinct counts, and widths.
"""

from repro.relational.schema import Column, RelationSchema, SourceSchema, Catalog
from repro.relational.source import (
    DataSource,
    Federation,
    Mediator,
    ResultSet,
    MEDIATOR_NAME,
)
from repro.relational.network import Network
from repro.relational.statistics import TableStats, collect_stats, StatisticsCatalog

__all__ = [
    "Column",
    "RelationSchema",
    "SourceSchema",
    "Catalog",
    "DataSource",
    "Federation",
    "Mediator",
    "ResultSet",
    "MEDIATOR_NAME",
    "Network",
    "TableStats",
    "collect_stats",
    "StatisticsCatalog",
]

"""Multi-source relational substrate.

The paper evaluates AIGs over several relational databases that "may have
different systems and may even reside in different sites".  Here each logical
source is a :class:`DataSource` over its own ``sqlite3`` database (or, as
the one variant, a read-only CSV source whose files the same engine
loads, :mod:`repro.relational.csvstore`; see docs/BACKENDS.md), plus a
distinguished :class:`Mediator` source that joins shipped results for the
sources that cannot receive them.  Inter-site data transfer is simulated by
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
from repro.relational.xmlsource import ShredSpec, shred, shred_spec, xml_source

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
    "ShredSpec",
    "shred",
    "shred_spec",
    "xml_source",
]

"""repro — Attribute Integration Grammars (AIGs).

A from-scratch reproduction of *"Capturing both Types and Constraints in
Data Integration"* (Benedikt, Chan, Fan, Freire, Rastogi — SIGMOD 2003): a
specification language and middleware that integrates data from multiple
relational sources into an XML document guaranteed to conform to a DTD and
to satisfy XML keys and inclusion constraints.

Quick start::

    from repro import (AIG, Middleware, ConceptualEvaluator, parse_dtd,
                       Catalog, DataSource, Network, assign, inh, syn,
                       query, collect, union, singleton, serialize)

    aig = AIG(parse_dtd(DTD_TEXT), catalog, root_inh=("date",))
    ...                       # declare attributes, rules, constraints
    report = Middleware(aig, sources, Network.mbps(1.0)).evaluate(
        {"date": "2003-06-07"})
    print(serialize(report.document, indent=2))

See ``examples/quickstart.py`` for a complete runnable walk-through and
``repro.hospital`` for the paper's full Example 1.1.
"""

from repro.errors import (
    CompilationError,
    ConstraintError,
    CyclicDependencyError,
    DTDError,
    EvaluationAborted,
    EvaluationError,
    PlanError,
    RecursionDepthExceeded,
    RecursionTruncated,
    ReproError,
    SourceUnavailableError,
    SpecError,
    SQLSyntaxError,
    TypeCompatibilityError,
    ValidationError,
)
from repro.dtd import DTD, normalize_dtd, parse_dtd, unfold_dtd
from repro.xmlmodel import (
    XMLElement,
    XMLText,
    conforms_to,
    element,
    parse_xml,
    serialize,
    text,
    validate_tree,
)
from repro.constraints import (
    InclusionConstraint,
    Key,
    check_constraints,
    foreign_key,
)
from repro.relational import (
    Catalog,
    DataSource,
    Federation,
    Mediator,
    Network,
    SourceSchema,
    StatisticsCatalog,
)
from repro.relational.schema import (
    Column,
    RelationSchema,
    relation,
)
from repro.aig import (
    AIG,
    ChoiceBranch,
    ConceptualEvaluator,
    Rows,
    assign,
    collect,
    inh,
    query,
    singleton,
    syn,
    union,
)
from repro.compilation import specialize
from repro.resilience import FaultInjector
from repro.runtime import ExecutionReport, Middleware, strip_unfolding, unfold_aig

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError", "SpecError", "TypeCompatibilityError",
    "CyclicDependencyError", "DTDError", "ConstraintError", "SQLSyntaxError",
    "CompilationError", "PlanError", "EvaluationError", "EvaluationAborted",
    "RecursionDepthExceeded", "RecursionTruncated", "ValidationError",
    "SourceUnavailableError",
    # DTD + XML
    "DTD", "parse_dtd", "normalize_dtd", "unfold_dtd",
    "XMLElement", "XMLText", "element", "text", "serialize", "parse_xml",
    "conforms_to", "validate_tree",
    # constraints
    "Key", "InclusionConstraint", "foreign_key", "check_constraints",
    # relational substrate
    "Catalog", "SourceSchema", "RelationSchema", "Column", "relation",
    "DataSource", "Mediator", "Federation", "Network", "StatisticsCatalog",
    # AIG
    "AIG", "ChoiceBranch", "ConceptualEvaluator", "Rows",
    "assign", "inh", "syn", "query", "collect", "union", "singleton",
    # pipeline
    "specialize", "unfold_aig", "strip_unfolding",
    "Middleware", "ExecutionReport",
    # resilience
    "FaultInjector",
    "__version__",
]

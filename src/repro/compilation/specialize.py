"""Specialized-AIG generation: the pre-processing phase (Section 5.1).

``specialize`` turns a user AIG into a specialized AIG automatically — "no
user intervention is needed":

1. constraints are compiled into synthesized members and guards (3.3);
2. multi-source query sites are decomposed into single-source internal
   states (3.4) — recorded as plan metadata consumed by the optimizer;
3. the occurrence analysis (copy elimination, Section 4) is constructed for
   non-recursive DTDs so the optimizer can read parameters from originating
   tables directly.

Recursive AIGs are specialized per recursion unfolding by
:mod:`repro.runtime.recursion`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dtd.analysis import recursive_types
from repro.relational.statistics import StatisticsCatalog
from repro.sqlq.planner import PlanStep
from repro.aig.grammar import AIG
from repro.compilation.constraint_compile import compile_constraints
from repro.compilation.decompose import QuerySite, decompose_query_sites
from repro.compilation.occurrences import OccurrenceTree


@dataclass
class SpecializedAIG:
    """The pre-processing output: grammar + guards + plans + analyses."""

    aig: AIG
    decompositions: dict[QuerySite, list[PlanStep]]
    occurrences: OccurrenceTree | None

    @property
    def guards(self):
        return self.aig.guards


def specialize(aig: AIG,
               stats: StatisticsCatalog | None = None,
               tracer=None) -> SpecializedAIG:
    """Pre-process ``aig``: constraint compilation + query decomposition.

    The occurrence analysis is attached for non-recursive DTDs (it is what
    the optimizer builds the query dependency graph from); recursive AIGs
    get it after unfolding.  ``tracer`` (see :mod:`repro.obs`) records one
    span per pre-processing stage.
    """
    from repro.obs.tracer import NULL_TRACER
    tracer = NULL_TRACER if tracer is None else tracer
    with tracer.span("compile-constraints", "compile",
                     constraints=len(aig.constraints)):
        compiled = compile_constraints(aig)
        compiled.validate()
    with tracer.span("decompose", "compile"):
        decompositions = decompose_query_sites(compiled, stats)
    with tracer.span("occurrence-analysis", "compile"):
        occurrences = (OccurrenceTree(compiled)
                       if not recursive_types(compiled.dtd) else None)
    return SpecializedAIG(compiled, decompositions, occurrences)

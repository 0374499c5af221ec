"""CSR/QSR rule classification (Section 4).

"A semantic rule in a (specialized) AIG is classified as a copy rule (CSR)
if its right-hand side makes use only of functions of the form ``xk`` or
``⊔x``; it is referred to as a query rule (QSR) otherwise."  Copy
elimination inlines chains of CSRs into the QSR that consumes them; in this
implementation that inlining is performed by the occurrence analysis
(:meth:`repro.compilation.occurrences.OccurrenceTree.resolve_inh_scalar`),
and this module provides the classification itself — used by tests, by
documentation tooling, and as the static statistic reported in benchmarks
(how many rules the optimizer never materializes).
"""

from __future__ import annotations

from repro.aig.functions import (
    Assign,
    AttrRef,
    CollectChildren,
    Const,
    EmptyCollection,
    InhFunc,
    QueryFunc,
    SingletonSet,
    UnionExpr,
)
from repro.aig.grammar import AIG
from repro.aig.rules import (
    ChoiceRule,
    EmptyRule,
    PCDataRule,
    SequenceRule,
    StarRule,
)


def _expr_is_copy(expression) -> bool:
    """Is the expression a plain member projection or child collection?"""
    if isinstance(expression, (AttrRef, CollectChildren)):
        return True
    if isinstance(expression, (Const, EmptyCollection)):
        return True  # constants copy trivially
    if isinstance(expression, SingletonSet):
        return False  # builds a new tuple: not a pure copy
    if isinstance(expression, UnionExpr):
        return False  # combines values: not a pure copy
    return False


def is_copy_rule(function: InhFunc | Assign) -> bool:
    """CSR test for one rule right-hand side."""
    if isinstance(function, QueryFunc):
        return False
    assert isinstance(function, Assign)
    return all(_expr_is_copy(expression)
               for _, expression in function.items)


def classify_rules(aig: AIG) -> dict[str, list[tuple[str, bool]]]:
    """Per element type, each rule site with its CSR flag.

    Sites are labeled ``inh:<child>``, ``syn``, ``text``, ``condition``, and
    ``branch:<child>``; the boolean is True for CSRs.
    """
    result: dict[str, list[tuple[str, bool]]] = {}
    for element_type in sorted(aig.dtd.productions):
        try:
            rule = aig.rule_for(element_type)
        except Exception:
            continue
        sites: list[tuple[str, bool]] = []
        if isinstance(rule, PCDataRule):
            sites.append(("text", is_copy_rule(rule.text)))
            sites.append(("syn", is_copy_rule(rule.syn)))
        elif isinstance(rule, EmptyRule):
            sites.append(("syn", is_copy_rule(rule.syn)))
        elif isinstance(rule, SequenceRule):
            for child, function in rule.inh:
                sites.append((f"inh:{child}", is_copy_rule(function)))
            sites.append(("syn", is_copy_rule(rule.syn)))
        elif isinstance(rule, StarRule):
            sites.append(("inh:*", False))  # iteration queries are QSRs
            sites.append(("syn", is_copy_rule(rule.syn)))
        else:
            assert isinstance(rule, ChoiceRule)
            sites.append(("condition", False))
            for child, branch in rule.branches:
                sites.append((f"branch:{child}",
                              is_copy_rule(branch.inh)))
        result[element_type] = sites
    return result

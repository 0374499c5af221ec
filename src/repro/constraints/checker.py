"""Direct validation of XML keys and inclusion constraints over trees.

These checkers walk the materialized tree and are the semantic ground truth:
the constraint-compilation path (Section 3.3) must abort generation exactly
when these checkers would report a violation on the finished document.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.model import Constraint, InclusionConstraint, Key
from repro.xmlmodel.node import XMLElement


@dataclass(frozen=True)
class Violation:
    """One constraint violation, located at a context element."""

    constraint: Constraint
    context_path: str
    detail: str

    def __str__(self) -> str:
        return f"{self.constraint} violated at {self.context_path}: {self.detail}"


def check_constraint(tree: XMLElement, constraint: Constraint) -> list[Violation]:
    """All violations of one constraint in ``tree``."""
    if isinstance(constraint, Key):
        return _check_key(tree, constraint)
    if isinstance(constraint, InclusionConstraint):
        return _check_inclusion(tree, constraint)
    raise TypeError(f"unknown constraint type {type(constraint).__name__}")


def check_constraints(tree: XMLElement,
                      constraints: list[Constraint],
                      tracer=None) -> list[Violation]:
    """All violations of all constraints, in constraint order.

    ``tracer`` (see :mod:`repro.obs`) records one ``constraint`` span per
    constraint checked plus ``constraint_checks``/``violations_found``
    counters; the default no-op tracer adds nothing.
    """
    from repro.obs.tracer import NULL_TRACER
    tracer = NULL_TRACER if tracer is None else tracer
    violations: list[Violation] = []
    for constraint in constraints:
        with tracer.span(str(constraint), "constraint") as span:
            found = check_constraint(tree, constraint)
            span.set(violations=len(found))
        violations.extend(found)
    tracer.metrics.add("constraint_checks", len(constraints))
    tracer.metrics.add("violations_found", len(violations))
    return violations


def _field_tuple(node: XMLElement, fields: tuple[str, ...]):
    """The node's (f1,...,fk) subelement value tuple; None if any absent."""
    values = tuple(node.subelement_value(f) for f in fields)
    if any(value is None for value in values):
        return None
    return values


def key_violation(key: Key, context_path: str,
                  counts: dict[tuple, int]) -> Violation | None:
    """The violation for one key context given its value counts, if any.

    ``counts`` maps each target field tuple to its multiplicity inside the
    context.  Every checker words a key violation through this function —
    the tree walk below and the streaming checker's scopes, which is also
    what a sharded run's verdict is judged on.
    """
    duplicates = sorted(v for v, count in counts.items() if count > 1)
    if not duplicates:
        return None
    shown = [v[0] if len(v) == 1 else v for v in duplicates]
    return Violation(
        key, context_path,
        f"duplicate {'/'.join(key.fields)} value(s) {shown} among "
        f"{key.target} elements")


def inclusion_violation(ic: InclusionConstraint, context_path: str,
                        source_values, target_values) -> Violation | None:
    """The violation for one inclusion context given its value sets, if any.

    ``source_values``/``target_values`` are the field tuples observed for
    the context (``None`` entries, from nodes missing a field, are
    ignored).  Shared by every checker, like :func:`key_violation`.
    """
    available = set(target_values)
    available.discard(None)
    missing = sorted({value for value in source_values
                      if value is not None and value not in available})
    if not missing:
        return None
    shown = [v[0] if len(v) == 1 else v for v in missing]
    return Violation(
        ic, context_path,
        f"{ic.source}.{'/'.join(ic.source_fields)} value(s) {shown} "
        f"have no matching "
        f"{ic.target}.{'/'.join(ic.target_fields)}")


def _check_key(tree: XMLElement, key: Key) -> list[Violation]:
    violations: list[Violation] = []
    for context_node in tree.iter(key.context):
        seen: dict[tuple, int] = {}
        for target_node in context_node.iter(key.target):
            value = _field_tuple(target_node, key.fields)
            if value is None:
                continue
            seen[value] = seen.get(value, 0) + 1
        violation = key_violation(key, context_node.path(), seen)
        if violation is not None:
            violations.append(violation)
    return violations


def _check_inclusion(tree: XMLElement,
                     ic: InclusionConstraint) -> list[Violation]:
    violations: list[Violation] = []
    for context_node in tree.iter(ic.context):
        targets = {_field_tuple(node, ic.target_fields)
                   for node in context_node.iter(ic.target)}
        sources = {_field_tuple(node, ic.source_fields)
                   for node in context_node.iter(ic.source)}
        violation = inclusion_violation(ic, context_node.path(),
                                        sources, targets)
        if violation is not None:
            violations.append(violation)
    return violations

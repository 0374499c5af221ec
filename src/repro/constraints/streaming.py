"""Streaming validation of keys and inclusion constraints.

:class:`StreamingConstraintChecker` consumes the ``start``/``text``/``end``
event protocol of :func:`repro.runtime.tagging.stream_document` and produces
the *same* :class:`~repro.constraints.checker.Violation` list (same order,
same detail strings) as :func:`~repro.constraints.checker.check_constraints`
run over the materialized tree — without ever holding the tree.

State is bounded by document depth plus the constraint bags themselves
(per-context key counts and inclusion value sets), mirroring how the
constraint-compilation path synthesizes key/inclusion bags bottom-up
(Section 3.3): a partial stream is enough to accumulate them.

Sharded runs use this engine too (:mod:`repro.constraints.reconcile`):
a worker feeds it its shard document and ships the scopes its slice
cannot decide; the parent judges them, merged, through ``_close_scope``.
"""

from __future__ import annotations

from repro.constraints.checker import (
    Violation,
    inclusion_violation,
    key_violation,
)
from repro.constraints.model import Constraint, InclusionConstraint, Key


class _Frame:
    """One open element: its tag and any field captures in progress.

    ``collected`` maps a needed field tag to the list of text parts of the
    element's *first* child with that tag (``subelement_value`` semantics);
    fields never seen are simply absent from the dict.
    """

    __slots__ = ("tag", "collected")

    def __init__(self, tag: str, capturing: bool):
        self.tag = tag
        self.collected: dict[str, list[str]] | None = {} if capturing else None


class _Scope:
    """One open context subtree of one constraint."""

    __slots__ = ("path", "order", "counts", "inside", "available", "sources")

    def __init__(self, path: str, order: int):
        self.path = path
        self.order = order
        self.counts: dict[tuple, int] = {}   # Key: field tuple -> multiplicity
        #: the part of ``counts`` a shard's slice contributed (reconcile.py)
        self.inside: dict[tuple, int] = {}
        self.available: set[tuple] = set()   # Inclusion: target tuples
        self.sources: set[tuple] = set()     # Inclusion: source tuples


class StreamingConstraintChecker:
    """Event sink accumulating constraint verdicts over a document stream.

    Feed a complete document (balanced ``start``/``end`` events), then call
    :meth:`result`.
    """

    def __init__(self, constraints: list[Constraint]):
        self.constraints = list(constraints)
        #: element tag -> union of field tags its frames must capture
        self._need_fields: dict[str, set[str]] = {}
        #: element tag -> [(constraint index, role)], role in
        #: {"key", "source", "target"}
        self._roles: dict[str, list[tuple[int, str]]] = {}
        #: element tag -> constraint indexes using it as context
        self._context_of: dict[str, list[int]] = {}
        for index, constraint in enumerate(self.constraints):
            if isinstance(constraint, Key):
                self._need_fields.setdefault(
                    constraint.target, set()).update(constraint.fields)
                self._roles.setdefault(
                    constraint.target, []).append((index, "key"))
            elif isinstance(constraint, InclusionConstraint):
                self._need_fields.setdefault(
                    constraint.source, set()).update(constraint.source_fields)
                self._need_fields.setdefault(
                    constraint.target, set()).update(constraint.target_fields)
                self._roles.setdefault(
                    constraint.source, []).append((index, "source"))
                self._roles.setdefault(
                    constraint.target, []).append((index, "target"))
            else:
                raise TypeError(
                    f"unknown constraint type {type(constraint).__name__}")
            self._context_of.setdefault(constraint.context, []).append(index)
        self._stack: list[_Frame] = []
        self._tags: list[str] = []
        #: active scope stack per constraint (nested same-context subtrees)
        self._scopes: list[list[_Scope]] = [[] for _ in self.constraints]
        #: (context start order, violation) per constraint
        self._found: list[list[tuple[int, Violation]]] = \
            [[] for _ in self.constraints]
        #: strictly nested field captures: (capture child frame, parts list)
        self._captures: list[tuple[_Frame, list[str]]] = []
        self._order = 0

    # -- event protocol -------------------------------------------------
    def start(self, tag: str) -> None:
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(tag, tag in self._need_fields)
        if parent is not None and parent.collected is not None \
                and tag in self._need_fields.get(parent.tag, ()) \
                and tag not in parent.collected:
            parts: list[str] = []
            parent.collected[tag] = parts
            self._captures.append((frame, parts))
        self._stack.append(frame)
        self._tags.append(tag)
        for index in self._context_of.get(tag, ()):
            self._scopes[index].append(
                _Scope("/".join(self._tags), self._order))
        self._order += 1

    def text(self, value: str) -> None:
        for _, parts in self._captures:
            parts.append(value)

    def end(self) -> None:
        frame = self._stack.pop()
        self._tags.pop()
        if self._captures and self._captures[-1][0] is frame:
            self._captures.pop()
        # Record this element as key target / inclusion side *before*
        # closing any scope it opens: ``context.iter(target)`` is
        # descendant-or-self, so a context element counts in its own scope.
        for index, role in self._roles.get(frame.tag, ()):
            constraint = self.constraints[index]
            if role == "key":
                fields = constraint.fields
            elif role == "source":
                fields = constraint.source_fields
            else:
                fields = constraint.target_fields
            value = self._field_tuple(frame, fields)
            if value is None:
                continue
            for scope in self._scopes[index]:
                if role == "key":
                    scope.counts[value] = scope.counts.get(value, 0) + 1
                elif role == "source":
                    scope.sources.add(value)
                else:
                    scope.available.add(value)
        for index in self._context_of.get(frame.tag, ()):
            self._close_scope(index, self._scopes[index].pop())

    # -- verdicts -------------------------------------------------------
    def result(self) -> list[Violation]:
        """All violations, ordered as :func:`check_constraints` orders them:
        by constraint, then by document order of the context element."""
        if self._stack:
            raise ValueError(
                f"document stream incomplete: {len(self._stack)} elements "
                f"still open")
        violations: list[Violation] = []
        for found in self._found:
            found.sort(key=lambda item: item[0])
            violations.extend(violation for _, violation in found)
        return violations

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _field_tuple(frame: _Frame, fields: tuple[str, ...]):
        assert frame.collected is not None
        parts_by_field = [frame.collected.get(f) for f in fields]
        if any(parts is None for parts in parts_by_field):
            return None
        return tuple("".join(parts) for parts in parts_by_field)

    def _close_scope(self, index: int, scope: _Scope) -> None:
        constraint = self.constraints[index]
        if isinstance(constraint, Key):
            violation = key_violation(constraint, scope.path, scope.counts)
        else:
            violation = inclusion_violation(constraint, scope.path,
                                            scope.sources, scope.available)
        if violation is not None:
            self._found[index].append((scope.order, violation))

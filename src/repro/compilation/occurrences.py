"""Occurrence analysis: the static instance structure of a non-recursive AIG.

An element type can occur at several positions of the document (``trId``
under both ``treatment`` and ``item``); each position is an
:class:`Occurrence`.  For a non-recursive DTD the occurrence tree is finite,
and it is the skeleton both the query dependency graph and the tagging plan
are built on:

* **Iteration occurrences** (the root, star children, and children whose
  inherited attribute is computed by a query) have one *instance per output
  tuple* of their query; the optimized pipeline materializes one table per
  iteration occurrence, every row carrying ``__id``/``__parent`` path-
  encoding columns.  All other occurrences have exactly one instance per
  instance of their *anchor* — the nearest iteration ancestor-or-self.

* **Copy-chain resolution** (:meth:`OccurrenceTree.resolve_inh_scalar`)
  implements Section 4's copy elimination: a scalar inherited member is
  chased through copy rules (CSRs), across production boundaries, until it
  bottoms out at a query output column (:class:`TableColumn`), the root
  inherited attribute (:class:`RootValue`), or a constant
  (:class:`ConstValue`).  Queries in the optimized pipeline therefore read
  their parameters directly from the *originating* table — copies never
  materialize.

* **Collection expansion** (:meth:`OccurrenceTree.expand_syn_collection`)
  symbolically evaluates a synthesized set/bag member into a union of
  :class:`Extraction`\\ s — "take these columns from the table of that
  iteration occurrence, grouped under this anchor" — which the optimizer
  compiles into the collection programs of collect nodes and guards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompilationError
from repro.dtd.analysis import recursive_types
from repro.dtd.model import Choice, Empty, PCDATA, Sequence, Star
from repro.aig.functions import (
    Assign,
    AttrRef,
    CollectChildren,
    Const,
    EmptyCollection,
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


class Occurrence:
    """One position of an element type in the document skeleton.

    Two orthogonal properties drive the optimized pipeline:

    * ``is_iteration`` — the occurrence *multiplies instances*: the root
      (one instance) and star children (one instance per query tuple).
      Every occurrence's ``anchor`` is its nearest iteration
      ancestor-or-self; an occurrence has exactly one instance per anchor
      instance.
    * ``has_table`` — the occurrence's query output is materialized: star
      children (rows = instances) and query-valued inherited attributes of
      sequence/choice children (rows = the set value's tuples, grouped per
      anchor instance).  Every table row carries ``__parent`` = the ``__id``
      of the owning row in the parent anchor's table (absent when the parent
      anchor is the root).
    """

    __slots__ = ("element_type", "parent", "kind", "path", "children",
                 "is_iteration", "has_table", "anchor")

    def __init__(self, element_type: str, parent: "Occurrence | None",
                 kind: str, has_table: bool):
        self.element_type = element_type
        self.parent = parent
        self.kind = kind                      # 'root' | 'seq' | 'star' | 'choice'
        self.path = (element_type if parent is None
                     else f"{parent.path}/{element_type}")
        self.children: list[Occurrence] = []
        self.is_iteration = kind in ("root", "star")
        self.has_table = has_table
        self.anchor: Occurrence = (self if self.is_iteration
                                   else parent.anchor)  # type: ignore

    def child(self, element_type: str) -> "Occurrence":
        for child in self.children:
            if child.element_type == element_type:
                return child
        raise CompilationError(
            f"occurrence {self.path} has no child {element_type!r}")

    def parent_anchor(self) -> "Occurrence":
        """The iteration occurrence whose rows this table's ``__parent``
        references."""
        assert self.has_table and self.parent is not None
        return self.parent.anchor

    def choice_edges_gating(self) -> list["Occurrence"]:
        """Choice-child occurrences on the path from self (inclusive) up to
        the parent anchor (exclusive) — the branch memberships that gate
        this tabled occurrence's rows within one anchor instance."""
        assert self.parent is not None
        stop = self.parent.anchor
        edges: list[Occurrence] = []
        current: Occurrence = self
        while current is not stop:
            if current.kind == "choice":
                edges.append(current)
            current = current.parent  # type: ignore[assignment]
            if current is None:
                break
        return edges

    def __repr__(self) -> str:
        marker = "*" if self.is_iteration else ("#" if self.has_table else "")
        return f"Occurrence({self.path}{marker})"


# ----------------------------------------------------------------------
# provenance of scalar values
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RootValue:
    """A member of the AIG's global inherited attribute (known at runtime
    start; a constant of the whole evaluation)."""

    member: str


@dataclass(frozen=True)
class TableColumn:
    """Column ``column`` of the table of iteration occurrence ``occurrence``."""

    occurrence: Occurrence
    column: str


@dataclass(frozen=True)
class ConstValue:
    """A literal constant from a rule."""

    value: object


Provenance = RootValue | TableColumn | ConstValue


@dataclass(frozen=True)
class Extraction:
    """One union branch of an expanded collection member.

    Rows come from the table of ``source`` (a tabled occurrence, or the
    anchor of a singleton contribution); ``columns`` maps each target field
    to a provenance that must be either a column of ``source``'s table or a
    root/const value.  ``group`` is the iteration occurrence whose rows the
    result is grouped under (the owner's anchor): each extracted row belongs
    to the ``group`` ancestor row found by following ``__parent`` pointers
    from ``source`` up to ``group``.  ``conditions`` lists choice-branch
    gates ``(choice-production occurrence, branch index)`` that must have
    selected this branch for the rows to exist.
    """

    source: Occurrence
    columns: tuple[tuple[str, Provenance], ...]
    group: Occurrence
    conditions: tuple[tuple["Occurrence", int], ...] = ()


class OccurrenceTree:
    """The occurrence tree of a non-recursive AIG plus its analyses."""

    def __init__(self, aig: AIG):
        if recursive_types(aig.dtd):
            raise CompilationError(
                "occurrence analysis requires a non-recursive DTD; unfold "
                "recursion first (Section 5.5)")
        self.aig = aig
        self.root = self._build(aig.dtd.root, None, "root")
        self.by_path: dict[str, Occurrence] = {}
        self._index(self.root)
        self.iterations: list[Occurrence] = sorted(
            (o for o in self.by_path.values() if o.is_iteration),
            key=lambda o: o.path)
        self.tabled: list[Occurrence] = sorted(
            (o for o in self.by_path.values() if o.has_table),
            key=lambda o: o.path)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, element_type: str, parent: Occurrence | None,
               kind: str) -> Occurrence:
        has_table = kind == "star" or self._has_query_inh(
            parent, element_type, kind)
        occurrence = Occurrence(element_type, parent, kind, has_table)
        model = self.aig.dtd.production(element_type)
        if isinstance(model, Sequence):
            for item in model.items:
                occurrence.children.append(
                    self._build(item.value, occurrence, "seq"))
        elif isinstance(model, Choice):
            for item in model.items:
                occurrence.children.append(
                    self._build(item.value, occurrence, "choice"))
        elif isinstance(model, Star):
            occurrence.children.append(
                self._build(model.item.value, occurrence, "star"))
        return occurrence

    def _has_query_inh(self, parent: Occurrence | None, element_type: str,
                       kind: str) -> bool:
        """Is this (non-star) child's Inh computed by a query?"""
        if parent is None or kind == "star":
            return False
        rule = self.aig.rule_for(parent.element_type)
        if kind == "seq" and isinstance(rule, SequenceRule):
            return isinstance(rule.inh_for(element_type), QueryFunc)
        if kind == "choice" and isinstance(rule, ChoiceRule):
            return isinstance(rule.branch_for(element_type).inh, QueryFunc)
        return False

    def _index(self, occurrence: Occurrence) -> None:
        if occurrence.path in self.by_path:
            raise CompilationError(
                f"duplicate occurrence path {occurrence.path!r} (repeated "
                f"child types in one production are not supported by the "
                f"optimized pipeline)")
        self.by_path[occurrence.path] = occurrence
        for child in occurrence.children:
            self._index(child)

    # ------------------------------------------------------------------
    # copy-chain resolution (copy elimination)
    # ------------------------------------------------------------------
    def resolve_inh_scalar(self, occurrence: Occurrence,
                           member: str) -> Provenance:
        """Chase a scalar inherited member to its origin."""
        if occurrence.parent is None:
            return RootValue(member)
        if occurrence.is_iteration:
            # Query output column of this star child's own table.
            return TableColumn(occurrence, member)
        parent = occurrence.parent
        rule = self.aig.rule_for(parent.element_type)
        if isinstance(rule, SequenceRule):
            function = rule.inh_for(occurrence.element_type)
        elif isinstance(rule, ChoiceRule):
            function = rule.branch_for(occurrence.element_type).inh
        else:
            raise CompilationError(
                f"no inherited rule path for {occurrence.path}")
        if isinstance(function, QueryFunc):
            raise CompilationError(
                f"Inh({occurrence.element_type}) at {occurrence.path} is "
                f"query-valued and has no scalar members")
        try:
            expression = function.expr(member)
        except Exception:
            return ConstValue(None)  # unassigned member: null
        return self._resolve_expr(parent, expression)

    def _resolve_expr(self, context: Occurrence, expression) -> Provenance:
        if isinstance(expression, Const):
            return ConstValue(expression.value)
        assert isinstance(expression, AttrRef)
        if expression.kind == "inh":
            return self.resolve_inh_scalar(context, expression.member)
        sibling = context.child(expression.element)
        return self.resolve_syn_scalar(sibling, expression.member)

    def resolve_syn_scalar(self, occurrence: Occurrence,
                           member: str) -> Provenance:
        """Chase a scalar synthesized member down to its origin."""
        rule = self.aig.rule_for(occurrence.element_type)
        if isinstance(rule, (PCDataRule, EmptyRule)):
            expression = self._syn_expr(rule.syn, member)
            if isinstance(expression, Const):
                return ConstValue(expression.value)
            assert isinstance(expression, AttrRef) and expression.kind == "inh"
            return self.resolve_inh_scalar(occurrence, expression.member)
        if isinstance(rule, SequenceRule):
            expression = self._syn_expr(rule.syn, member)
            return self._resolve_expr(occurrence, expression)
        raise CompilationError(
            f"scalar Syn({occurrence.element_type}).{member} at "
            f"{occurrence.path} is not resolvable (star/choice scalar "
            f"synthesized members are data-dependent)")

    def _syn_expr(self, assignment: Assign, member: str):
        try:
            return assignment.expr(member)
        except Exception:
            return Const(None)

    # ------------------------------------------------------------------
    # collection expansion
    # ------------------------------------------------------------------
    def expand_inh_collection(self, occurrence: Occurrence,
                              member: str) -> list[Extraction]:
        """Expand a collection-valued inherited member (e.g. Inh(bill).trIdS)."""
        if occurrence.parent is None:
            raise CompilationError(
                "root inherited collections are not supported by the "
                "optimized pipeline")
        if occurrence.has_table:
            # A query-valued inherited set: its tuples are the table rows,
            # one group per anchor instance.
            schema = self.aig.inh_schema(occurrence.element_type)
            fields = schema.collection_fields(member)
            return [Extraction(
                occurrence,
                tuple((f, TableColumn(occurrence, f)) for f in fields),
                occurrence.anchor)]
        parent = occurrence.parent
        rule = self.aig.rule_for(parent.element_type)
        if isinstance(rule, SequenceRule):
            function = rule.inh_for(occurrence.element_type)
        elif isinstance(rule, ChoiceRule):
            function = rule.branch_for(occurrence.element_type).inh
        else:
            raise CompilationError(
                f"no inherited rule path for {occurrence.path}")
        assert isinstance(function, Assign)
        expression = self._syn_expr(function, member)
        return self._expand_expr(parent, expression)

    def expand_syn_collection(self, occurrence: Occurrence,
                              member: str) -> list[Extraction]:
        """Expand a collection-valued synthesized member into extractions."""
        rule = self.aig.rule_for(occurrence.element_type)
        if isinstance(rule, (PCDataRule, EmptyRule)):
            expression = self._syn_expr(rule.syn, member)
            return self._expand_expr(occurrence, expression,
                                     allow_inh=True)
        if isinstance(rule, SequenceRule):
            expression = self._syn_expr(rule.syn, member)
            return self._expand_expr(occurrence, expression)
        if isinstance(rule, StarRule):
            expression = self._syn_expr(rule.syn, member)
            return self._expand_expr(occurrence, expression)
        assert isinstance(rule, ChoiceRule)
        # Each branch contributes, gated by the branch having been chosen
        # (the extraction carries a condition on the selector value).
        from repro.dtd.model import Choice as ChoiceModel
        model = self.aig.dtd.production(occurrence.element_type)
        assert isinstance(model, ChoiceModel)
        alternatives = [item.value for item in model.items]
        extractions: list[Extraction] = []
        for name, branch in rule.branches:
            index = alternatives.index(name) + 1
            expression = self._syn_expr(branch.syn, member)
            for extraction in self._expand_expr(occurrence, expression):
                extractions.append(Extraction(
                    extraction.source, extraction.columns, extraction.group,
                    extraction.conditions + ((occurrence, index),)))
        return extractions

    def _expand_expr(self, context: Occurrence, expression,
                     allow_inh: bool = False) -> list[Extraction]:
        """Expand a collection expression evaluated at ``context``."""
        if isinstance(expression, (Const,)) or expression is None:
            return []
        if isinstance(expression, EmptyCollection):
            return []
        if isinstance(expression, UnionExpr):
            result: list[Extraction] = []
            for argument in expression.args:
                result.extend(self._expand_expr(context, argument, allow_inh))
            return result
        if isinstance(expression, SingletonSet):
            columns = []
            for field_name, item in expression.items:
                provenance = self._resolve_expr(context, item)
                columns.append((field_name, provenance))
            source = self._common_source(columns, context)
            return [Extraction(source, tuple(columns), context.anchor)]
        if isinstance(expression, CollectChildren):
            child = context.child(expression.child)
            inner = self.expand_syn_collection(child, expression.member)
            return [Extraction(e.source, e.columns, context.anchor,
                               e.conditions)
                    for e in inner]
        assert isinstance(expression, AttrRef)
        if expression.kind == "inh":
            # Inh collections referenced in S/epsilon syn rules, or
            # forwarded copies — expand through the inherited side.
            return self.expand_inh_collection(context, expression.member)
        child = context.child(expression.element)
        return self.expand_syn_collection(child, expression.member)

    def _common_source(self, columns, context: Occurrence) -> Occurrence:
        """The iteration occurrence whose table hosts a singleton's scalars."""
        sources = {p.occurrence for _, p in columns
                   if isinstance(p, TableColumn)}
        if not sources:
            return context.anchor
        if len(sources) > 1:
            raise CompilationError(
                f"singleton at {context.path} draws scalars from multiple "
                f"tables: {[s.path for s in sources]}")
        return next(iter(sources))

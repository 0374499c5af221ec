"""The tagging phase (Section 5.1): relations -> XML.

Tagging runs entirely at the mediator, over the cached output relations.
The occurrence tree drives one top-down sort-merge traversal that emits
``start(tag)`` / ``text(value)`` / ``end()`` events to its sinks:

* star children emit one element per table row whose ``__parent`` matches
  the current anchor row (rows sorted canonically, so both evaluation
  paths produce identical sibling orders);
* sequence children recurse in production order;
* choice occurrences consult the condition table for the current anchor row
  and emit only the selected alternative;
* text nodes read their PCDATA through the copy-chain provenance computed at
  compile time (a column of an enclosing anchor row, a root attribute
  member, or a constant).

Sinks decide what the events become: a tree (:class:`TreeSink`), bytes
(:class:`~repro.xmlmodel.serialize.StreamSerializer`), constraint verdicts
(:class:`~repro.constraints.StreamingConstraintChecker`), or nothing
(:class:`NullEventSink`).  Internal-state nodes never produce events
(decomposition steps are not element occurrences), and unfolding suffixes
are stripped by the ``rename`` applied to every tag.
"""

from __future__ import annotations

from repro.errors import EvaluationError
from repro.dtd.model import Choice, Empty, PCDATA, Sequence, Star
from repro.xmlmodel.node import XMLElement, XMLText
from repro.compilation.occurrences import (
    ConstValue,
    Occurrence,
    RootValue,
    TableColumn,
)
from repro.optimizer.qdg import TaggingPlan
from repro.runtime.engine import ID_COLUMN

PARENT_COLUMN = "__parent"


class _Table:
    """A cached relation indexed for tagging: rows grouped by parent id.

    ``result`` may be a plain :class:`ResultSet` or a columnar
    :class:`~repro.relational.source.BatchedResultSet`; grouping iterates
    rows either way.
    """

    def __init__(self, result, sort_columns: list[str]):
        self.columns = result.columns
        self.by_parent: dict[object, list[tuple]] = {}
        parent_index = (result.columns.index(PARENT_COLUMN)
                        if PARENT_COLUMN in result.columns else None)
        sort_indexes = [result.columns.index(c) for c in sort_columns
                        if c in result.columns]
        for row in result:
            key = row[parent_index] if parent_index is not None else None
            self.by_parent.setdefault(key, []).append(row)
        for rows in self.by_parent.values():
            rows.sort(key=lambda row: tuple(
                (row[i] is not None, str(row[i])) for i in sort_indexes))

    def rows_for(self, parent_id) -> list[tuple]:
        return self.by_parent.get(parent_id, [])

    def value(self, row: tuple, column: str):
        return row[self.columns.index(column)]


class NullEventSink:
    """Sink that discards events (used for truncation dry-runs)."""

    def start(self, tag: str) -> None:
        pass

    def text(self, value: str) -> None:
        pass

    def end(self) -> None:
        pass


class TreeSink:
    """Sink that materializes the events as an :class:`XMLElement` tree,
    left in ``root`` once the stream has ended."""

    def __init__(self):
        self.root: XMLElement | None = None
        self._open: XMLElement | None = None    # innermost open element

    def start(self, tag: str) -> None:
        node = XMLElement(tag)
        if self._open is None:
            self.root = node
        else:
            self._open.append(node)
        self._open = node

    def text(self, value: str) -> None:
        self._open.append(XMLText(value))

    def end(self) -> None:
        self._open = self._open.parent


def stream_document(plan: TaggingPlan, cache: dict, root_inh: dict,
                    *sinks, rename=None) -> int:
    """Sort-merge the cached relations into ``start``/``text``/``end``
    events, delivered to every sink in document order.

    ``sinks`` are objects with ``start(tag)`` / ``text(value)`` / ``end()``
    methods.  ``rename`` (usually :func:`repro.dtd.analysis.base_name`) is
    applied to every emitted tag, which is how unfolding suffixes are
    stripped: a stream leaves no tree to rename afterwards.

    Raises :class:`~repro.errors.RecursionTruncated` when a choice selects
    an alternative the unfolding cut off, so callers whose sink cannot be
    retracted dry-run with a :class:`NullEventSink` before committing bytes
    to a real writer.  Returns the number of elements emitted.
    """
    tagger = _Tagger(plan, cache, root_inh, sinks, rename)
    tagger.build()
    return tagger.elements


def build_document(plan: TaggingPlan, cache: dict, root_inh: dict,
                   rename=None) -> XMLElement:
    """The document as a materialized tree: :func:`stream_document` into
    a :class:`TreeSink`."""
    sink = TreeSink()
    stream_document(plan, cache, root_inh, sink, rename=rename)
    return sink.root


class _Tagger:
    """The one tagging traversal; everything downstream is a sink."""

    def __init__(self, plan: TaggingPlan, cache: dict, root_inh: dict,
                 sinks, rename=None):
        self.plan = plan
        self.root_inh = root_inh
        self.sinks = sinks
        self.rename = rename
        self.aig = plan.tree.aig
        self.elements = 0
        self.tables: dict[str, _Table] = {}
        for path, node_name in plan.table_of.items():
            if node_name not in cache:
                raise EvaluationError(
                    f"tagging input {node_name!r} was not produced")
            self.tables[path] = _Table(cache[node_name],
                                       plan.sort_columns.get(path, []))
        self.conditions: dict[str, _Table] = {}
        for path, node_name in plan.condition_of.items():
            self.conditions[path] = _Table(cache[node_name], [])
        #: current anchor row per iteration-occurrence path
        self.anchor_rows: dict[str, tuple] = {}

    # -- event emission -------------------------------------------------
    def _start(self, tag: str) -> None:
        self.elements += 1
        if self.rename is not None:
            tag = self.rename(tag)
        for sink in self.sinks:
            sink.start(tag)

    def _text(self, value: str) -> None:
        for sink in self.sinks:
            sink.text(value)

    def _end(self) -> None:
        for sink in self.sinks:
            sink.end()

    # -- traversal -------------------------------------------------------
    def build(self) -> None:
        root_occurrence = self.plan.tree.root
        self._start(root_occurrence.element_type)
        self._fill(root_occurrence)
        self._end()

    def _fill(self, occurrence: Occurrence) -> None:
        model = self.aig.dtd.production(occurrence.element_type)
        if isinstance(model, PCDATA):
            value = self._text_value(occurrence)
            self._text("" if value is None else str(value))
        elif isinstance(model, Empty):
            return
        elif isinstance(model, Star):
            self._emit_iteration(occurrence.children[0])
        elif isinstance(model, Choice):
            self._emit_choice(occurrence)
        else:
            assert isinstance(model, Sequence)
            for child in occurrence.children:
                self._start(child.element_type)
                self._fill(child)
                self._end()

    def _emit_iteration(self, occurrence: Occurrence) -> None:
        table = self.tables[occurrence.path]
        parent_anchor = occurrence.parent_anchor()
        if parent_anchor.parent is None and parent_anchor.path not in \
                self.anchor_rows:
            parent_id = None
        else:
            parent_row = self.anchor_rows[parent_anchor.path]
            parent_id = self.tables[parent_anchor.path].value(parent_row,
                                                              ID_COLUMN)
        for row in table.rows_for(parent_id):
            self._start(occurrence.element_type)
            self.anchor_rows[occurrence.path] = row
            self._fill(occurrence)
            self._end()
        self.anchor_rows.pop(occurrence.path, None)

    def _emit_choice(self, occurrence: Occurrence) -> None:
        condition = self.conditions[occurrence.path]
        anchor = occurrence.anchor
        if anchor.parent is None:
            rows = condition.rows_for(None)
            if not rows:
                rows = [row for group in condition.by_parent.values()
                        for row in group]
        else:
            anchor_row = self.anchor_rows[anchor.path]
            anchor_id = self.tables[anchor.path].value(anchor_row, ID_COLUMN)
            rows = condition.rows_for(anchor_id)
        if not rows:
            raise EvaluationError(
                f"condition query of {occurrence.element_type!r} returned "
                f"no value for an instance at {occurrence.path}")
        selector = rows[0][0]
        try:
            index = int(selector)
        except (TypeError, ValueError):
            raise EvaluationError(
                f"condition query of {occurrence.element_type!r} returned "
                f"non-integer {selector!r}") from None
        rule = self.aig.rule_for(occurrence.element_type)
        targets = rule.selector_targets(
            [child.element_type for child in occurrence.children])
        if not 1 <= index <= len(targets):
            raise EvaluationError(
                f"condition query of {occurrence.element_type!r} returned "
                f"{index}, outside [1, {len(targets)}]")
        chosen_name = targets[index - 1]
        if chosen_name is None:
            from repro.errors import RecursionTruncated
            raise RecursionTruncated(
                f"condition query of {occurrence.element_type!r} selected "
                f"an alternative truncated by recursion unfolding; increase "
                f"the unfold depth")
        chosen = occurrence.child(chosen_name)
        self._start(chosen.element_type)
        self._fill(chosen)
        self._end()

    def _text_value(self, occurrence: Occurrence):
        provenance = self.plan.text_of[occurrence.path]
        if isinstance(provenance, ConstValue):
            return provenance.value
        if isinstance(provenance, RootValue):
            return self.root_inh.get(provenance.member)
        assert isinstance(provenance, TableColumn)
        row = self.anchor_rows.get(provenance.occurrence.path)
        if row is None:
            raise EvaluationError(
                f"no current row for {provenance.occurrence.path} while "
                f"tagging {occurrence.path}")
        return self.tables[provenance.occurrence.path].value(
            row, provenance.column)

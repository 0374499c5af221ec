"""The tagging phase (Section 5.1): relations -> XML.

Tagging runs entirely at the mediator, over the cached output relations.
What the occurrence tree fixes per *plan* is decided once, when the
:class:`TaggingPlan` is compiled into a :class:`TaggingProgram`; what
depends on the *document* (the cached relations, their column order, the
root attributes) is bound per run; only the rows are walked per element:

* star children emit one element per table row whose ``__parent`` matches
  the current anchor row (rows sorted canonically, so both evaluation
  paths produce identical sibling orders);
* sequence children are emitted in production order;
* choice occurrences consult the condition table for the current anchor row
  and emit only the selected alternative;
* text nodes read their PCDATA through the copy-chain provenance computed at
  compile time (a column of an enclosing anchor row, a root attribute
  member, or a constant).

Below a production with no star and no choice the DTD alone determines the
shape of the subtree, so every maximal run of such siblings is folded into a
:class:`Fragment` — a flat op list whose only row-dependent parts are its
PCDATA slots — and handed to the sinks a whole sibling group at a time, in
one ``fragments(fragment, count, columns)`` call.

Bytes take no events: :meth:`TaggingRun.write` runs the program's writer
(:meth:`TaggingProgram.writer`), Python source generated per indentation
with every line and fragment template of an occurrence fixed by its depth.
Sinks decide what events become: a tree (:class:`TreeSink`), constraint
verdicts (:class:`~repro.constraints.StreamingConstraintChecker`), or
nothing (:class:`NullEventSink`).  The protocol is ``start(tag)`` /
``text(value)`` / ``end()`` plus the optional ``fragments``; a sink without
it receives the group's events through :meth:`Fragment.replay`.
Internal-state nodes never produce events (decomposition steps are not
element occurrences), and unfolding suffixes are stripped by the ``rename``
applied to every tag at compile time.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, count as counter, repeat
from operator import itemgetter

from repro.errors import EvaluationError, RecursionTruncated
from repro.dtd.model import Choice, PCDATA, Sequence, Star
from repro.obs.tracer import NULL_TRACER
# the trusted constructors are reached through the module, so that what
# builds a tree can be counted in one place (tests/test_incremental.py)
from repro.xmlmodel import node as xmlnode
from repro.xmlmodel.node import XMLElement
from repro.xmlmodel.serialize import _ESCAPES, StreamSerializer, write_group
from repro.compilation.occurrences import (
    ConstValue,
    Occurrence,
    RootValue,
)
from repro.optimizer.qdg import TaggingPlan
from repro.runtime.engine import ID_COLUMN

PARENT_COLUMN = "__parent"

_OPEN, _CLOSE, _LEAF, _SLOT = range(4)


def _pcdata(value) -> str:
    return "" if value is None else str(value)


def _sort_key(indexes: list[int], types: list[set]):
    """None-safe string order over the columns at ``indexes``.

    Where every one of them holds only ``str`` (``types``:
    :meth:`ResultSet.column_types`) the values compare exactly as their
    ``(True, str(value))`` pairs do, so the key is read at C level.
    """
    if {str}.issuperset(chain.from_iterable(map(types.__getitem__,
                                                indexes))):
        return itemgetter(*indexes)

    def key(row: tuple) -> list:
        parts = []
        for index in indexes:
            value = row[index]
            parts.append((value is not None, str(value)))
        return parts
    return key


class _Table:
    """A cached relation indexed for tagging: rows grouped by parent id."""

    def __init__(self, result, sort_columns: list[str]):
        self.result = result
        columns = self.columns = result.columns
        self.types = result.column_types()
        self.id_index = (columns.index(ID_COLUMN)
                         if ID_COLUMN in columns else None)
        self.by_parent: dict[object, list[tuple]] = {}
        if PARENT_COLUMN in columns:
            parent_index = columns.index(PARENT_COLUMN)
            by_parent = self.by_parent
            for row in result.rows:
                group = by_parent.get(row[parent_index])
                if group is None:
                    by_parent[row[parent_index]] = [row]
                else:
                    group.append(row)
        else:
            self.by_parent[None] = list(result.rows)
        sort_indexes = [columns.index(c) for c in sort_columns
                        if c in columns]
        if sort_indexes:
            key = _sort_key(sort_indexes, self.types)
            for rows in self.by_parent.values():
                rows.sort(key=key)

    def rows_for(self, parent_id) -> list[tuple]:
        return self.by_parent.get(parent_id, [])

    def index_of(self, column: str) -> int:
        return self.columns.index(column)

    def clean_columns(self, names, characters: str) -> list:
        """The indexes of the columns ``names``, then whether each is clean
        (:meth:`ResultSet.clean_columns`): what a writer's prologue binds
        for this table, in one call."""
        indexes = list(map(self.columns.index, names))
        return indexes + self.result.clean_columns(indexes, characters)


def _no_row(anchor: str, text_path: str) -> EvaluationError:
    return EvaluationError(f"no current row for {anchor} while tagging "
                           f"{text_path}")


class _Choice:
    """A choice occurrence of ``program`` as both passes select from it:
    its condition table's position, the anchor whose row keys that table
    and the alternatives (``None`` where the unfolding cut one off)."""

    def __init__(self, program: "TaggingProgram", occurrence: Occurrence):
        program.choices.append(occurrence.path)
        self.position, self.anchor = len(program.choices) - 1, \
            occurrence.anchor
        self.alternatives = [
            None if name is None else occurrence.child(name)
            for name in program._aig.rule_for(occurrence.element_type)
            .selector_targets([child.element_type
                               for child in occurrence.children])]
        program.truncatable |= None in self.alternatives
        self._query = f"condition query of {occurrence.element_type!r}"
        self._path = occurrence.path

    def select(self, conditions: list[_Table], parent_id) -> int:
        """The position of the alternative the condition selects for the
        instance under ``parent_id``, raising on none or a cut-off one."""
        condition = conditions[self.position]
        rows = condition.rows_for(parent_id)
        if not rows and self.anchor.parent is None:
            rows = [row for group in condition.by_parent.values()
                    for row in group]
        if not rows:
            raise EvaluationError(f"{self._query} returned no value for an "
                                  f"instance at {self._path}")
        selector = rows[0][0]
        try:
            index = int(selector)
        except (TypeError, ValueError):
            raise EvaluationError(f"{self._query} returned non-integer "
                                  f"{selector!r}") from None
        if not 1 <= index <= len(self.alternatives):
            raise EvaluationError(f"{self._query} returned {index}, outside "
                                  f"[1, {len(self.alternatives)}]")
        if self.alternatives[index - 1] is None:
            raise RecursionTruncated(
                f"{self._query} selected an alternative truncated by "
                f"recursion unfolding; increase the unfold depth")
        return index - 1


class Fragment:
    """A maximal run of sibling elements with no star or choice below it.

    ``ops`` is the run as a flat program of ``(op, tag, argument)`` steps,
    compiled once with the :class:`TaggingProgram`.  Text only ever occurs
    as the one child of a PCDATA element, so a leaf is a single step:
    ``(_SLOT, tag, slot)`` is ``<tag>values[slot]</tag>`` and ``(_LEAF, tag,
    text)`` is ``<tag>text</tag>`` for a constant (``<tag/>`` when ``text``
    is ``None``); ``(_OPEN, tag, None)`` ... ``(_CLOSE, None, None)``
    bracket an element with element children.  ``sources`` names, per slot,
    the text occurrence and the provenance its value is read from.  Sinks
    get a fragment one sibling group at a time — ``count`` instances, one
    column of ``count`` strings per slot, a lone fragment being a group of
    one: natively through ``fragments(fragment, count, columns)``, or as
    the same events through :meth:`replay`; :meth:`build` makes a tree's.
    """

    __slots__ = ("index", "ops", "elements", "texts", "sources", "whole")

    def __init__(self, index: int):
        self.index = index                  # position in program.fragments
        self.ops: list[tuple[int, object, object]] = []
        self.elements = 0
        self.texts = 0
        self.sources: list[tuple[str, object]] = []
        self.whole = False  # a group of it is all its parent holds

    def replay(self, sink, count: int, columns) -> None:
        """Expand a group into ``start``/``text``/``end`` events on
        ``sink``."""
        start, text, end = sink.start, sink.text, sink.end
        ops = self.ops
        for values in _instances(count, columns):
            for op, tag, argument in ops:
                if op == _SLOT:
                    start(tag)
                    text(values[argument])
                    end()
                elif op == _LEAF:
                    start(tag)
                    if argument is not None:
                        text(argument)
                    end()
                elif op == _OPEN:
                    start(tag)
                else:
                    end()

    def build(self, parent: XMLElement, count: int, columns) -> None:
        """Make a group's elements under ``parent`` with the trusted
        constructors: the tags were checked when the program was compiled
        and the values are ``str`` from the program's reader."""
        new_element = xmlnode.new_element
        ops = self.ops
        for values in _instances(count, columns):
            for op, tag, argument in ops:
                if op == _SLOT:
                    new_element(tag, parent, values[argument])
                elif op == _LEAF:
                    new_element(tag, parent, argument)
                elif op == _OPEN:
                    parent = new_element(tag, parent)
                else:
                    parent = parent.parent


def _instances(count: int, columns):
    """The slot values of each instance of a group, in order."""
    return zip(*columns) if columns else repeat((), count)


class NullEventSink:
    """Sink that discards events (used for truncation dry-runs)."""

    def start(self, tag: str) -> None:
        pass

    def text(self, value: str) -> None:
        pass

    def end(self) -> None:
        pass

    def fragments(self, fragment: Fragment, count: int, columns) -> None:
        pass


class TreeSink:
    """Sink that materializes the events as an :class:`XMLElement` tree,
    left in ``root`` once the stream has ended.

    Every node comes from the trusted constructors of
    :mod:`repro.xmlmodel.node`; ``start`` and ``text`` check their
    argument, because any driver can call them.  Given a ``root``, the
    first ``start`` opens it instead of making one.  A group of fragments is
    made by :meth:`Fragment.build`, unless it is all its parent holds
    (:attr:`Fragment.whole`): then the parent keeps it unbuilt for its
    first reader.
    """

    def __init__(self, root: XMLElement | None = None):
        self.root = root
        self._open: XMLElement | None = None    # innermost open element

    def start(self, tag: str) -> None:
        parent = self._open
        if parent is None and self.root is not None:
            self._open = self.root
            return
        node = xmlnode.new_element(xmlnode.check_tag(tag), parent)
        if parent is None:
            self.root = node
        self._open = node

    def text(self, value: str) -> None:
        xmlnode.new_text(xmlnode.check_text(value), self._open)

    def end(self) -> None:
        self._open = self._open.parent

    def fragments(self, fragment: Fragment, count: int, columns) -> None:
        parent = self._open
        if parent is None:
            # the document is this one fragment: only ``start`` sets a root
            fragment.replay(self, count, columns)
        elif fragment.whole:
            parent._kids = (fragment, count, columns)
        else:
            fragment.build(parent, count, columns)


class ElementCount(int):
    """Elements emitted by one tagging run; ``in_fragments`` of them were
    delivered inside fragments, beside ``texts`` text nodes (all of them:
    PCDATA elements are always folded), so a materialized document has
    ``elements + texts`` nodes."""

    def __new__(cls, elements: int, in_fragments: int = 0, texts: int = 0):
        count = super().__new__(cls, elements)
        count.in_fragments = in_fragments
        count.texts = texts
        return count


def stream_document(plan: TaggingPlan, cache: dict, root_inh: dict,
                    *sinks, rename=None) -> ElementCount:
    """Sort-merge the cached relations into ``start``/``text``/``end``
    events and fragments, delivered in document order to each sink in
    turn, one pass per sink.

    ``sinks`` are objects with ``start(tag)`` / ``text(value)`` / ``end()``
    methods and optionally ``fragments(fragment, count, columns)``.
    ``rename`` (usually :func:`repro.dtd.analysis.base_name`) is applied to
    every emitted tag, which is how unfolding suffixes are stripped: a stream
    leaves no tree to rename afterwards.  The plan is compiled into a
    :class:`TaggingProgram` on first use and the program kept on the plan.

    A choice is the only step that raises mid-document: ``RecursionTruncated``
    on an alternative the unfolding cut off (:attr:`TaggingProgram.
    truncatable`), ``EvaluationError`` when none is selected.  ``Middleware``
    dry-runs every program with a choice against a :class:`NullEventSink`
    before any sink sees an event.  Returns the number of elements emitted.
    """
    run = TaggingRun(tagging_program(plan, rename), cache, root_inh)
    for sink in sinks:
        count = run.stream(sink)
    return count


def tagging_program(plan: TaggingPlan, rename=None) -> "TaggingProgram":
    """``plan``'s :class:`TaggingProgram` for ``rename``, compiled on first
    use and kept on the plan."""
    program = plan._programs.get(rename)
    if program is None:
        program = plan._programs[rename] = TaggingProgram(plan, rename)
    return program


def build_document(plan: TaggingPlan, cache: dict, root_inh: dict,
                   rename=None) -> XMLElement:
    """The document as a materialized tree: :func:`stream_document` into
    a :class:`TreeSink`."""
    sink = TreeSink()
    stream_document(plan, cache, root_inh, sink, rename=rename)
    return sink.root


class TaggingRun:
    """A :class:`TaggingProgram` bound to one document's cached relations
    and root attributes.  It reads only ``ResultSet``\\ s, whose rows never
    change, so every pass makes the same document; an event pass keeps its
    sink, current rows and counts here, so one runs at a time."""

    __slots__ = ("program", "tables", "conditions", "columns", "root_inh",
                 "sink", "emit", "rows", "elements", "fragment_elements",
                 "texts")

    def __init__(self, program: "TaggingProgram", cache: dict,
                 root_inh: dict):
        plan = program.plan
        for node_name in plan.table_of.values():
            if node_name not in cache:
                raise EvaluationError(
                    f"tagging input {node_name!r} was not produced")
        self.program = program
        self.root_inh = root_inh
        self.tables = [_Table(cache[plan.table_of[path]],
                              plan.sort_columns.get(path, []))
                       for path in program.anchors]
        self.conditions = [_Table(cache[plan.condition_of[path]], [])
                           for path in program.choices]
        self.columns = None

    def stream(self, sink) -> ElementCount:
        """One pass delivering the document to ``sink`` as events, a group
        through ``sink.fragments`` or, without it, :meth:`Fragment.replay`
        (the first binds the column readers, which a write never reads)."""
        if self.columns is None:
            self.columns = [self.program._columns_reader(
                fragment, self.tables, self.root_inh)
                for fragment in self.program.fragments]
        self.sink = sink
        self.emit = getattr(sink, "fragments", None) or (
            lambda fragment, count, columns: fragment.replay(sink, count,
                                                             columns))
        self.rows = [None] * len(self.tables)
        self.elements = self.fragment_elements = self.texts = 0
        self.program._root(self)
        return ElementCount(self.elements, self.fragment_elements, self.texts)

    def write(self, serializer, tracer=None) -> ElementCount:
        """One pass writing the document where ``serializer`` stands: the
        program's writer for that indentation and level (compiled under
        ``tracer`` on first use) appends to the serializer's pieces and
        flushes through it (no events)."""
        pieces, level, limit, group_rows = serializer.place()
        write = self.program.writer(serializer.indent, level, tracer)
        count = ElementCount(*write(self, pieces, serializer._flush, limit,
                                    group_rows))
        if not level:
            serializer._flush()
        return count


def traced_tagging(tracer, produce) -> ElementCount:
    """``produce()``, a tagging pass, traced with the tagger's counts."""
    with tracer.span("tagging", "tagging") as span:
        count = produce()
        span.set(elements=int(count), fragment_elements=count.in_fragments)
    tracer.metrics.set_gauge("tagging_fragment_elements", count.in_fragments)
    return count


class PendingDocument:
    """What an unread root holds in ``_kids``: its :class:`TaggingRun`,
    written when a reader asks into a serializer (:meth:`write`), streamed
    into a :class:`TreeSink` filling the root (:meth:`build`) or a null
    sink (:meth:`size`).  The first pass records its counts in
    ``tracer``."""

    __slots__ = ("run", "tag", "tracer")

    def __init__(self, run: TaggingRun, tracer):
        self.run, self.tag, self.tracer = run, run.program.root_tag, tracer

    def _produce(self, produce) -> ElementCount:
        tracer = self.tracer
        if tracer is None:
            return produce()
        count = traced_tagging(tracer, produce)
        tracer.metrics.set_gauge("document_nodes", count + count.texts)
        self.tracer = None
        return count

    def write(self, serializer) -> None:
        self._produce(lambda: self.run.write(serializer, self.tracer))

    def build(self, root: XMLElement) -> None:
        self._produce(lambda: self.run.stream(TreeSink(root)))

    def size(self) -> int:
        count = self._produce(lambda: self.run.stream(NullEventSink()))
        return count + count.texts


def pending_document(run: TaggingRun, tracer) -> XMLElement:
    """An unread root holding ``run``."""
    root = xmlnode.new_element(run.program.root_tag, None)
    root._kids = PendingDocument(run, tracer)
    return root


class TaggingProgram:
    """A :class:`TaggingPlan` partially evaluated over its occurrence tree.

    Every occurrence with a star or choice below it becomes a closure over
    its renamed tag, its production kind, the slots of the anchor rows it
    reads and its compiled children; everything else is folded into
    :class:`Fragment`\\ s.  The program is immutable once built and shared by
    every document (and thread) that runs the plan; per-document state
    lives in a :class:`TaggingRun`.
    """

    def __init__(self, plan: TaggingPlan, rename=None):
        self.plan = plan
        self._rename = rename
        self._aig = plan.tree.aig
        self.fragments: list[Fragment] = []
        #: iteration-occurrence paths whose tables a run indexes; an
        #: occurrence's position is the slot of its current row
        self.anchors: list[str] = []
        #: choice-production occurrence paths, by condition-table position
        self.choices: list[str] = []
        self._choices: dict[str, _Choice] = {}
        #: some choice has an alternative the unfolding cut off, so a run
        #: may raise :class:`~repro.errors.RecursionTruncated` mid-document
        self.truncatable = False
        self._folded: dict[tuple, list] = {}
        #: generated writers, by (indent, level): see :meth:`writer`
        self._writers: dict[tuple, object] = {}
        item = self._item = self._fold_runs([plan.tree.root])[0]
        self._root = self._step(item)
        self.root_tag = item.ops[0][1] if isinstance(item, Fragment) \
            else item[0]

    # -- compilation -----------------------------------------------------
    def _tag(self, occurrence: Occurrence) -> str:
        tag = occurrence.element_type
        if self._rename is not None:
            tag = self._rename(tag)
        # checked here, once: fragments hand their tags to sinks as trusted
        return xmlnode.check_tag(tag)

    def _model(self, occurrence: Occurrence):
        return self._aig.dtd.production(occurrence.element_type)

    def _slot(self, anchor: Occurrence) -> int:
        if anchor.path not in self.anchors:
            self.anchors.append(anchor.path)
        return self.anchors.index(anchor.path)

    def _is_static(self, occurrence: Occurrence) -> bool:
        model = self._model(occurrence)
        if isinstance(model, (Star, Choice)):
            return False
        return all(self._is_static(child) for child in occurrence.children)

    def _fold_runs(self, siblings: list[Occurrence]) -> list:
        """``siblings`` in order, each maximal static run as one
        :class:`Fragment` and each other element as ``(tag, occurrence)``;
        folded once, kept for every compilation of the program."""
        key = tuple(occurrence.path for occurrence in siblings)
        items = self._folded.get(key)
        if items is not None:
            return items
        items = self._folded[key] = []
        fragment = None
        for occurrence in siblings:
            if self._is_static(occurrence):
                if fragment is None:
                    fragment = Fragment(len(self.fragments))
                    self.fragments.append(fragment)
                    items.append(fragment)
                self._fold(occurrence, fragment)
            else:
                fragment = None
                items.append((self._tag(occurrence), occurrence))
        return items

    def _only(self, occurrence: Occurrence):
        """:meth:`_fold_runs` of the one child a star or choice holds."""
        item = self._fold_runs([occurrence])[0]
        if isinstance(item, Fragment):
            item.whole = True
        return item

    def _fold(self, occurrence: Occurrence, fragment: Fragment) -> None:
        tag = self._tag(occurrence)
        fragment.elements += 1
        if isinstance(self._model(occurrence), PCDATA):
            fragment.texts += 1
            provenance = self.plan.text_of[occurrence.path]
            if isinstance(provenance, ConstValue):
                fragment.ops.append((_LEAF, tag, _pcdata(provenance.value)))
            else:
                if not isinstance(provenance, RootValue):
                    self._slot(provenance.occurrence)
                fragment.ops.append((_SLOT, tag, len(fragment.sources)))
                fragment.sources.append((occurrence.path, provenance))
        elif not occurrence.children:
            fragment.ops.append((_LEAF, tag, None))
        else:
            fragment.ops.append((_OPEN, tag, None))
            for child in occurrence.children:
                self._fold(child, fragment)
            fragment.ops.append((_CLOSE, None, None))

    def _step(self, item):
        """The closure emitting one item of :meth:`_fold_runs`."""
        if isinstance(item, Fragment):
            fragment, index, count = item, item.index, item.elements
            texts = item.texts

            def emit_fragment(run: TaggingRun) -> None:
                run.elements += count
                run.fragment_elements += count
                run.texts += texts
                run.emit(fragment, 1, run.columns[index](run.rows))
            return emit_fragment
        tag, occurrence = item
        content = self._content(occurrence)

        def emit_element(run: TaggingRun) -> None:
            run.elements += 1
            sink = run.sink
            sink.start(tag)
            content(run)
            sink.end()
        return emit_element

    def _content(self, occurrence: Occurrence):
        """The closure emitting what lies between the tags of a non-static
        ``occurrence``."""
        model = self._model(occurrence)
        if isinstance(model, Star):
            return self._iteration(occurrence.children[0])
        if isinstance(model, Choice):
            choice = self._choice(occurrence)
            branches = [None if alternative is None else
                        self._step(self._only(alternative))
                        for alternative in choice.alternatives]
            anchor_id = self._anchor_id(choice.anchor)
            return lambda run: branches[choice.select(
                run.conditions, anchor_id(run))](run)
        assert isinstance(model, Sequence)
        steps = [self._step(item)
                 for item in self._fold_runs(occurrence.children)]

        def emit_sequence(run: TaggingRun) -> None:
            for step in steps:
                step(run)
        return emit_sequence

    def _anchor_id(self, anchor: Occurrence):
        """Reader of the ``__id`` of ``anchor``'s current row (``None`` for
        the root, which has no row)."""
        if anchor.parent is None:
            return lambda run: None
        slot = self._slot(anchor)
        return lambda run: run.rows[slot][run.tables[slot].id_index]

    def _iteration(self, occurrence: Occurrence):
        slot = self._slot(occurrence)
        parent_id = self._anchor_id(occurrence.parent_anchor())
        item = self._only(occurrence)
        if isinstance(item, Fragment):
            fragment, index, count = item, item.index, item.elements
            texts = item.texts

            def emit_rows(run: TaggingRun) -> None:
                group = run.tables[slot].by_parent.get(parent_id(run))
                if not group:
                    return
                run.elements += count * len(group)
                run.fragment_elements += count * len(group)
                run.texts += texts * len(group)
                run.emit(fragment, len(group),
                         run.columns[index](run.rows, slot, group))
            return emit_rows
        tag, child = item
        content = self._content(child)

        def emit_elements(run: TaggingRun) -> None:
            group = run.tables[slot].by_parent.get(parent_id(run))
            if not group:
                return
            run.elements += len(group)
            rows, start, end = run.rows, run.sink.start, run.sink.end
            for row in group:
                rows[slot] = row
                start(tag)
                content(run)
                end()
            rows[slot] = None
        return emit_elements

    def _choice(self, occurrence: Occurrence) -> _Choice:
        """The :class:`_Choice` of a choice occurrence, made once."""
        return self._choices.get(occurrence.path) or self._choices \
            .setdefault(occurrence.path, _Choice(self, occurrence))

    # -- the writer -------------------------------------------------------
    def writer(self, indent: int | None, level: int = 0, tracer=None):
        """``write(run, pieces, flush, limit, group_rows) -> counts``,
        appending the bytes the event path would make a
        :class:`StreamSerializer` at ``indent`` write from ``level``.

        Python source generated by :class:`_WriterSource` and compiled on
        first use per (indent, level), in a ``tagging-compile`` span: a
        prologue binding the run's tables, column indexes, clean flags and
        escaped root values, then one function per star and per choice
        (flat at any unfolding depth), each row one ``%``-template of fused
        lines with its values escaped inline unless their column is clean
        (:meth:`ResultSet.clean_columns`).  The text holds generated names
        and integer literals only, every string being bound in its
        namespace; it is kept as the writer's ``source``, for reading."""
        key = (indent, 0 if indent is None else level)
        write = self._writers.get(key)
        if write is None:
            write = self._writers[key] = self._compile_writer(*key, tracer)
        return write

    def _compile_writer(self, indent: int | None, level: int, tracer):
        with (tracer or NULL_TRACER).span("tagging-compile", "tagging",
                                          indent=indent, level=level) as span:
            source = _WriterSource(self, StreamSerializer(None, indent),
                                   level)
            text = source.text()
            exec(compile(text, "<tagging writer>", "exec"), source.namespace)
            span.set(lines=text.count("\n"))
        write = source.namespace["write"]
        write.source = text
        return write

    # -- per-document binding -------------------------------------------
    def _columns_reader(self, fragment: Fragment, tables: list[_Table],
                        root_inh: dict):
        """``read(rows, own, group) -> [column of str per slot]`` for
        ``fragment``, with root attributes and column indexes resolved for
        this document.  ``group`` holds the rows the iteration at anchor
        ``own`` is emitting (a lone fragment passes neither): a slot read
        from that anchor is a column of the group, taken as it is where the
        table holds only ``str``; one read from an enclosing anchor's
        current row or a root attribute is one constant for the group.
        """
        sources = []
        for text_path, provenance in fragment.sources:
            if isinstance(provenance, RootValue):
                sources.append((_pcdata(root_inh.get(provenance.member)),
                                None, None, None, text_path))
            else:
                slot = self.anchors.index(provenance.occurrence.path)
                index = tables[slot].index_of(provenance.column)
                sources.append((None, slot, itemgetter(index),
                                tables[slot].types[index] <= {str},
                                text_path))

        def read(rows: list, own: int | None = None,
                 group=(None,)) -> list[list[str]]:
            columns = []
            for constant, slot, value_of, is_str, text_path in sources:
                if slot is None:
                    column = [constant] * len(group)
                elif slot == own:
                    column = map(value_of, group)
                    column = list(column if is_str
                                  else map(_pcdata, column))
                elif rows[slot] is None:
                    raise _no_row(self.anchors[slot], text_path)
                else:
                    column = [_pcdata(value_of(rows[slot]))] * len(group)
                columns.append(column)
            return columns
        return read


#: ``escape_text`` as a generated writer spells it: one ``replace`` per
#: pair of ``_ESCAPES``, in order, their strings bound as ``a<i>``, ``b<i>``
_ESCAPE = "".join(f".replace(a{i}, b{i})" for i in range(len(_ESCAPES)))

#: What every generated writer's namespace starts from.
_NAMESPACE = {"_pcdata": _pcdata, "_join": "".join, "_itemgetter": itemgetter,
              "_write_group": write_group, "_str": frozenset({str}),
              "_markup": "".join(raw for raw, _ in _ESCAPES),
              **{f"a{i}": raw for i, (raw, _) in enumerate(_ESCAPES)},
              **{f"b{i}": entity for i, (_, entity) in enumerate(_ESCAPES)}}


class _Unit:
    """A function of a generated writer being written: its lines, the
    piece pending at its end (constant parts with one slot expression
    between each two), its static counts not yet added and the anchors
    whose rows it reads."""

    def __init__(self, depth: int):
        self.lines: list[str] = []
        self.depth = depth
        self.parts, self.args = [""], []
        self.counts = [0, 0, 0]     # elements, in fragments, texts
        self.rows: set[int] = set()

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def add(self, parts, args=()) -> None:
        """Pend constant ``parts`` with ``args`` between them."""
        self.parts[-1] += parts[0]
        self.parts.extend(parts[1:])
        self.args.extend(args)

    def added(self, depth: int, times: str | None = None,
              counts=None) -> list[str]:
        """The lines adding ``counts`` (the static ones, then reset),
        ``times`` over."""
        if counts is None:
            counts, self.counts = self.counts, [0, 0, 0]
        return [f"{'    ' * depth}{name} += {count}"
                f"{'' if times is None else ' * ' + times}"
                for name, count in zip("EFT", counts) if count]


class _WriterSource:
    """The source of one writer of a :class:`TaggingProgram` (see
    :meth:`TaggingProgram.writer`) and the namespace it runs in.

    The current row of anchor slot ``s`` is the local ``r<s>``: the loop
    variable of its star's function, passed to every function below that
    reads it.  What is current is thus fixed where the code is generated;
    a slot read from an anchor that is not raises the event path's error.
    """

    def __init__(self, program: TaggingProgram, formats: StreamSerializer,
                 level: int):
        self.program, self.formats = program, formats
        self.namespace = dict(_NAMESPACE)
        self._names: dict[tuple, str] = {}
        self._count = counter()
        self.prologue: list[str] = []
        #: per anchor slot, the locals of each column it reads — its index
        #: and clean flag — bound together once a run
        self._clean: dict[int, dict[str, tuple[str, str]]] = {}
        self.functions: list[str] = []
        body = self.body = _Unit(1)
        self.item(body, program._item, level, ())
        self.flush(body)
        body.lines[:0] = body.added(1)

    def text(self) -> str:
        clean = [f"    {', '.join(sum(zip(*columns.values()), ()))}, = "
                 f"tables[{slot}].clean_columns(("
                 f"{', '.join(map(self.constant, columns))},), _markup)"
                 for slot, columns in self._clean.items()]
        return "\n".join([
            "def write(run, pieces, flush, limit, grows):",
            "    tables, conditions = run.tables, run.conditions",
            "    root_inh, append = run.root_inh, pieces.append",
            "    E = F = T = 0", *clean, *self.prologue, *self.functions,
            *self.body.lines, "    return E, F, T", ""])

    # -- names -------------------------------------------------------------
    def local(self, prefix: str) -> str:
        return f"{prefix}{next(self._count)}"

    def constant(self, value) -> str:
        """The name ``value`` is bound to in the namespace."""
        key = ("k", value if isinstance(value, (str, tuple)) else id(value))
        if key not in self._names:
            self._names[key] = self.local("k")
            self.namespace[self._names[key]] = value
        return self._names[key]

    def per_run(self, prefix: str, expression: str) -> str:
        """The local the prologue binds to ``expression``, once a run."""
        key = ("p", expression)
        if key not in self._names:
            self._names[key] = self.local(prefix)
            self.prologue.append(f"    {self._names[key]} = {expression}")
        return self._names[key]

    def row_id(self, unit: _Unit, anchor: Occurrence, enclosing) -> str:
        """The ``__id`` of ``anchor``'s current row."""
        if anchor.parent is None:
            return "None"
        slot = self.program.anchors.index(anchor.path)
        assert slot in enclosing, anchor.path
        unit.rows.add(slot)
        return f"r{slot}[{self.per_run('i', f'tables[{slot}].id_index')}]"

    def column(self, slot: int, name: str) -> tuple[str, str, str]:
        """The locals bound once a run to column ``name`` of anchor
        ``slot``'s table: its index, whether it holds only ``str`` and
        whether it is clean (escaping leaves every value as it is)."""
        columns = self._clean.setdefault(slot, {})
        if name not in columns:
            columns[name] = self.local("c"), self.local("q")
        index, clean = columns[name]
        is_str = self.per_run("s", f"tables[{slot}].types[{index}] <= _str")
        return index, is_str, clean

    @staticmethod
    def escaped(read: str, is_str: str, clean: str) -> str:
        """``read``, a value of a column :meth:`column` bound, escaped: as it
        is where the column is clean."""
        return (f"({read} if {clean} else "
                f"({read} if {is_str} else _pcdata({read})){_ESCAPE})")

    def value(self, unit: _Unit, source, enclosing) -> str:
        """A slot's value, escaped: a root value once a run, a column's
        value as it is where the column is clean.  Where its anchor has no
        current row, the event path's error is raised instead."""
        text_path, provenance = source
        if isinstance(provenance, RootValue):
            member = self.constant(provenance.member)
            return self.per_run("v", f"_pcdata(root_inh.get({member}))"
                                     f"{_ESCAPE}")
        slot = self.program.anchors.index(provenance.occurrence.path)
        if slot not in enclosing:
            error = partial(_no_row, self.program.anchors[slot], text_path)
            unit.emit(f"raise {self.constant(error)}()")
            return "None"
        unit.rows.add(slot)
        index, is_str, clean = self.column(slot, provenance.column)
        return self.escaped(f"r{slot}[{index}]", is_str, clean)

    # -- pieces ------------------------------------------------------------
    def take(self, unit: _Unit) -> str | None:
        """The pending piece as an expression (``None`` if empty), reset."""
        parts, args = unit.parts, unit.args
        unit.parts, unit.args = [""], []
        if not args:
            return self.constant(parts[0]) if parts[0] else None
        if parts == ["", ""]:
            return args[0]
        template = "%s".join(part.replace("%", "%%") for part in parts)
        return f"{self.constant(template)} % ({', '.join(args)},)"

    def flush(self, unit: _Unit) -> None:
        piece = self.take(unit)
        if piece is not None:
            unit.emit(f"append({piece})")
            unit.emit("if len(pieces) >= limit:")
            unit.emit("    flush()")

    # -- code --------------------------------------------------------------
    def item(self, unit: _Unit, item, level: int, enclosing: tuple) -> None:
        """Write one item of :meth:`TaggingProgram._fold_runs` at
        ``level``; ``enclosing`` holds the slots whose rows are current."""
        if isinstance(item, Fragment):
            unit.counts[0] += item.elements
            unit.counts[1] += item.elements
            unit.counts[2] += item.texts
            unit.add(self.formats.template(item, level),
                     [self.value(unit, source, enclosing)
                      for source in item.sources])
            return
        tag, occurrence = item
        open_line, close_line, empty_line = self.formats.lines(tag, level)
        unit.counts[0] += 1
        model = self.program._model(occurrence)
        if isinstance(model, Star):
            self.star(unit, occurrence.children[0], level + 1, enclosing,
                      open_line, close_line, empty_line)
            return
        unit.add([open_line])
        if isinstance(model, Choice):
            self.flush(unit)
            self.choice(unit, occurrence, level + 1, enclosing)
        else:
            for child in self.program._fold_runs(occurrence.children):
                self.item(unit, child, level + 1, enclosing)
        unit.add([close_line])

    def function(self, unit: _Unit, inner: _Unit, params: list[str],
                 *lines: str) -> None:
        """Define ``inner`` as a function and call it from ``unit``."""
        unit.rows |= inner.rows
        args = ", ".join([*params, *map("r{}".format, sorted(inner.rows))])
        call = f"{self.local('f')}({args})"
        self.functions += [f"    def {call}:", "        nonlocal E, F, T",
                           *lines, *inner.lines]
        unit.emit(call)

    def star(self, unit: _Unit, child: Occurrence, level: int, enclosing,
             open_line: str, close_line: str, empty_line: str) -> None:
        """A star's group looked up where it stands: then its open line,
        rows and close line, or its empty line; the close or empty line
        stays pending in a local ``z<n>``."""
        slot = self.program.anchors.index(child.path)
        item = self.program._only(child)
        group, pending = f"g{slot}", self.local("z")
        by_parent = self.per_run("t", f"tables[{slot}].by_parent")
        unit.emit(f"{group} = {by_parent}.get("
                  f"{self.row_id(unit, child.parent_anchor(), enclosing)})")
        before = list(unit.parts), list(unit.args)
        unit.emit(f"if {group}:")
        unit.depth += 1
        unit.add([open_line])
        self.flush(unit)
        if isinstance(item, Fragment):
            self.group(unit, item, slot, level)
        else:   # a function looping over the rows
            loop = _Unit(3)
            self.item(loop, item, level, (*enclosing, slot))
            self.flush(loop)
            loop.rows.discard(slot)
            self.function(unit, loop, [group],
                          *loop.added(2, f"len({group})"),
                          f"        for r{slot} in {group}:")
        unit.emit(f"{pending} = {self.constant(close_line)}")
        unit.depth -= 1
        unit.emit("else:")
        unit.parts, unit.args = before
        unit.add([empty_line])
        unit.emit(f"    {pending} = {self.take(unit)}")
        unit.add(["", ""], [pending])

    def group(self, unit: _Unit, fragment: Fragment, slot: int,
              level: int) -> None:
        """A star's rows that are one fragment each, every slot a column of
        its rows (an iteration occurrence's members are its table's
        columns): one piece under ``grows`` rows, else :func:`write_group`'s
        batches, each column read at C level and escaped there unless
        clean."""
        group = f"g{slot}"
        unit.lines += unit.added(unit.depth, f"len({group})", (
            fragment.elements, fragment.elements, fragment.texts))
        columns = []
        for _, provenance in fragment.sources:
            assert provenance.occurrence.path == self.program.anchors[slot]
            columns.append(self.column(slot, provenance.column))
        template = self.formats.template(fragment, level)
        unit.add(template, [self.escaped(f"r{slot}[{index}]", is_str, clean)
                            for index, is_str, clean in columns])
        piece = self.take(unit)
        unit.emit(f"if len({group}) < grows:")
        unit.emit(f"    append(_join([{piece} for r{slot} in {group}]))"
                  if columns else f"    append({piece} * len({group}))")
        unit.emit("    if len(pieces) >= limit:")
        unit.emit("        flush()")
        lists, plain = [], []
        for index, is_str, clean in columns:
            getter = self.per_run("m", f"_itemgetter({index})")
            read = f"map({getter}, {group})"
            lists.append(f"list({read} if {is_str} else map(_pcdata, {read}))")
            plain.append(clean)
        unit.emit("else:")
        unit.emit(f"    _write_group(pieces, flush, "
                  f"{self.constant(tuple(template))}, len({group}), "
                  f"[{', '.join(lists)}], [{', '.join(plain)}])")

    def choice(self, unit: _Unit, occurrence: Occurrence, level: int,
               enclosing) -> None:
        """A function writing the alternative a choice's condition picks
        (:meth:`_Choice.select`, raising as the event path does)."""
        choice, branch = self.program._choice(occurrence), _Unit(3)
        parent_id = self.row_id(branch, choice.anchor, enclosing)
        for index, alternative in enumerate(choice.alternatives):
            if alternative is not None:
                branch.lines.append(f"        if y == {index}:")
                start = len(branch.lines)
                self.item(branch, self.program._only(alternative), level,
                          enclosing)
                self.flush(branch)
                branch.lines[start:start] = branch.added(3)
                branch.emit("return")
        select = self.constant(choice.select)
        self.function(unit, branch, [],
                      f"        y = {select}(conditions, {parent_id})")

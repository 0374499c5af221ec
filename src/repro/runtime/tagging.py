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
(:meth:`TaggingProgram.writer`), compiled per indentation with every line
and fragment template of an occurrence fixed by its depth.  Sinks decide
what events become: a tree (:class:`TreeSink`), constraint verdicts
(:class:`~repro.constraints.StreamingConstraintChecker`), or nothing
(:class:`NullEventSink`).  The protocol is ``start(tag)`` / ``text(value)``
/ ``end()`` plus the optional ``fragments``; a sink without it receives the
group's events through :meth:`Fragment.replay`.  Internal-state nodes
never produce events (decomposition steps are not element occurrences), and
unfolding suffixes are stripped by the ``rename`` applied to every tag at
compile time.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter

from repro.errors import EvaluationError, RecursionTruncated
from repro.dtd.model import Choice, PCDATA, Sequence, Star
# the trusted constructors are reached through the module, so that what
# builds a tree can be counted in one place (tests/test_incremental.py)
from repro.xmlmodel import node as xmlnode
from repro.xmlmodel.node import XMLElement
from repro.xmlmodel.serialize import StreamSerializer, escape_text, write_group
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
    if all(types[index] <= {str} for index in indexes):
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
        columns = self.columns = result.columns
        self.types = result.column_types()
        self.id_index = (columns.index(ID_COLUMN)
                         if ID_COLUMN in columns else None)
        self.by_parent: dict[object, list[tuple]] = {}
        if PARENT_COLUMN in columns:
            parent_index = columns.index(PARENT_COLUMN)
            by_parent = self.by_parent
            for row in result:
                group = by_parent.get(row[parent_index])
                if group is None:
                    by_parent[row[parent_index]] = [row]
                else:
                    group.append(row)
        else:
            self.by_parent[None] = list(result)
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
    change, so every pass makes the same document; a pass keeps its sink or
    its pieces, current rows and counts here, so one runs at a time."""

    __slots__ = ("program", "tables", "conditions", "columns", "values",
                 "sink", "emit", "pieces", "flush", "limit", "rows",
                 "elements", "fragment_elements", "texts")

    def __init__(self, program: "TaggingProgram", cache: dict,
                 root_inh: dict):
        plan = program.plan
        for node_name in plan.table_of.values():
            if node_name not in cache:
                raise EvaluationError(
                    f"tagging input {node_name!r} was not produced")
        self.program = program
        self.tables = [_Table(cache[plan.table_of[path]],
                              plan.sort_columns.get(path, []))
                       for path in program.anchors]
        self.conditions = [_Table(cache[plan.condition_of[path]], [])
                           for path in program.choices]
        readers = [program._columns_reader(fragment, self.tables, root_inh)
                   for fragment in program.fragments]
        self.columns = [group for group, _ in readers]
        self.values = [one for _, one in readers]

    def _pass(self, body) -> ElementCount:
        self.rows = [None] * len(self.tables)
        self.elements = self.fragment_elements = self.texts = 0
        body(self)
        return ElementCount(self.elements, self.fragment_elements, self.texts)

    def stream(self, sink) -> ElementCount:
        """One pass delivering the document to ``sink`` as events, a group
        through ``sink.fragments`` or, without it, :meth:`Fragment.replay`."""
        self.sink = sink
        self.emit = getattr(sink, "fragments", None) or (
            lambda fragment, count, columns: fragment.replay(sink, count,
                                                             columns))
        return self._pass(self.program._root)

    def write(self, serializer) -> ElementCount:
        """One pass writing the document where ``serializer`` stands: the
        program's writer for that indentation and level appends to the
        serializer's pieces and flushes through it (no events)."""
        self.pieces, level, self.limit = serializer.place()
        self.flush = serializer._flush
        count = self._pass(self.program.writer(serializer.indent, level))
        if not level:
            self.flush()
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
        self._produce(lambda: self.run.write(serializer))

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
        #: some choice has an alternative the unfolding cut off, so a run
        #: may raise :class:`~repro.errors.RecursionTruncated` mid-document
        self.truncatable = False
        self._folded: dict[tuple, list] = {}
        #: compiled writers, by (indent, level): see :meth:`writer`
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
            select, alternatives = self._selector(occurrence)
            branches = [None if alternative is None else
                        self._step(self._only(alternative))
                        for alternative in alternatives]
            return lambda run: branches[select(run)](run)
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

    def _selector(self, occurrence: Occurrence):
        """``(select, alternatives)``: the child occurrences of a choice
        (``None`` where the unfolding cut one off) and the position the
        condition picks for the current row, raising on none or a cut one."""
        if occurrence.path not in self.choices:
            self.choices.append(occurrence.path)
        position = self.choices.index(occurrence.path)
        element_type, path = occurrence.element_type, occurrence.path
        at_root = occurrence.anchor.parent is None
        anchor_id = self._anchor_id(occurrence.anchor)
        alternatives = [
            None if name is None else occurrence.child(name)
            for name in self._aig.rule_for(element_type).selector_targets(
                [child.element_type for child in occurrence.children])]
        if None in alternatives:
            self.truncatable = True

        def select(run: TaggingRun) -> int:
            condition = run.conditions[position]
            rows = condition.rows_for(anchor_id(run))
            if at_root and not rows:
                rows = [row for group in condition.by_parent.values()
                        for row in group]
            if not rows:
                raise EvaluationError(
                    f"condition query of {element_type!r} returned "
                    f"no value for an instance at {path}")
            selector = rows[0][0]
            try:
                index = int(selector)
            except (TypeError, ValueError):
                raise EvaluationError(
                    f"condition query of {element_type!r} returned "
                    f"non-integer {selector!r}") from None
            if not 1 <= index <= len(alternatives):
                raise EvaluationError(
                    f"condition query of {element_type!r} returned "
                    f"{index}, outside [1, {len(alternatives)}]")
            if alternatives[index - 1] is None:
                raise RecursionTruncated(
                    f"condition query of {element_type!r} selected "
                    f"an alternative truncated by recursion unfolding; "
                    f"increase the unfold depth")
            return index - 1
        return select, alternatives

    # -- the writer -------------------------------------------------------
    def writer(self, indent: int | None, level: int = 0):
        """``write(run)``, appending to ``run.pieces`` the bytes the event
        path would make a :class:`StreamSerializer` at ``indent`` write for
        the document rooted at ``level``.  Compiled on first use and kept:
        each line and template is fixed by its occurrence's depth."""
        key = (indent, 0 if indent is None else level)
        write = self._writers.get(key)
        if write is None:
            write = self._writers[key] = self._write_step(
                self._item, StreamSerializer(None, indent), key[1])
        return write

    def _write_step(self, item, formats: StreamSerializer, level: int):
        """The closure writing one item of :meth:`_fold_runs` at
        ``level``, with the lines and templates of ``formats``."""
        if isinstance(item, Fragment):
            index, count, texts = item.index, item.elements, item.texts
            template = "%s".join(piece.replace("%", "%%") for piece
                                 in formats.template(item, level))

            def write_fragment(run: TaggingRun) -> None:
                run.elements += count
                run.fragment_elements += count
                run.texts += texts
                pieces = run.pieces
                pieces.append(template % tuple(
                    map(escape_text, run.values[index](run.rows))))
                if len(pieces) >= run.limit:
                    run.flush()
            return write_fragment
        tag, occurrence = item
        open_line, close_line, empty_line = formats.lines(tag, level)
        model = self._model(occurrence)
        star = isinstance(model, Star)
        if star:
            child = occurrence.children[0]
            slot = self._slot(child)
            parent_id = self._anchor_id(child.parent_anchor())
            content = self._write_rows(slot, self._only(child), formats,
                                       level + 1)
        elif isinstance(model, Choice):
            select, alternatives = self._selector(occurrence)
            branches = [None if alternative is None else self._write_step(
                            self._only(alternative), formats, level + 1)
                        for alternative in alternatives]

            def content(run: TaggingRun, group) -> None:
                branches[select(run)](run)
        else:
            steps = [self._write_step(child, formats, level + 1)
                     for child in self._fold_runs(occurrence.children)]
            content = None

        def write_element(run: TaggingRun) -> None:
            run.elements += 1
            # a star is empty or not by its group of rows
            group = (run.tables[slot].by_parent.get(parent_id(run))
                     if star else True)
            pieces = run.pieces
            if group:
                pieces.append(open_line)
                if len(pieces) >= run.limit:
                    run.flush()
                if content is None:
                    for step in steps:
                        step(run)
                else:
                    content(run, group)
                pieces.append(close_line)
            else:
                pieces.append(empty_line)
            if len(pieces) >= run.limit:
                run.flush()
        return write_element

    def _write_rows(self, slot: int, item, formats: StreamSerializer,
                    level: int):
        """``content(run, group)`` writing a star's rows at ``level``:
        ``item`` once per row of the group, a fragment as one group."""
        if isinstance(item, Fragment):
            index, count, texts = item.index, item.elements, item.texts
            template = formats.template(item, level)

            def write_group_of(run: TaggingRun, group: list) -> None:
                run.elements += count * len(group)
                run.fragment_elements += count * len(group)
                run.texts += texts * len(group)
                write_group(run.pieces, run.flush, template, len(group),
                            run.columns[index](run.rows, slot, group))
            return write_group_of
        write_row = self._write_step(item, formats, level)

        def write_each(run: TaggingRun, group: list) -> None:
            rows = run.rows
            for row in group:
                rows[slot] = row
                write_row(run)
            rows[slot] = None
        return write_each

    # -- per-document binding -------------------------------------------
    def _columns_reader(self, fragment: Fragment, tables: list[_Table],
                        root_inh: dict):
        """``read(rows, own, group) -> [column of str per slot]`` and
        ``read_one(rows) -> [str per slot]`` for ``fragment``, with root
        attributes and column indexes resolved for this document.  ``group``
        holds the rows the iteration at anchor ``own`` is emitting (a lone
        fragment passes neither, or is read by ``read_one``): a slot read
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

        def no_row(slot: int, text_path: str) -> EvaluationError:
            return EvaluationError(f"no current row for {self.anchors[slot]}"
                                   f" while tagging {text_path}")

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
                    raise no_row(slot, text_path)
                else:
                    column = [_pcdata(value_of(rows[slot]))] * len(group)
                columns.append(column)
            return columns

        def read_one(rows: list) -> list[str]:
            values = []
            for constant, slot, value_of, is_str, text_path in sources:
                if slot is None:
                    values.append(constant)
                elif rows[slot] is None:
                    raise no_row(slot, text_path)
                else:
                    value = value_of(rows[slot])
                    values.append(value if is_str else _pcdata(value))
            return values
        return read, read_one

"""Serialization and parsing for the XML subset used in this project.

The writer escapes the five predefined entities; the reader handles exactly
what the writer produces (elements, text, entity references, XML declaration
and comments are tolerated and skipped).  It is *not* a general XML parser —
no attributes, namespaces, CDATA or DOCTYPE internals — because generated
documents never contain those.
"""

from __future__ import annotations

from itertools import chain, count, repeat

from repro.errors import ValidationError
from repro.xmlmodel.node import XMLElement, XMLNode, XMLText

_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"),
            ('"', "&quot;"), ("'", "&apos;")]


def escape_text(value: str) -> str:
    # _ESCAPES spelled out: this runs once per PCDATA value of a document
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;")
            .replace("'", "&apos;"))


#: Rows of a fragment group written per ``write`` call: a large group
#: leaves as a few big chunks, never as one document-sized string.
GROUP_WRITE_ROWS = 64

#: Pieces of the event path (a line each when pretty-printed) gathered
#: before they reach ``write`` as one chunk.
WRITE_PIECES = 256

#: Joins a column of values so one ``escape_text`` pass escapes them all.
_SEPARATOR = "\x1f"


def _escape_column(values: list[str]) -> list[str]:
    """``escape_text`` of every value, in one pass over their join — or
    value by value when the data itself holds the separator."""
    escaped = escape_text(_SEPARATOR.join(values)).split(_SEPARATOR)
    if len(escaped) != len(values):
        return list(map(escape_text, values))
    return escaped


def fill(template: list[str], columns, start: int, stop: int) -> str:
    """Instances ``start`` to ``stop`` of a fragment group: the constant
    pieces of its ``template`` interleaved with each slot's column,
    escaped in one pass per column."""
    if not columns:
        return template[0] * (stop - start)
    parts = [repeat(template[0])]
    for column, constant in zip(columns, template[1:]):
        parts += (_escape_column(column[start:stop]), repeat(constant))
    return "".join(chain.from_iterable(zip(*parts)))


def write_group(pieces: list[str], flush, template: list[str], count: int,
                columns) -> None:
    """Append a group of ``count`` instances to ``pieces``: as one piece
    under :data:`GROUP_WRITE_ROWS` rows, else flushed a batch of that many
    rows at a time.  Both bounds are read here, at each call."""
    rows = GROUP_WRITE_ROWS
    if count < rows:
        pieces.append(fill(template, columns, 0, count))
        if len(pieces) >= WRITE_PIECES:
            flush()
        return
    flush()
    for start in range(0, count, rows):
        pieces.append(fill(template, columns, start,
                           min(start + rows, count)))
        flush()


def unescape_text(value: str) -> str:
    for raw, entity in reversed(_ESCAPES):
        value = value.replace(entity, raw)
    return value


def serialize(node: XMLNode, indent: int | None = None) -> str:
    """Serialize a tree to a string.

    With ``indent=None`` the output is compact (no insignificant whitespace);
    with an integer it is pretty-printed, with text-only elements kept on one
    line so PCDATA round-trips exactly.  One walk drives a
    :class:`StreamSerializer`, reading each ``_kids`` as it is: a text leaf
    (its PCDATA a ``str`` or one text child) and an empty element are one
    ``leaf`` each, a pending group goes to ``fragments`` unbuilt, and an
    unread document is written into it by its tagging program, at the
    level it stands (the ``evaluate_stream`` path).
    """
    if isinstance(node, XMLText):
        return escape_text(node.value) + ("" if indent is None else "\n")
    parts: list[str] = []
    writer = StreamSerializer(parts.append, indent)
    start, text, end = writer.start, writer.text, writer.end
    leaf, fragments = writer.leaf, writer.fragments

    def write(children) -> None:
        for child in children:
            if isinstance(child, XMLText):
                text(child.value)
                continue
            kids = child._kids
            if kids.__class__ is str:
                leaf(child.tag, kids)
            elif kids.__class__ is tuple:
                start(child.tag)
                fragments(*kids)
                end()
            elif kids.__class__ is not list:    # an unread document
                if kids.tag == child.tag:
                    kids.write(writer)
                else:       # its root renamed: written built
                    child.children
                    write((child,))
            elif not kids:
                leaf(child.tag, None)
            elif len(kids) == 1 and isinstance(kids[0], XMLText):
                leaf(child.tag, kids[0].value)
            else:
                start(child.tag)
                write(kids)
                end()

    write((node,))
    return "".join(parts)


class _Pads(dict):
    """``pads[level]``: the indentation of ``level``, made on first use."""

    def __init__(self, indent: int):
        super().__init__()
        self.indent = indent

    def __missing__(self, level: int) -> str:
        pad = self[level] = " " * (self.indent * level)
        return pad


class StreamSerializer:
    """The one XML writer: incremental, it never holds the tree or the
    document string.  :func:`serialize` drives it over a tree.

    Drive it with ``start(tag)`` / ``text(value)`` / ``end()`` events (the
    protocol emitted by :func:`repro.runtime.tagging.stream_document`),
    and ``leaf(tag, value)`` for an element whose children are known to be
    one text or none.  Formatting decisions that depend on an element's
    children (self-closing empty elements, one-line text-only elements
    under pretty-printing) are deferred by holding only the *top*
    element's text until its first child or its end event.  Only the
    top element can be undecided — a child's ``start`` commits its parent —
    so the state is the stack of open tags, one ``opened`` flag and the
    top's held texts: O(depth), not O(document).

    Written pieces are gathered and reach ``write`` joined: when
    :data:`WRITE_PIECES` are held, around each batch of a fragment group,
    and when the document closes.

    A :class:`~repro.runtime.tagging.Fragment` group is written
    natively (:meth:`fragments`): a fragment's format depends only on its
    shape and the level it starts at, so it is one template per (fragment,
    level) — constant pieces with a slot value between each two — derived
    from the event path above, which stays the only place that knows the
    compact and pretty-printed formats, and written by :func:`write_group`.

    An unread document takes no events: its tagging program appends what
    it compiled from :meth:`lines` and :meth:`template` per (occurrence,
    indent) to the pieces where the serializer stands (:meth:`place`).
    """

    def __init__(self, write, indent: int | None = None):
        self._out = write
        self.indent = indent
        self._nl = "" if indent is None else "\n"
        self._pads = _Pads(indent or 0)
        self._tags: list[str] = []      # the open elements, root first
        self._opened = True     # the top is committed (or nothing is open)
        self._texts: list[str] = []     # the undecided top's text
        self._pieces: list[str] = []    # written, not yet handed to write
        self.characters = 0
        self._templates: dict[tuple, str] = {}

    def _flush(self) -> None:
        pieces = self._pieces
        if pieces:
            chunk = "".join(pieces)
            pieces.clear()
            self.characters += len(chunk)
            self._out(chunk)

    def _open_top(self) -> None:
        """Commit the undecided top element to multiline form: it has an
        element child."""
        level = len(self._tags) - 1
        nl, pieces = self._nl, self._pieces
        pieces.append(f"{self._pads[level]}<{self._tags[-1]}>{nl}")
        if self._texts:
            pad = self._pads[level + 1]
            for value in self._texts:
                pieces.append(f"{pad}{escape_text(value)}{nl}")
            self._texts = []
        self._opened = True
        if len(pieces) >= WRITE_PIECES:
            self._flush()

    def start(self, tag: str) -> None:
        if not self._opened:
            self._open_top()
        self._tags.append(tag)
        self._opened = False

    def text(self, value: str) -> None:
        if not self._opened:
            self._texts.append(value)
            return
        pieces = self._pieces
        pieces.append(f"{self._pads[len(self._tags)]}{escape_text(value)}"
                      f"{self._nl}")
        if len(pieces) >= WRITE_PIECES:
            self._flush()

    def end(self) -> None:
        tags = self._tags
        tag = tags.pop()
        pad = self._pads[len(tags)]
        if self._opened:
            piece = f"{pad}</{tag}>{self._nl}"
        elif self._texts:
            # escaping maps characters one by one: one pass for all texts
            piece = (f"{pad}<{tag}>{escape_text(''.join(self._texts))}"
                     f"</{tag}>{self._nl}")
            self._texts = []
        else:
            piece = f"{pad}<{tag}/>{self._nl}"
        self._opened = True     # the parent: this element's start opened it
        pieces = self._pieces
        pieces.append(piece)
        if not tags or len(pieces) >= WRITE_PIECES:
            self._flush()

    def leaf(self, tag: str, value: str | None) -> None:
        """``start(tag)``, ``text(value)`` and ``end()`` as one piece;
        ``value=None`` is an empty element, ``<tag/>``."""
        if not self._opened:
            self._open_top()
        tags, pieces = self._tags, self._pieces
        if value is None:
            pieces.append(f"{self._pads[len(tags)]}<{tag}/>{self._nl}")
        else:
            pieces.append(f"{self._pads[len(tags)]}<{tag}>"
                          f"{escape_text(value)}</{tag}>{self._nl}")
        if len(pieces) >= WRITE_PIECES or not tags:
            self._flush()

    def fragments(self, fragment, count: int, columns) -> None:
        """Write a group of ``count`` instances of ``fragment``: its
        template filled from ``columns`` (one list of ``count`` strings per
        PCDATA slot), each escaped in one pass per batch."""
        if not count:
            return
        pieces, level, _ = self.place()
        key = (fragment, level)
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = self.template(*key)
        write_group(pieces, self._flush, template, count, columns)
        if not level:
            # the document is this one fragment
            self._flush()

    def place(self) -> tuple[list[str], int, int]:
        """Where an element written whole goes next: the pieces not yet
        handed to ``write`` (the open element committed), its level, and
        how many may gather before a :meth:`_flush` (read now)."""
        if not self._opened:
            self._open_top()
        return self._pieces, len(self._tags), WRITE_PIECES

    def _rendered(self, level: int, drive) -> str:
        """What ``drive`` writes into a serializer of the same indentation
        standing at ``level``."""
        parts: list[str] = []
        at_level = StreamSerializer(parts.append, self.indent)
        at_level._tags = [None] * level
        drive(at_level)
        at_level._flush()
        return "".join(parts)

    def lines(self, tag: str, level: int) -> tuple[str, str, str]:
        """What the event path writes for an element ``tag`` at ``level``:
        its open and close lines around element children, and its line
        when it has no child."""
        def opened(at):
            at.start(tag)
            at._open_top()
        open_line = self._rendered(level, opened)
        return (open_line, self._rendered(level, lambda at: (
                    opened(at), at.end()))[len(open_line):],
                self._rendered(level, lambda at: (at.start(tag), at.end())))

    def template(self, fragment, level: int) -> list[str]:
        """What the event path writes for ``fragment`` opened at ``level``,
        cut where each slot's escaped value goes: one more constant piece
        than the fragment has slots.

        The fragment is replayed at that level with a marker character in
        every slot.  The marker is chosen absent from what the same replay
        writes around empty slots, and ``escape_text`` leaves it alone, so
        it occurs in the output exactly once per slot.
        """
        def rendered(value: str) -> str:
            return self._rendered(level, lambda at_level: fragment.replay(
                at_level, 1, [[value]] * len(fragment.sources)))

        constant = rendered("")
        marker = next(c for c in map(chr, count(0xE000)) if c not in constant)
        return rendered(marker).split(marker)


def parse_xml(source: str) -> XMLElement:
    """Parse a document produced by :func:`serialize` back into a tree.

    Raises :class:`ValidationError` on malformed input.
    """
    parser = _Parser(source)
    root = parser.parse_document()
    return root


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.length = len(source)

    def error(self, message: str) -> ValidationError:
        line = self.source.count("\n", 0, self.pos) + 1
        return ValidationError(f"XML parse error at line {line}: {message}")

    def parse_document(self) -> XMLElement:
        self._skip_misc()
        if self.pos >= self.length or self.source[self.pos] != "<":
            raise self.error("expected root element")
        root = self._parse_element()
        self._skip_misc()
        if self.pos != self.length:
            raise self.error("trailing content after root element")
        return root

    def _skip_misc(self) -> None:
        """Skip whitespace, XML declarations, processing instr. and comments."""
        while self.pos < self.length:
            ch = self.source[self.pos]
            if ch.isspace():
                self.pos += 1
            elif self.source.startswith("<?", self.pos):
                end = self.source.find("?>", self.pos)
                if end < 0:
                    raise self.error("unterminated processing instruction")
                self.pos = end + 2
            elif self.source.startswith("<!--", self.pos):
                end = self.source.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            else:
                return

    def _parse_name(self) -> str:
        start = self.pos
        while (self.pos < self.length
               and (self.source[self.pos].isalnum()
                    or self.source[self.pos] in "_-.:")):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.source[start:self.pos]

    def _parse_element(self) -> XMLElement:
        assert self.source[self.pos] == "<"
        self.pos += 1
        tag = self._parse_name()
        # Skip whitespace before the tag close; attributes are not supported.
        while self.pos < self.length and self.source[self.pos].isspace():
            self.pos += 1
        if self.source.startswith("/>", self.pos):
            self.pos += 2
            return XMLElement(tag)
        if self.pos >= self.length or self.source[self.pos] != ">":
            raise self.error(f"malformed start tag <{tag}")
        self.pos += 1
        node = XMLElement(tag)
        self._parse_content(node)
        # now positioned after '</'
        end_tag = self._parse_name()
        if end_tag != tag:
            raise self.error(f"mismatched end tag </{end_tag}>, expected </{tag}>")
        while self.pos < self.length and self.source[self.pos].isspace():
            self.pos += 1
        if self.pos >= self.length or self.source[self.pos] != ">":
            raise self.error(f"malformed end tag </{end_tag}")
        self.pos += 1
        return node

    def _parse_content(self, parent: XMLElement) -> None:
        text_start = self.pos
        while True:
            if self.pos >= self.length:
                raise self.error(f"unterminated element <{parent.tag}>")
            if self.source[self.pos] == "<":
                self._flush_text(parent, text_start, self.pos)
                if self.source.startswith("</", self.pos):
                    self.pos += 2
                    return
                if self.source.startswith("<!--", self.pos):
                    end = self.source.find("-->", self.pos)
                    if end < 0:
                        raise self.error("unterminated comment")
                    self.pos = end + 3
                else:
                    parent.append(self._parse_element())
                text_start = self.pos
            else:
                self.pos += 1

    def _flush_text(self, parent: XMLElement, start: int, end: int) -> None:
        raw = self.source[start:end]
        if raw and not raw.isspace():
            parent.append(XMLText(unescape_text(raw)))
        elif raw and parent.children == [] and "\n" not in raw:
            # whitespace-only content directly inside a leaf element is PCDATA
            parent.append(XMLText(raw))

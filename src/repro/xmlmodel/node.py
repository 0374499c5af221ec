"""Ordered XML tree nodes.

The model follows the paper's Section 2: a document is a tree whose internal
nodes are labeled with element types and whose leaves are either childless
elements or text nodes carrying PCDATA.  Attributes-on-elements are omitted,
as in the paper ("we do not consider DTD attributes").
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union


class XMLNode:
    """Common base for element and text nodes."""

    __slots__ = ("parent",)

    def __init__(self):
        self.parent: Optional["XMLElement"] = None

    def root(self) -> "XMLNode":
        """Return the topmost ancestor of this node."""
        node: XMLNode = self
        while node.parent is not None:
            node = node.parent
        return node

    def depth(self) -> int:
        """Number of edges from this node up to the root."""
        count = 0
        node: XMLNode = self
        while node.parent is not None:
            node = node.parent
            count += 1
        return count


class XMLText(XMLNode):
    """A text (PCDATA) leaf."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        super().__init__()
        self.value = check_text(value)

    def __repr__(self) -> str:
        return f"XMLText({self.value!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, XMLText) and self.value == other.value

    def __hash__(self):
        raise TypeError("XML nodes are mutable and unhashable")


class XMLElement(XMLNode):
    """An element node with an ordered list of children.

    ``_kids`` is the children list, or until ``children`` is first read
    one of three stand-ins: a ``<tag>text</tag>`` leaf's PCDATA as a plain
    ``str`` (kept by :func:`new_element`: one object instead of an
    element, a list and an :class:`XMLText`), a pending group
    ``(fragment, count, columns)`` — a tagging fragment group that is the
    whole content, kept unbuilt by the tree sink — or, in the root
    ``Middleware.evaluate`` returns, a pending document (its tagging run).
    The first read makes the list (``build`` makes the group or document)
    and keeps it, so a mutation always sees real nodes.  Readers that hand
    out nodes (``find``, ``find_all``, ``iter``, ``text_value``, ``==``,
    :func:`child_nodes`) build but take a ``str`` as the one text child;
    ``size`` and ``serialize`` build nothing.  As a read can write
    ``_kids``, a tree belongs to one caller; the service never builds one.
    """

    __slots__ = ("tag", "_kids")

    def __init__(self, tag: str, children: Sequence[XMLNode] = ()):
        super().__init__()
        self.tag = check_tag(tag)
        self._kids: Union[list[XMLNode], str, tuple] = []
        for child in children:
            self.append(child)

    @property
    def children(self) -> list[XMLNode]:
        kids = self._kids
        if kids.__class__ is str:
            self._kids = []
            new_text(kids, self)
        elif kids.__class__ is tuple:
            self._kids = []
            kids[0].build(self, *kids[1:])
        elif kids.__class__ is not list:    # a pending document
            self._kids = []
            kids.build(self)
            return self.children    # its content may be one pending group
        else:
            return kids
        return self._kids

    @children.setter
    def children(self, children: list[XMLNode]) -> None:
        self._kids = children

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, child: XMLNode) -> XMLNode:
        """Append ``child`` (re-parenting it) and return it."""
        if not isinstance(child, XMLNode):
            raise TypeError(f"child must be an XMLNode, got {type(child).__name__}")
        ancestor: Optional[XMLNode] = self
        while ancestor is not None:
            if ancestor is child:
                raise ValueError(f"{child!r} is this element or one of its "
                                 f"ancestors: appending it would make a cycle")
            ancestor = ancestor.parent
        if child.parent is not None:
            siblings = child.parent.children
            del siblings[_position(siblings, child)]
        child.parent = self
        self.children.append(child)
        return child

    def extend(self, children: Sequence[XMLNode]) -> None:
        for child in children:
            self.append(child)

    def remove(self, child: XMLNode) -> None:
        children = self.children
        del children[_position(children, child)]
        child.parent = None

    def replace_with_children(self, child: "XMLElement") -> None:
        """Splice ``child`` out, lifting its children into its place.

        Used by the tagging phase to erase internal-state nodes (Section 3.4):
        states behave like element types during computation but are removed
        from the final tree.
        """
        children = self.children
        index = _position(children, child)
        grandchildren = list(child.children)
        for grandchild in grandchildren:
            grandchild.parent = self
        child._kids = []
        child.parent = None
        children[index:index + 1] = grandchildren

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def child_elements(self) -> list["XMLElement"]:
        return [c for c in child_nodes(self) if isinstance(c, XMLElement)]

    def find(self, tag: str) -> Optional["XMLElement"]:
        """First child element with the given tag, or None."""
        if self._kids.__class__ is not str:
            for child in self.children:
                if isinstance(child, XMLElement) and child.tag == tag:
                    return child
        return None

    def find_all(self, tag: str) -> list["XMLElement"]:
        """All child elements with the given tag, in document order."""
        return [c for c in child_nodes(self)
                if isinstance(c, XMLElement) and c.tag == tag]

    def iter(self, tag: Optional[str] = None) -> Iterator["XMLElement"]:
        """Depth-first pre-order iterator over descendant-or-self elements."""
        if tag is None or self.tag == tag:
            yield self
        kids = self._kids
        if kids.__class__ is str:
            return
        for child in kids if kids.__class__ is list else self.children:
            if isinstance(child, XMLElement):
                yield from child.iter(tag)

    def text_value(self) -> str:
        """Concatenated PCDATA of all descendant text nodes."""
        if self._kids.__class__ is str:
            return self._kids
        parts: list[str] = []
        stack: list[XMLNode] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, XMLText):
                parts.append(node.value)
            elif node._kids.__class__ is str:
                parts.append(node._kids)
            else:
                stack.extend(reversed(node.children))
        return "".join(parts)

    def subelement_value(self, tag: str) -> Optional[str]:
        """PCDATA of the first ``tag`` child, or None if absent.

        This is the "value of the l subelement" notion the paper's keys and
        inclusion constraints are defined over.
        """
        child = self.find(tag)
        return None if child is None else child.text_value()

    def size(self) -> int:
        """Total number of nodes in this subtree (elements + text)."""
        count = 0
        stack: list[XMLNode] = [self]
        while stack:
            node = stack.pop()
            count += 1
            if isinstance(node, XMLElement):
                kids = node._kids
                if kids.__class__ is str:
                    count += 1      # the text child, not made yet
                elif kids.__class__ is tuple:   # a group, not built yet
                    count += kids[1] * (kids[0].elements + kids[0].texts)
                elif kids.__class__ is not list:    # an unread document
                    count += kids.size() - 1
                else:
                    stack.extend(kids)
        return count

    def path(self) -> str:
        """Slash-separated tag path from the root down to this element."""
        tags: list[str] = []
        node: XMLNode = self
        while isinstance(node, XMLElement):
            tags.append(node.tag)
            if node.parent is None:
                break
            node = node.parent
        return "/".join(reversed(tags))

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        """Structural equality: same tag and pairwise-equal children."""
        if not isinstance(other, XMLElement) or self.tag != other.tag:
            return False
        mine, theirs = child_nodes(self), child_nodes(other)
        if len(mine) != len(theirs):
            return False
        return all(a == b for a, b in zip(mine, theirs))

    def __hash__(self):
        raise TypeError("XML nodes are mutable and unhashable")

    def __repr__(self) -> str:
        return f"XMLElement({self.tag!r}, {len(child_nodes(self))} children)"


def child_nodes(node: XMLElement) -> list[XMLNode]:
    """``node.children`` for a reader: a text leaf's child is not made but
    stood in for by a detached :class:`XMLText` of the same value."""
    kids = node._kids
    return [XMLText(kids)] if kids.__class__ is str else node.children


def _position(children: list, child: XMLNode) -> int:
    """Index of ``child`` itself: nodes compare structurally, so
    ``list.index`` would find the first *equal* sibling instead."""
    for index, candidate in enumerate(children):
        if candidate is child:
            return index
    raise ValueError(f"{child!r} is not a child of this element")


def check_tag(tag) -> str:
    """``tag`` if it can label an element, :class:`TypeError` otherwise."""
    if not tag or not isinstance(tag, str):
        raise TypeError("element tag must be a non-empty string")
    return tag


def check_text(value) -> str:
    """``value`` if a text node can carry it, :class:`TypeError` otherwise."""
    if not isinstance(value, str):
        raise TypeError(f"text node value must be str, got {type(value).__name__}")
    return value


# ----------------------------------------------------------------------
# trusted construction
# ----------------------------------------------------------------------
# The one place a node is made without ``__init__``.  For callers that
# build a whole tree out of labels they have already checked (the tagging
# phase's TreeSink and ``Fragment.build``: tags checked when the program is
# compiled, values str from its reader; the shard codec: labels it encoded
# itself), and whose nodes are brand new, so there is no tag to validate
# again and no previous parent to detach from; and ``XMLElement.children``,
# making a leaf's text child on first read.  Anything else goes through
# ``XMLElement(...)``, ``XMLText(...)`` and ``append``.

_new = object.__new__


def new_element(tag: str, parent: Optional[XMLElement],
                text: Optional[str] = None) -> XMLElement:
    """A fresh ``tag`` element appended under ``parent`` (``None``: a
    root), holding one text child when ``text`` is given — the
    ``<tag>text</tag>`` leaf in one step and one object: ``text`` is kept
    as it is until ``children`` is read.  ``parent`` was made here without
    ``text`` (or has had its children read)."""
    node = _new(XMLElement)
    node.tag = tag
    node.parent = parent
    node._kids = [] if text is None else text
    if parent is not None:
        parent._kids.append(node)
    return node


def new_text(value: str, parent: XMLElement) -> XMLText:
    """A fresh text node appended under ``parent``."""
    node = _new(XMLText)
    node.value = value
    node.parent = parent
    parent._kids.append(node)
    return node


def element(tag: str, *children: Union[XMLNode, str]) -> XMLElement:
    """Convenience constructor: strings become text nodes.

    >>> element("item", element("trId", "t1"), element("price", "100")).tag
    'item'
    """
    node = XMLElement(tag)
    for child in children:
        node.append(XMLText(child) if isinstance(child, str) else child)
    return node


def text(value: str) -> XMLText:
    """Convenience constructor for a text node."""
    return XMLText(value)

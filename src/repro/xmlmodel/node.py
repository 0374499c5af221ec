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
    """An element node with an ordered list of children."""

    __slots__ = ("tag", "children")

    def __init__(self, tag: str, children: Sequence[XMLNode] = ()):
        super().__init__()
        self.tag = check_tag(tag)
        self.children: list[XMLNode] = []
        for child in children:
            self.append(child)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, child: XMLNode) -> XMLNode:
        """Append ``child`` (re-parenting it) and return it."""
        if not isinstance(child, XMLNode):
            raise TypeError(f"child must be an XMLNode, got {type(child).__name__}")
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
        del self.children[_position(self.children, child)]
        child.parent = None

    def replace_with_children(self, child: "XMLElement") -> None:
        """Splice ``child`` out, lifting its children into its place.

        Used by the tagging phase to erase internal-state nodes (Section 3.4):
        states behave like element types during computation but are removed
        from the final tree.
        """
        index = _position(self.children, child)
        grandchildren = list(child.children)
        for grandchild in grandchildren:
            grandchild.parent = self
        child.children = []
        child.parent = None
        self.children[index:index + 1] = grandchildren

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def child_elements(self) -> list["XMLElement"]:
        return [c for c in self.children if isinstance(c, XMLElement)]

    def find(self, tag: str) -> Optional["XMLElement"]:
        """First child element with the given tag, or None."""
        for child in self.children:
            if isinstance(child, XMLElement) and child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> list["XMLElement"]:
        """All child elements with the given tag, in document order."""
        return [c for c in self.children
                if isinstance(c, XMLElement) and c.tag == tag]

    def iter(self, tag: Optional[str] = None) -> Iterator["XMLElement"]:
        """Depth-first pre-order iterator over descendant-or-self elements."""
        if tag is None or self.tag == tag:
            yield self
        for child in self.children:
            if isinstance(child, XMLElement):
                yield from child.iter(tag)

    def text_value(self) -> str:
        """Concatenated PCDATA of all descendant text nodes."""
        parts: list[str] = []
        stack: list[XMLNode] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, XMLText):
                parts.append(node.value)
            else:
                assert isinstance(node, XMLElement)
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
                stack.extend(node.children)
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
        if not isinstance(other, XMLElement):
            return False
        if self.tag != other.tag or len(self.children) != len(other.children):
            return False
        return all(a == b for a, b in zip(self.children, other.children))

    def __hash__(self):
        raise TypeError("XML nodes are mutable and unhashable")

    def __repr__(self) -> str:
        return f"XMLElement({self.tag!r}, {len(self.children)} children)"


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
# phase's TreeSink: tags checked when the program is compiled, values str
# from its reader; the shard codec: labels it encoded itself), and whose
# nodes are brand new, so there is no tag to validate again and no previous
# parent to detach from.  Anything else goes through ``XMLElement(...)``,
# ``XMLText(...)`` and ``append``.

_new = object.__new__


def new_element(tag: str, parent: Optional[XMLElement],
                text: Optional[str] = None) -> XMLElement:
    """A fresh ``tag`` element appended under ``parent`` (``None``: a
    root), holding one text child when ``text`` is given — the
    ``<tag>text</tag>`` leaf in one step."""
    node = _new(XMLElement)
    node.tag = tag
    node.parent = parent
    if text is None:
        node.children = []
    else:
        leaf = _new(XMLText)
        leaf.value = text
        leaf.parent = node
        node.children = [leaf]
    if parent is not None:
        parent.children.append(node)
    return node


def new_text(value: str, parent: XMLElement) -> XMLText:
    """A fresh text node appended under ``parent``."""
    node = _new(XMLText)
    node.value = value
    node.parent = parent
    parent.children.append(node)
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

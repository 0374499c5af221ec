"""The byte oracle for ``serialize``: a tree writer that shares no code with
``StreamSerializer``.

``serialize`` drives ``StreamSerializer`` over a tree, so comparing the two
compares the serializer with itself.  This is the recursive writer
``serialize`` used before that, kept as the reference: its own f-strings
per element, reading every node through ``children``, so it writes a
pending fragment group in its built form.
"""

from repro.xmlmodel.node import XMLElement, XMLText
from repro.xmlmodel.serialize import escape_text


def reference_serialize(node, indent: int | None = None) -> str:
    newline = "" if indent is None else "\n"
    if isinstance(node, XMLText):
        return escape_text(node.value) + newline
    parts: list[str] = []
    _write(node, parts.append, indent or 0, newline, 0)
    return "".join(parts)


def _content(node: XMLElement):
    """A text leaf's ``str``, or the list of children (a group built)."""
    kids = node._kids
    return kids if kids.__class__ is str else node.children


def _write(node: XMLElement, out, indent: int, newline: str,
           level: int) -> None:
    """One pass over the children.  A text-only element is one line and
    anything else one line per child, which compact output — no pad, no
    newline — does not tell apart; so text is held back until the first
    element child (or the end) decides which.  Empty and one-text-child
    children are written here rather than by a call of their own.
    """
    tag, children = node.tag, _content(node)
    pad = " " * (indent * level)
    if children.__class__ is str:           # a text leaf, written alone
        out(f"{pad}<{tag}>{escape_text(children)}</{tag}>{newline}")
        return
    if not children:
        out(f"{pad}<{tag}/>{newline}")
        return
    inner = " " * (indent * (level + 1))
    held: list[str] | None = []       # None once the start tag is written
    for child in children:
        if isinstance(child, XMLText):
            if held is None:
                out(f"{inner}{escape_text(child.value)}{newline}")
            else:
                held.append(escape_text(child.value))
            continue
        if held is not None:
            out(f"{pad}<{tag}>{newline}")
            for value in held:
                out(f"{inner}{value}{newline}")
            held = None
        below = _content(child)
        if (below.__class__ is not str and len(below) == 1
                and isinstance(below[0], XMLText)):
            below = below[0].value
        if below.__class__ is str:
            out(f"{inner}<{child.tag}>{escape_text(below)}"
                f"</{child.tag}>{newline}")
        elif not below:
            out(f"{inner}<{child.tag}/>{newline}")
        else:
            _write(child, out, indent, newline, level + 1)
    if held is None:
        out(f"{pad}</{tag}>{newline}")
    else:
        out(f"{pad}<{tag}>{''.join(held)}</{tag}>{newline}")

"""DTD data model: element types, content models, and the DTD triple.

Content models form a small regular-expression algebra over element-type
names plus the string type ``S`` (PCDATA) and the empty word.  The *simplified*
forms the AIG machinery consumes (Section 2 of the paper) are:

    ``PCDATA``                      -- A -> S
    ``Empty``                       -- A -> epsilon
    ``Sequence(Name, ..., Name)``   -- A -> B1, ..., Bn
    ``Choice(Name, ..., Name)``     -- A -> B1 + ... + Bn
    ``Star(Name)``                  -- A -> B*

General models (nested sequences/choices, ``+``, ``?``, starred groups) are
accepted by the parser and reduced to the simplified forms by
:mod:`repro.dtd.normalize`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional as Opt

from repro.errors import DTDError

#: Reserved label for text (PCDATA) nodes, the paper's ``S``.
S = "#PCDATA"

#: Reserved marker used in unfolded element-type names ("treatment#2").
UNFOLD_SEPARATOR = "#"


class ContentModel:
    """Base class for content-model expressions."""

    def names(self) -> Iterator[str]:
        """Yield every element-type name mentioned, with repetition."""
        return iter(())

    def is_nullable(self) -> bool:
        """Can this model match the empty word?"""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class PCDATA(ContentModel):
    """``A -> S``: a single text child."""

    def is_nullable(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "PCDATA()"

    def __str__(self) -> str:
        return "(#PCDATA)"


class Empty(ContentModel):
    """``A -> epsilon``: no children."""

    def is_nullable(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "Empty()"

    def __str__(self) -> str:
        return "EMPTY"


#: Shared instance for the empty content model.
EPSILON = Empty()


class Name(ContentModel):
    """A reference to an element type ``B``."""

    def __init__(self, value: str):
        if not value:
            raise DTDError("element-type name must be non-empty")
        self.value = value

    def names(self) -> Iterator[str]:
        yield self.value

    def is_nullable(self) -> bool:
        return False

    def _key(self):
        return (self.value,)

    def __repr__(self) -> str:
        return f"Name({self.value!r})"

    def __str__(self) -> str:
        return self.value


class _Composite(ContentModel):
    """Shared machinery for sequence/choice."""

    symbol = "?"

    def __init__(self, items: Iterable[ContentModel]):
        self.items: tuple[ContentModel, ...] = tuple(items)
        if not self.items:
            raise DTDError(f"{type(self).__name__} requires at least one item")
        for item in self.items:
            if not isinstance(item, ContentModel):
                raise DTDError(f"content-model item must be a ContentModel, "
                               f"got {type(item).__name__}")

    def names(self) -> Iterator[str]:
        for item in self.items:
            yield from item.names()

    def _key(self):
        return self.items

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.items)!r})"

    def __str__(self) -> str:
        return "(" + self.symbol.join(str(i) for i in self.items) + ")"


class Sequence(_Composite):
    """Concatenation ``c1, c2, ..., cn``."""

    symbol = ", "

    def __init__(self, *items: ContentModel):
        super().__init__(items)

    def is_nullable(self) -> bool:
        return all(item.is_nullable() for item in self.items)


class Choice(_Composite):
    """Disjunction ``c1 + c2 + ... + cn`` (DTD syntax ``c1 | c2``)."""

    symbol = " | "

    def __init__(self, *items: ContentModel):
        super().__init__(items)

    def is_nullable(self) -> bool:
        return any(item.is_nullable() for item in self.items)


class _Unary(ContentModel):
    """Shared machinery for the postfix operators ``*``, ``+``, ``?``."""

    symbol = "?"

    def __init__(self, item: ContentModel):
        if not isinstance(item, ContentModel):
            raise DTDError(f"operand must be a ContentModel, "
                           f"got {type(item).__name__}")
        self.item = item

    def names(self) -> Iterator[str]:
        return self.item.names()

    def _key(self):
        return (self.item,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.item!r})"

    def __str__(self) -> str:
        return f"{self.item}{self.symbol}"


class Star(_Unary):
    """Kleene star ``c*``."""

    symbol = "*"

    def is_nullable(self) -> bool:
        return True


class Plus(_Unary):
    """One-or-more ``c+`` (general form only; normalized away)."""

    symbol = "+"

    def is_nullable(self) -> bool:
        return self.item.is_nullable()


class Optional(_Unary):
    """Zero-or-one ``c?`` (general form only; normalized away)."""

    symbol = "?"

    def is_nullable(self) -> bool:
        return True


class DTD:
    """A DTD ``D = (Ele, P, r)``.

    ``productions`` maps each element type in ``Ele`` to its content model;
    ``root`` is the distinguished root type.  Every name referenced inside a
    content model must itself be declared (the parser can auto-declare
    undeclared references as PCDATA, mirroring the paper's convention of
    omitting PCDATA element definitions).
    """

    def __init__(self, root: str, productions: dict[str, ContentModel]):
        if root not in productions:
            raise DTDError(f"root type {root!r} has no production")
        self.root = root
        self.productions: dict[str, ContentModel] = dict(productions)
        self._check_closed()

    def _check_closed(self) -> None:
        for element_type, model in self.productions.items():
            for name in model.names():
                if name not in self.productions:
                    raise DTDError(
                        f"production of {element_type!r} references undeclared "
                        f"element type {name!r}")

    def production(self, element_type: str) -> ContentModel:
        try:
            return self.productions[element_type]
        except KeyError:
            raise DTDError(f"unknown element type {element_type!r}") from None

    def __contains__(self, element_type: str) -> bool:
        return element_type in self.productions

    def __eq__(self, other) -> bool:
        return (isinstance(other, DTD) and self.root == other.root
                and self.productions == other.productions)

    def __repr__(self) -> str:
        return f"DTD(root={self.root!r}, {len(self.productions)} element types)"

    def to_text(self) -> str:
        """Render back to ``<!ELEMENT …>`` declarations."""
        lines = []
        for element_type, model in self.productions.items():
            if isinstance(model, (PCDATA, Empty)):
                body = str(model)
            elif isinstance(model, (Sequence, Choice)):
                body = str(model)
            else:
                body = f"({model})"
            lines.append(f"<!ELEMENT {element_type} {body}>")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # convenience queries used across the library
    # ------------------------------------------------------------------
    def string_subelement_types(self, element_type: str) -> list[str]:
        """Child types ``l`` of ``element_type`` with ``P(l) = S``.

        XML keys/ICs (Section 2) are defined over such ``l``.
        """
        model = self.production(element_type)
        result = []
        seen = set()
        for name in model.names():
            if name in seen:
                continue
            seen.add(name)
            if isinstance(self.productions.get(name), PCDATA):
                result.append(name)
        return result

    def occurs_once(self, parent: str, child: str) -> bool:
        """Does ``child`` occur exactly once in ``P(parent)``?"""
        return sum(1 for n in self.production(parent).names()
                   if n == child) == 1

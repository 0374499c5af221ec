"""DTD-conformance checking for XML trees.

Implements the four conformance conditions of Section 2: root label, element
labels drawn from ``Ele``, each element's child-label sequence in the regular
language of its production, and text nodes as leaves.  Content models are
compiled to epsilon-NFAs (Thompson construction) so that *general* regular
expressions — not only the simplified AIG forms — are supported.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.dtd.model import (
    DTD,
    Choice,
    ContentModel,
    Empty,
    Name,
    Optional,
    PCDATA,
    Plus,
    S,
    Sequence,
    Star,
)
from repro.xmlmodel.node import XMLElement, XMLNode, XMLText, child_nodes


class _NFA:
    """Epsilon-NFA with integer states; transitions labeled by symbols."""

    def __init__(self):
        self.transitions: list[dict[str, set[int]]] = []
        self.epsilon: list[set[int]] = []
        self.start = self._new_state()
        self.accept = self._new_state()

    def _new_state(self) -> int:
        self.transitions.append({})
        self.epsilon.append(set())
        return len(self.transitions) - 1

    def add_symbol(self, source: int, symbol: str, target: int) -> None:
        self.transitions[source].setdefault(symbol, set()).add(target)

    def add_epsilon(self, source: int, target: int) -> None:
        self.epsilon[source].add(target)

    def _closure(self, states: set[int]) -> set[int]:
        stack = list(states)
        closure = set(states)
        while stack:
            state = stack.pop()
            for successor in self.epsilon[state]:
                if successor not in closure:
                    closure.add(successor)
                    stack.append(successor)
        return closure

    def matches(self, symbols: list[str]) -> bool:
        current = self._closure({self.start})
        for symbol in symbols:
            following: set[int] = set()
            for state in current:
                following |= self.transitions[state].get(symbol, set())
            if not following:
                return False
            current = self._closure(following)
        return self.accept in current


def _build(model: ContentModel, nfa: _NFA, start: int, accept: int) -> None:
    """Thompson construction fragment from ``start`` to ``accept``."""
    if isinstance(model, Empty):
        nfa.add_epsilon(start, accept)
    elif isinstance(model, PCDATA):
        nfa.add_symbol(start, S, accept)
    elif isinstance(model, Name):
        nfa.add_symbol(start, model.value, accept)
    elif isinstance(model, Sequence):
        current = start
        for item in model.items[:-1]:
            following = nfa._new_state()
            _build(item, nfa, current, following)
            current = following
        _build(model.items[-1], nfa, current, accept)
    elif isinstance(model, Choice):
        for item in model.items:
            _build(item, nfa, start, accept)
    elif isinstance(model, Star):
        hub = nfa._new_state()
        nfa.add_epsilon(start, hub)
        nfa.add_epsilon(hub, accept)
        _build(model.item, nfa, hub, hub)
    elif isinstance(model, Plus):
        hub = nfa._new_state()
        _build(model.item, nfa, start, hub)
        _build(model.item, nfa, hub, hub)
        nfa.add_epsilon(hub, accept)
    elif isinstance(model, Optional):
        nfa.add_epsilon(start, accept)
        _build(model.item, nfa, start, accept)
    else:
        raise ValidationError(f"unknown content model {model!r}")


def _compile_model(model: ContentModel) -> _NFA:
    nfa = _NFA()
    _build(model, nfa, nfa.start, nfa.accept)
    return nfa


def validate_tree(tree: XMLElement, dtd: DTD) -> list[str]:
    """Return a list of conformance violations (empty = conforms).

    Each entry is a human-readable message naming the offending node's path.
    """
    violations: list[str] = []
    if tree.tag != dtd.root:
        violations.append(
            f"root is <{tree.tag}>, expected <{dtd.root}>")
    compiled: dict[str, _NFA] = {}
    stack: list[XMLElement] = [tree]
    while stack:
        node = stack.pop()
        if node.tag not in dtd:
            violations.append(
                f"{node.path()}: element type {node.tag!r} is not declared")
            continue
        if node.tag not in compiled:
            compiled[node.tag] = _compile_model(dtd.production(node.tag))
        children = child_nodes(node)
        labels = [child.tag if isinstance(child, XMLElement) else S
                  for child in children]
        if not compiled[node.tag].matches(labels):
            violations.append(
                f"{node.path()}: children {labels} do not match "
                f"production {dtd.production(node.tag)}")
        for child in children:
            if isinstance(child, XMLElement):
                stack.append(child)
    return violations


def conforms_to(tree: XMLElement, dtd: DTD) -> bool:
    """Does ``tree`` conform to ``dtd``?  (Convenience over validate_tree.)"""
    return not validate_tree(tree, dtd)

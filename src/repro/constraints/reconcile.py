"""Cross-shard constraint reconciliation (the sharded engine's verdict).

Each worker of a sharded run (:mod:`repro.runtime.sharding`) holds one
*slice* of the partition element's children, so a key value unique in
every shard may be duplicated across two of them and an inclusion source
may find its target only in another shard.  The verdict is still that of
the one scope engine, :mod:`repro.constraints.streaming`; this module
only splits its work:

* **worker** (:func:`shard_evidence`): the finished shard document goes
  once through the streaming checker.  A scope that opens and closes
  inside the slice sees everything its verdict depends on and is judged
  on the spot, as in any stream — and only for the *suspects*, the
  constraints whose engine guard fired on this shard (a clean guard
  proves the shard's own document has no violation).  A scope outside
  the slice (the partition element, its ancestors, their other
  descendants — identical in every shard) is shipped unjudged as it
  closed, its key counts split into what the slice contributed
  (``inside``) and the replicated rest (``counts``).
* **parent** (:func:`reconcile`): shipped scopes are merged by position
  — the paper's bag union: slice parts summed on one copy of the rest,
  inclusion sets unioned — and judged by the same checker's
  ``_close_scope``; the verdicts judged in the slices are interleaved
  in document order.  The result equals ``check_constraints`` on the
  merged document, string for string and in the same order.

A *position* is the checker's pre-order index ``_order``, counted over
the elements the pass enters: only subtrees whose element type can, by
the DTD, contain a context, target, source or field of a constraint live
at that point — every constraint outside the slice (so a shared scope's
position is the same in every shard), the suspects plus the constraints
with a shared scope open inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.checker import Violation
from repro.constraints.model import Constraint
from repro.constraints.streaming import StreamingConstraintChecker, _Scope
from repro.xmlmodel.node import XMLElement, child_nodes


@dataclass
class ShardEvidence:
    """What one shard document contributes to the verdict.

    ``shared[i]`` holds the unjudged scopes of ``constraints[i]`` that
    closed outside the slice, ``local[i]`` the ``(position, violation)``
    pairs judged inside it.  The slice occupies the positions
    ``slice_start .. slice_start + slice_elements - 1`` of this shard's
    pass (both 0 when the pass had no reason to enter the partition
    element).
    """

    shared: list
    local: list
    slice_start: int = 0
    slice_elements: int = 0


def _reaching(graph: dict[str, set[str]], goals: set[str]) -> set[str]:
    """The element types from which some type in ``goals`` is reachable
    (``goals`` included) in the DTD's element graph."""
    reach = set(goals)
    grown = True
    while grown:
        grown = False
        for tag, children in graph.items():
            if tag not in reach and not children.isdisjoint(reach):
                reach.add(tag)
                grown = True
    return reach


class _ShardPass(StreamingConstraintChecker):
    """The streaming checker fed one shard document, pruned by type."""

    def __init__(self, constraints, splice, suspects, graph):
        super().__init__(constraints)
        self._splice = splice
        self._graph = graph
        self._suspects = {index for index, constraint
                          in enumerate(self.constraints)
                          if suspects is None or constraint in suspects}
        self._in_slice = False
        self._wanted = _reaching(
            graph, set(self._context_of) | set(self._roles))
        self.evidence = ShardEvidence(
            [[] for _ in self.constraints], self._found)

    def _close_scope(self, index: int, scope: _Scope) -> None:
        if self._in_slice:
            super()._close_scope(index, scope)
        else:
            self.evidence.shared[index].append(scope)

    def feed(self, node: XMLElement) -> None:
        self.start(node.tag)
        if node is self._splice:
            self._feed_slice(node)
        else:
            self._feed_children(node)
        self.end()

    def _feed_children(self, node: XMLElement) -> None:
        # Text matters only to a field capture, and a field is entered
        # whatever its type can contain (its whole subtree is its value).
        capturing = bool(self._captures)
        fields = self._need_fields.get(node.tag, ())
        wanted = self._wanted
        for child in child_nodes(node):
            if isinstance(child, XMLElement):
                if capturing or child.tag in wanted or child.tag in fields:
                    self.feed(child)
            elif capturing:
                self.text(child.value)

    def _feed_slice(self, splice: XMLElement) -> None:
        """The partition element's children, with only the live
        constraints switched on; its open scopes (all shared) count the
        slice's key values apart from the replicated ones."""
        shared = [scope for scopes in self._scopes for scope in scopes]
        live = self._suspects | {index for index, scopes
                                 in enumerate(self._scopes) if scopes}
        saved = self._context_of, self._roles, self._wanted
        self._context_of = {
            tag: kept for tag, indexes in self._context_of.items()
            if (kept := [i for i in indexes if i in self._suspects])}
        self._roles = {
            tag: kept for tag, roles in self._roles.items()
            if (kept := [role for role in roles if role[0] in live])}
        self._wanted = _reaching(
            self._graph, set(self._context_of) | set(self._roles))
        for scope in shared:    # count into the (empty) ``inside`` dict
            scope.counts, scope.inside = scope.inside, scope.counts
        self.evidence.slice_start = self._order
        self._in_slice = True
        self._feed_children(splice)
        # Back outside before the partition element records its own
        # values: it is shared.
        self._in_slice = False
        self.evidence.slice_elements = self._order - self.evidence.slice_start
        self._context_of, self._roles, self._wanted = saved
        for scope in shared:
            scope.counts, scope.inside = scope.inside, scope.counts


def shard_evidence(document: XMLElement, constraints: list[Constraint],
                   splice: XMLElement, suspects,
                   graph: dict[str, set[str]]) -> ShardEvidence:
    """One shard document's contribution to the reconciled verdict.

    ``splice`` is the partition element of ``document`` (its children
    are the slice), ``graph`` the element graph of the DTD the document
    conforms to.  ``suspects`` is the set of constraints whose guard
    fired on this shard, or ``None`` when guard outcomes cannot be
    trusted (a degraded run may have skipped guard nodes): then every
    constraint is judged in the slice.
    """
    shard_pass = _ShardPass(constraints, splice, suspects, graph)
    shard_pass.feed(document)
    return shard_pass.evidence


def reconcile(constraints: list[Constraint],
              evidences: list[ShardEvidence]) -> list[Violation]:
    """Merge per-shard evidence, in shard order, into the global verdict.

    A position before a shard's slice is already its position in the
    merged document; one inside it moves by the slice sizes of the
    earlier shards, one after it by those of all the other shards.
    """
    checker = StreamingConstraintChecker(constraints)
    merged: list[dict[int, _Scope]] = [{} for _ in constraints]
    total = sum(evidence.slice_elements for evidence in evidences)
    earlier = 0
    for evidence in evidences:
        slice_end = evidence.slice_start + evidence.slice_elements
        others = total - evidence.slice_elements
        for index, scopes in enumerate(evidence.shared):
            for scope in scopes:
                position = scope.order + (others if scope.order >= slice_end
                                          else 0)
                target = merged[index].get(position)
                if target is None:
                    target = merged[index][position] = _Scope(scope.path,
                                                              position)
                    target.counts.update(scope.counts)
                for value, count in scope.inside.items():
                    target.counts[value] = target.counts.get(value, 0) + count
                target.sources |= scope.sources
                target.available |= scope.available
            checker._found[index].extend(
                (position + earlier, violation)
                for position, violation in evidence.local[index])
        earlier += evidence.slice_elements
    for index, scopes in enumerate(merged):
        for scope in scopes.values():
            checker._close_scope(index, scope)
    return checker.result()

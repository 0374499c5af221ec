"""Guards: boolean conditions on synthesized attributes (Section 3.3).

A specialized AIG attaches guards to element types.  When a node of that type
finishes evaluating (its synthesized attribute is known), each guard is
checked; a false guard aborts the whole evaluation — "it is terminated
without success".  Two guard forms compile from the two constraint forms:

* ``unique(Syn(C).m)``  — the bag member ``m`` contains no duplicates (keys);
* ``subset(Syn(C).m1, Syn(C).m2)`` — set member ``m1 ⊆ m2`` (inclusions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.attributes import AttrValue, Rows
from repro.constraints.model import Constraint


@dataclass(frozen=True)
class UniqueGuard:
    """``unique(Syn(element).member)`` — true iff the bag has no duplicates."""

    kind = "unique"
    element: str
    member: str
    constraint: Constraint

    def holds(self, syn_value: AttrValue) -> bool:
        rows = syn_value[self.member]
        assert isinstance(rows, Rows)
        return not rows.has_duplicates()

    def __str__(self) -> str:
        return f"unique(Syn({self.element}).{self.member})"


@dataclass(frozen=True)
class SubsetGuard:
    """``subset(Syn(element).left, Syn(element).right)`` — left ⊆ right."""

    kind = "subset"
    element: str
    left: str
    right: str
    constraint: Constraint

    def holds(self, syn_value: AttrValue) -> bool:
        left_rows = syn_value[self.left]
        right_rows = syn_value[self.right]
        assert isinstance(left_rows, Rows) and isinstance(right_rows, Rows)
        return left_rows.as_set() <= right_rows.as_set()

    def __str__(self) -> str:
        return (f"subset(Syn({self.element}).{self.left}, "
                f"Syn({self.element}).{self.right})")


Guard = UniqueGuard | SubsetGuard

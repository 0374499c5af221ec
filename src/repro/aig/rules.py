"""Semantic rules ``rule(p)`` for the five production forms (Section 3.1).

Each production ``p = A -> α`` carries one rule object:

* ``A -> S``           : :class:`PCDataRule` — text from ``f(Inh(A))``,
  ``Syn(A) = g(Inh(A))``.
* ``A -> epsilon``     : :class:`EmptyRule` — ``Syn(A) = g(Inh(A))``.
* ``A -> B1,...,Bn``   : :class:`SequenceRule` — per-child ``Inh(Bi) =
  fi(Inh(A), Syn(B~i))``, ``Syn(A) = g(Syn(B~))``.
* ``A -> B1+...+Bn``   : :class:`ChoiceRule` — a condition query selects the
  branch; per-branch ``fi``/``gi``.
* ``A -> B*``          : :class:`StarRule` — ``Inh(B) <- Q(Inh(A))`` creates
  one child per output tuple; ``Syn(A)`` collects children (``⊔``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SpecError
from repro.aig.functions import Assign, InhFunc, QueryFunc, SynFunc, assign


#: The empty synthesized-attribute assignment (no members computed).
NO_SYN: SynFunc = assign()


@dataclass(frozen=True)
class PCDataRule:
    """``A -> S``: ``text`` computes the PCDATA (a single scalar expression
    wrapped in an Assign with the reserved member ``__text__``)."""

    text: Assign
    syn: SynFunc = NO_SYN

    def __post_init__(self):
        if self.text.members() != ["__text__"]:
            raise SpecError("PCDataRule.text must assign exactly __text__")


@dataclass(frozen=True)
class EmptyRule:
    """``A -> epsilon``: only a synthesized attribute may be computed."""

    syn: SynFunc = NO_SYN


@dataclass(frozen=True)
class SequenceRule:
    """``A -> B1,...,Bn``: one inherited function per child type."""

    inh: tuple[tuple[str, InhFunc], ...]
    syn: SynFunc = NO_SYN

    def inh_for(self, child: str) -> InhFunc:
        for name, function in self.inh:
            if name == child:
                return function
        return assign()


@dataclass(frozen=True)
class ChoiceBranch:
    """Rules applied when a particular alternative is selected."""

    inh: InhFunc = field(default_factory=assign)
    syn: SynFunc = NO_SYN


@dataclass(frozen=True)
class ChoiceRule:
    """``A -> B1+...+Bn``: ``condition`` is the query ``Qc(Inh(A))`` whose
    first output value (an integer in ``[1, n]``) selects the branch.

    Branches are keyed by child element type.  ``selector_names`` maps
    selector values to alternative names; when empty, the production's own
    alternative order is used.  Recursion unfolding sets it to the
    *original* production's order (with ``None`` for truncated
    alternatives), so the condition query's values keep their meaning in
    every unfolded copy.
    """

    condition: QueryFunc
    branches: tuple[tuple[str, ChoiceBranch], ...]
    selector_names: tuple = ()

    def branch_for(self, child: str) -> ChoiceBranch:
        for name, branch in self.branches:
            if name == child:
                return branch
        return ChoiceBranch()

    def selector_targets(self, production_alternatives: list[str]) -> list:
        """Alternative name per selector value (None = truncated)."""
        if self.selector_names:
            return list(self.selector_names)
        return list(production_alternatives)


@dataclass(frozen=True)
class StarRule:
    """``A -> B*``: ``child_query`` computes ``Inh(B)`` — one child per
    output tuple.  ``syn`` may use :class:`~repro.aig.functions.
    CollectChildren` to gather the children's synthesized members."""

    child_query: QueryFunc
    syn: SynFunc = NO_SYN


Rule = PCDataRule | EmptyRule | SequenceRule | ChoiceRule | StarRule

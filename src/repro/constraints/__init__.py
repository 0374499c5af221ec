"""XML constraints: keys and inclusion constraints (Section 2).

A key ``C(A.l -> A)`` says that within every subtree rooted at a ``C``
element, the value of the ``l`` subelement uniquely identifies an ``A``
element.  An inclusion constraint ``C(B.lB ⊆ A.lA)`` says that within every
``C`` subtree, every ``B``'s ``lB`` value appears as some ``A``'s ``lA``
value.  A foreign key is a key plus an inclusion constraint.

:mod:`repro.constraints.checker` validates trees directly (the ground truth
used in tests); :mod:`repro.compilation.constraint_compile` compiles the same
constraints into synthesized attributes and guards so they are enforced
*during* document generation, as in Section 3.3.
"""

from repro.constraints.model import Key, InclusionConstraint, Constraint, foreign_key
from repro.constraints.checker import (
    check_constraint,
    check_constraints,
    Violation,
)
from repro.constraints.streaming import StreamingConstraintChecker

__all__ = [
    "Constraint",
    "Key",
    "InclusionConstraint",
    "foreign_key",
    "check_constraint",
    "check_constraints",
    "StreamingConstraintChecker",
    "Violation",
]

"""Exception hierarchy for the AIG reproduction.

All library errors derive from :class:`ReproError` so callers can catch the
whole family with one clause.  The subclasses mirror the phases of the paper:
specification errors are raised while an AIG is being *defined*, compilation
errors while it is being *specialized*, and evaluation errors while a document
is being *generated*.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SpecError(ReproError):
    """An AIG, DTD, or constraint specification is malformed.

    Examples: a production references an undeclared element type, a semantic
    rule is missing, or a dependency relation is cyclic.
    """


class TypeCompatibilityError(SpecError):
    """A semantic rule's function does not match its attribute's type.

    Section 3.1 of the paper requires tuple-typed attributes to be computed by
    tuple constructors of matching arity and set-typed attributes by set
    constructors/queries; this error reports a violation found by the static
    linear-time check.
    """


class CyclicDependencyError(SpecError):
    """The dependency relation of some production is cyclic (Definition 3.1)."""


class DTDError(SpecError):
    """A DTD definition or DTD text being parsed is invalid."""


class ConstraintError(SpecError):
    """An XML key or inclusion constraint is not well-formed w.r.t. the DTD."""


class SQLSyntaxError(SpecError):
    """A query string in the AIG dialect could not be parsed."""


class CompilationError(ReproError):
    """Specialization (constraint compilation, decomposition, copy
    elimination) failed."""


class PlanError(ReproError):
    """Query-plan construction, scheduling, or merging failed."""


class EvaluationError(ReproError):
    """Runtime evaluation of an AIG failed for a non-constraint reason."""


class EvaluationAborted(EvaluationError):
    """Evaluation terminated *without success* because a guard failed.

    Per Section 3.3, when a compiled constraint's guard evaluates to false the
    derivation aborts.  ``violations`` lists the constraints that failed.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        names = ", ".join(str(v) for v in self.violations)
        super().__init__(f"evaluation aborted: constraint(s) violated: {names}")


class SourceUnavailableError(EvaluationError):
    """A data source's engine failed a statement: locked or busy, an
    interrupt (a deadline), an injected fault, a missing table — any
    :class:`sqlite3.OperationalError`.

    Raised by :class:`~repro.relational.source.DataSource` at its
    statement boundary, the one place that decides what is the source's
    fault; the run it was part of ends at once, and the service answers it
    503 with ``Retry-After``.
    """


class RecursionDepthExceeded(EvaluationError):
    """A hard safety bound on recursive unfolding was exceeded."""


class RecursionTruncated(EvaluationError):
    """The data required an alternative that the recursion unfolding cut
    off (a condition query selected a dropped choice branch).

    The middleware catches this and retries with a deeper unfolding —
    the choice-production analogue of Section 5.5's blocked-query test."""


class ValidationError(ReproError):
    """An XML tree does not conform to a DTD (used by the validator)."""

"""Deterministic fault injection for :class:`~repro.relational.source.DataSource`.

A :class:`FaultInjector` is installed on a set of sources and fires
programmable faults at the boundary every query crosses: the
``execute``/``create_temp_table`` statement boundary.

Faults are addressed by a *per-source operation index* (1-based, counted
from the moment the injector is installed), which makes every run with the
same plan and the same spec reproducible: the executor issues each source's
queries in schedule order, so "the 3rd statement on DB2" names the same
query in every run.

Spec grammar (see docs/RESILIENCE.md)::

    spec     := clause ("," clause)*
    clause   := SOURCE ":" kind "@" N [ ":" ARG ]
    kind     := "error"       -- transient OperationalError on the N-th statement
              | "slow"        -- delay the N-th statement by ARG seconds
              | "down"        -- every statement from the N-th on fails (outage)

    e.g.  "DB2:error@3,DB1:slow@2:0.05,DB3:down@1"

Injected statement faults raise :class:`sqlite3.OperationalError` *inside*
the source's normal error path, so the source refuses them as it refuses a
real failure of its engine: :class:`~repro.errors.SourceUnavailableError`
with the operational cause attached.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass, field

from repro.errors import SpecError

#: The fault kinds, all fired at the statement boundary.
STATEMENT_KINDS = ("error", "slow", "down")


class InjectedFault(sqlite3.OperationalError):
    """An injected transient failure (subclass of OperationalError so the
    normal sqlite error paths wrap and classify it like the real thing)."""


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault spec."""

    source: str
    kind: str            # 'error' | 'slow' | 'down'
    at: int              # 1-based operation index on that source
    arg: float = 0.0     # seconds for 'slow'

    def __str__(self) -> str:
        suffix = f":{self.arg:g}" if self.kind == "slow" else ""
        return f"{self.source}:{self.kind}@{self.at}{suffix}"


def parse_fault_spec(spec: str) -> list[FaultClause]:
    """Parse the ``--faults`` grammar into clauses.

    Raises :class:`~repro.errors.SpecError` on malformed input so CLI and
    API callers get a typed, contextual error.
    """
    clauses: list[FaultClause] = []
    for raw in spec.split(","):
        clause = raw.strip()
        if not clause:
            continue
        try:
            source, rest = clause.split(":", 1)
            if ":" in rest:
                kind_at, arg_text = rest.split(":", 1)
                arg = float(arg_text)
            else:
                kind_at, arg = rest, 0.0
            kind, at_text = kind_at.split("@", 1)
            at = int(at_text)
        except ValueError:
            raise SpecError(
                f"malformed fault clause {clause!r} (expected "
                f"SOURCE:kind@N[:ARG])") from None
        if kind not in STATEMENT_KINDS:
            raise SpecError(
                f"unknown fault kind {kind!r} in {clause!r} "
                f"(expected one of {', '.join(STATEMENT_KINDS)})")
        if at < 1:
            raise SpecError(
                f"fault index must be >= 1 in {clause!r} (indices are "
                f"1-based)")
        if kind == "slow" and arg <= 0:
            raise SpecError(
                f"slow fault needs a positive delay in {clause!r} "
                f"(e.g. DB1:slow@2:0.05)")
        clauses.append(FaultClause(source.strip(), kind, at, arg))
    return clauses


@dataclass
class FaultInjector:
    """Programmable fault schedule over a set of sources: the clauses are
    exact, so a faulted run is reproducible from its spec alone."""

    clauses: list[FaultClause] = field(default_factory=list)

    def __post_init__(self):
        self._lock = threading.Lock()
        self._statement_counts: dict[str, int] = {}
        self.fired: list[tuple[str, FaultClause]] = []
        self._by_source: dict[str, list[FaultClause]] = {}
        for clause in self.clauses:
            self._by_source.setdefault(clause.source, []).append(clause)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        return cls(parse_fault_spec(spec))

    # ------------------------------------------------------------------
    def install(self, sources: dict) -> "FaultInjector":
        """Attach this injector to every source in ``sources``."""
        for source in sources.values():
            source.fault_injector = self
        return self

    def uninstall(self, sources: dict) -> None:
        for source in sources.values():
            if getattr(source, "fault_injector", None) is self:
                source.fault_injector = None

    # ------------------------------------------------------------------
    # boundary hooks (called by DataSource)
    # ------------------------------------------------------------------
    def on_statement(self, source_name: str) -> float:
        """Called before each statement executes on ``source_name``.

        Returns a delay in seconds to sleep (``slow`` faults) and raises
        :class:`InjectedFault` for ``error``/``down`` hits.
        """
        if source_name not in self._by_source:
            return 0.0
        with self._lock:
            index = self._statement_counts.get(source_name, 0) + 1
            self._statement_counts[source_name] = index
            hit = self._match(source_name, index)
            if hit is not None:
                self.fired.append((source_name, hit))
        if hit is None:
            return 0.0
        if hit.kind == "slow":
            return hit.arg
        if hit.kind == "down":
            raise InjectedFault(
                f"injected fault {hit}: source {source_name!r} is down")
        raise InjectedFault(
            f"injected fault {hit}: transient failure on {source_name!r}")

    # ------------------------------------------------------------------
    def _match(self, source_name: str, index: int) -> FaultClause | None:
        for clause in self._by_source.get(source_name, ()):
            if clause.kind == "down":
                if index >= clause.at:
                    return clause
            elif index == clause.at:
                return clause
        return None

    def reset(self) -> None:
        """Zero the operation counters (faults can fire again)."""
        with self._lock:
            self._statement_counts.clear()
            self.fired.clear()

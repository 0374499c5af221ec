"""Per-source circuit breakers (closed -> open -> half-open).

A breaker guards one data source.  While *closed* it only counts
consecutive failures; once they reach ``failure_threshold`` it *opens* and
every call is rejected without touching the source (the executor
consults :meth:`CircuitBreaker.would_block` before it issues a node, so an
open source costs nothing per node).  After ``cooldown`` seconds the
breaker admits a single *half-open* probe: success closes it, failure
re-opens it and restarts the cooldown.

The clock is injectable for deterministic tests; breakers owned by a
:class:`~repro.runtime.middleware.Middleware` persist across evaluations,
so a source that stayed down keeps failing fast on the next report.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Thresholds shared by every breaker of one middleware."""

    failure_threshold: int = 3     # consecutive failures that open the breaker
    cooldown: float = 30.0         # seconds open before a half-open probe


class CircuitBreaker:
    """State machine guarding one source.  Thread-safe."""

    def __init__(self, source: str, policy: BreakerPolicy | None = None,
                 clock=time.monotonic, listener=None):
        self.source = source
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_leased = False
        #: ``listener(source, old_state, new_state)`` on every transition.
        self._listener = listener

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def blocked(self) -> bool:
        """Should the caller refuse to send work to this source?

        Open: blocked.  Half-open: one probe call is admitted; further
        calls are blocked until the probe reports back.  A ``False``
        answer in the half-open state *leases* the single probe, so the
        caller commits to executing and reporting the outcome via
        :meth:`record_success`/:meth:`record_failure` (which release the
        lease) — callers that may refuse work after asking must use the
        non-leasing :meth:`would_block` instead.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return False
            if self._state == OPEN:
                return True
            if self._probe_leased:
                return True
            self._probe_leased = True
            return False

    def would_block(self) -> bool:
        """Read-only peek: would :meth:`blocked` refuse work right now?

        Unlike :meth:`blocked` this never leases the half-open probe, so
        it is safe to consult without committing to execute.  The
        executor's dispatch loop peeks here; the retry loop that
        actually runs the query then claims the probe with
        :meth:`blocked`.  (Consulting the leasing call twice for one task
        would wedge the breaker: the second call sees the probe taken,
        refuses the task, and nothing ever reports back to release it.)
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return False
            if self._state == OPEN:
                return True
            return self._probe_leased

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_leased = False
            self._transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            self._consecutive_failures += 1
            self._probe_leased = False
            if self._state == HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(OPEN)
            elif (self._state == CLOSED and self._consecutive_failures
                    >= self.policy.failure_threshold):
                self._opened_at = self._clock()
                self._transition(OPEN)

    # ------------------------------------------------------------------
    def _maybe_half_open(self) -> None:
        if (self._state == OPEN
                and self._clock() - self._opened_at >= self.policy.cooldown):
            self._transition(HALF_OPEN)

    def _transition(self, new_state: str) -> None:
        if new_state == self._state:
            return
        old_state, self._state = self._state, new_state
        if self._listener is not None:
            self._listener(self.source, old_state, new_state)

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.source!r}, {self.state}, "
                f"failures={self._consecutive_failures})")


class BreakerBoard:
    """The per-source breaker registry one middleware owns."""

    def __init__(self, policy: BreakerPolicy | None = None,
                 clock=time.monotonic, listener=None):
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._listener = listener
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker_for(self, source: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(source)
            if breaker is None:
                breaker = CircuitBreaker(source, self.policy, self._clock,
                                         self._listener)
                self._breakers[source] = breaker
            return breaker

    def states(self) -> dict[str, str]:
        with self._lock:
            breakers = list(self._breakers.values())
        return {breaker.source: breaker.state for breaker in breakers}

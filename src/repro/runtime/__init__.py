"""Optimized evaluation runtime: the middleware's execution and tagging
phases (Sections 5.1, 5.5).

* :mod:`repro.runtime.recursion` — unfold a recursive AIG to an estimated
  depth; detect at runtime whether the unfolding sufficed and extend it.
* :mod:`repro.runtime.engine` — execute an optimized plan: per-source query
  sequences, temp-table shipping through the mediator, and a simulated clock
  that prices communication with the :class:`~repro.relational.network.
  Network` model.
* :mod:`repro.runtime.collect` — collect nodes and guard verdicts, computed
  in process over the result sets a run holds.
* :mod:`repro.runtime.tagging` — the tagging plan: sort-merge the cached
  output relations into the final XML tree, erase internal states and
  unfolding suffixes, check guards.
* :mod:`repro.runtime.prepared` — a plan as a value: prepare (unfold,
  specialize, QDG, merge + schedule) and explain one, no middleware needed.
* :mod:`repro.runtime.middleware` — the facade: AIG in, document out.

Failure handling (retries, circuit breakers) lives in
:mod:`repro.resilience` and is wired through ``Middleware``'s
``retry_policy`` / ``deadline`` / ``breaker_policy`` parameters; a source
that still fails ends the run in a typed error — see docs/RESILIENCE.md.
"""

from repro.runtime.recursion import unfold_aig, strip_unfolding
from repro.runtime.middleware import Middleware, ExecutionReport

__all__ = [
    "unfold_aig",
    "strip_unfolding",
    "Middleware",
    "ExecutionReport",
]

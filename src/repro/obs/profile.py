"""EXPLAIN ANALYZE for the AIG middleware.

``Middleware.explain`` prints what the optimizer *decided*;
:func:`render_profile` prints what the engine then *did* — the executed
query-dependency graph in topological order, each node annotated with
estimated vs measured rows, bytes, and seconds, the per-node q-error,
and its execution status (merged group and member count, incremental
cache replay, guard/collect kind, the constraint a guard checks).  The
worst offenders — the nodes where the cost model was most wrong on time —
are flagged inline and recapped at the bottom, because those are exactly
the nodes where Algorithm Merge and Algorithm Schedule were optimizing
against fiction.

:func:`profile_evaluation` is the one-call driver behind
``repro profile`` and ``repro explain --analyze``: evaluate under the
middleware's configuration, then join estimates with measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.calibrate import q_error

#: Nodes with a seconds q-error at or above this are flagged inline.
FLAG_THRESHOLD = 2.0

#: How many worst offenders the recap lists.
WORST_COUNT = 3


@dataclass
class ProfiledNode:
    """One executed node's estimated-vs-measured join."""

    name: str
    source: str
    kind: str
    members: int                 # >1 for merged groups
    cached: bool                 # replayed from the incremental cache
    est_rows: float
    actual_rows: int
    est_bytes: float
    actual_bytes: int
    est_seconds: float
    actual_seconds: float
    checks: str = ""             # a guard's kind and constraint

    @property
    def rows_q(self) -> float:
        return q_error(self.est_rows, self.actual_rows, floor=1.0)

    @property
    def seconds_q(self) -> float:
        return q_error(self.est_seconds, self.actual_seconds)

    @property
    def status(self) -> str:
        flags = []
        if self.members > 1:
            flags.append(f"merged x{self.members}")
        if self.cached:
            flags.append("cached")
        if self.kind in ("guard", "collect", "condition"):
            flags.append(f"{self.kind} {self.checks}".rstrip())
        return ",".join(flags)

    def to_dict(self) -> dict:
        return {
            "name": self.name, "source": self.source, "kind": self.kind,
            "members": self.members, "cached": self.cached,
            "checks": self.checks,
            "est_rows": round(self.est_rows, 3),
            "actual_rows": self.actual_rows,
            "rows_q_error": round(self.rows_q, 4),
            "est_bytes": round(self.est_bytes, 1),
            "actual_bytes": self.actual_bytes,
            "est_seconds": round(self.est_seconds, 6),
            "actual_seconds": round(self.actual_seconds, 6),
            "seconds_q_error": round(self.seconds_q, 4),
        }


def build_profile(graph, estimates: dict, timings: dict
                  ) -> list[ProfiledNode]:
    """Join estimates and timings over the executed graph, topologically.

    Nodes missing either side (e.g. skipped by a degraded run) are
    omitted — the renderer reports only what both the model and the
    engine have numbers for.
    """
    profiled: list[ProfiledNode] = []
    for node in graph.topological_order():
        estimate = estimates.get(node.name)
        timing = timings.get(node.name)
        if estimate is None or timing is None:
            continue
        members = getattr(node, "members", None)
        profiled.append(ProfiledNode(
            name=node.name,
            source=node.source,
            kind=node.kind,
            members=len(members) if members else 1,
            cached=timing.cached,
            est_rows=estimate.cardinality,
            actual_rows=timing.output_rows,
            est_bytes=estimate.size_bytes,
            actual_bytes=timing.output_bytes,
            est_seconds=estimate.eval_seconds,
            actual_seconds=timing.eval_seconds + timing.overhead_seconds,
            checks=(f"{node.guard.kind} {node.guard.constraint}"
                    if node.kind == "guard" else ""),
        ))
    return profiled


def render_profile(graph, estimates: dict, timings: dict,
                   estimated_cost: float | None = None,
                   response_time: float | None = None,
                   measured_seconds: float | None = None,
                   feedback_active: bool = False) -> str:
    """The EXPLAIN ANALYZE text: per-node est vs actual, worst offenders."""
    profiled = build_profile(graph, estimates, timings)
    lines = ["== EXPLAIN ANALYZE =="]
    header = (f"  {'node':<38s}{'rows est/act':>16s}{'q':>7s}"
              f"{'sec est/act':>19s}{'q':>7s}  status")
    lines.append(header)
    for node in profiled:
        shown = node.name if len(node.name) <= 37 else node.name[:34] + "..."
        flag = " <<" if (node.seconds_q >= FLAG_THRESHOLD
                         and not node.cached) else ""
        lines.append(
            f"  {shown:<38s}"
            f"{node.est_rows:>8.0f}/{node.actual_rows:<7d}"
            f"{node.rows_q:>7.2f}"
            f"{node.est_seconds:>9.4f}/{node.actual_seconds:<9.4f}"
            f"{node.seconds_q:>7.2f}  {node.status}{flag}")
    executed = [node for node in profiled if not node.cached]
    worst = sorted(executed, key=lambda n: -n.seconds_q)[:WORST_COUNT]
    worst = [node for node in worst if node.seconds_q >= FLAG_THRESHOLD]
    if worst:
        lines.append("")
        lines.append(f"-- worst cost-model offenders (seconds q-error >= "
                     f"{FLAG_THRESHOLD:g}) --")
        for node in worst:
            direction = ("over" if node.est_seconds > node.actual_seconds
                         else "under")
            lines.append(f"  {node.name}: modeled {node.est_seconds:.4f}s "
                         f"vs measured {node.actual_seconds:.4f}s "
                         f"(q={node.seconds_q:.2f}, {direction}-estimated); "
                         f"rows {node.est_rows:.0f} vs {node.actual_rows}")
    lines.append("")
    summary = [f"{len(profiled)} node(s)",
               f"{sum(1 for n in profiled if n.members > 1)} merged group(s)",
               f"{sum(1 for n in profiled if n.cached)} cache replay(s)"]
    if estimated_cost is not None and response_time is not None:
        summary.append(f"predicted cost(P) {estimated_cost:.3f}s vs "
                       f"simulated response {response_time:.3f}s "
                       f"(q={q_error(estimated_cost, response_time):.2f})")
    if measured_seconds is not None:
        summary.append(f"wall {measured_seconds:.3f}s")
    if feedback_active:
        summary.append("cost feedback: ON")
    lines.append("summary: " + "; ".join(summary))
    return "\n".join(lines)


def profile_evaluation(middleware, root_inh: dict):
    """Evaluate and profile in one call.

    Returns ``(report, text)``: the normal
    :class:`~repro.runtime.middleware.ExecutionReport` plus the rendered
    EXPLAIN ANALYZE.  Works with or without a recording tracer — the
    engine's :class:`~repro.runtime.engine.NodeTiming` map is always
    collected.
    """
    report = middleware.evaluate(root_inh)
    # Use the estimates that planned the run (a fresh prepare() with a
    # cost-feedback store attached would already fold in what the run
    # just measured).
    text = render_profile(
        middleware._last_graph, middleware._last_estimates,
        middleware._last_result.timings,
        estimated_cost=report.estimated_cost,
        response_time=report.response_time,
        measured_seconds=report.measured_seconds,
        feedback_active=middleware.cost_feedback is not None)
    return report, text

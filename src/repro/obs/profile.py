"""EXPLAIN ANALYZE for the AIG middleware.

``Middleware.explain`` prints what the optimizer *decided*;
:func:`render_profile` prints what the engine then *did* — the run's
:class:`~repro.obs.calibrate.CalibrationReport`, the executed nodes in
topological order, each annotated with estimated vs measured rows and
seconds, the per-node q-error,
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

from repro.obs.calibrate import CalibrationReport, q_error

#: Nodes with a seconds q-error at or above this are flagged inline.
FLAG_THRESHOLD = 2.0

#: How many worst offenders the recap lists.
WORST_COUNT = 3


def render_profile(calibration: CalibrationReport,
                   estimated_cost: float | None = None,
                   response_time: float | None = None,
                   measured_seconds: float | None = None) -> str:
    """The EXPLAIN ANALYZE text: per-node est vs actual, worst offenders."""
    profiled = calibration.nodes
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
            f"{node.modeled_rows:>8.0f}/{node.measured_rows:<7d}"
            f"{node.rows_q:>7.2f}"
            f"{node.modeled_seconds:>9.4f}/{node.measured_seconds:<9.4f}"
            f"{node.seconds_q:>7.2f}  {node.status}{flag}")
    executed = [node for node in profiled if not node.cached]
    worst = sorted(executed, key=lambda n: -n.seconds_q)[:WORST_COUNT]
    worst = [node for node in worst if node.seconds_q >= FLAG_THRESHOLD]
    if worst:
        lines.append("")
        lines.append(f"-- worst cost-model offenders (seconds q-error >= "
                     f"{FLAG_THRESHOLD:g}) --")
        for node in worst:
            direction = ("over" if node.modeled_seconds > node.measured_seconds
                         else "under")
            lines.append(f"  {node.name}: modeled {node.modeled_seconds:.4f}s "
                         f"vs measured {node.measured_seconds:.4f}s "
                         f"(q={node.seconds_q:.2f}, {direction}-estimated); "
                         f"rows {node.modeled_rows:.0f} vs {node.measured_rows}")
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
    lines.append("summary: " + "; ".join(summary))
    return "\n".join(lines)


def profile_evaluation(middleware, root_inh: dict):
    """Evaluate and profile in one call.

    Returns ``(report, calibration, text)``: the normal
    :class:`~repro.runtime.middleware.ExecutionReport`, the
    :class:`~repro.obs.calibrate.CalibrationReport` of the run, and the
    rendered EXPLAIN ANALYZE.  Works with or without a recording tracer —
    the engine's :class:`~repro.runtime.engine.NodeTiming` map is always
    collected.
    """
    report = middleware.evaluate(root_inh)
    calibration = middleware.calibration_report()
    text = render_profile(
        calibration,
        estimated_cost=report.estimated_cost,
        response_time=report.response_time,
        measured_seconds=report.measured_seconds)
    return report, calibration, text

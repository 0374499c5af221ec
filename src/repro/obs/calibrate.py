"""Cost-model calibration: modeled cost vs. measured execution.

The optimizer schedules and merges with the Section 5 cost model
(``eval_cost``/``size`` per query, ``trans_cost`` per edge) but the seed
repo never looked back at how those numbers compared with what the engine
actually did.  This module joins each QDG node's *modeled* estimate
(:class:`~repro.optimizer.cost.NodeEstimate`) against its *measured*
:class:`~repro.runtime.engine.NodeTiming` from a real run and reports
per-node and aggregate error on three dimensions:

* **rows** — estimated cardinality vs. rows produced;
* **bytes** — estimated output size vs. actual serialized bytes (what
  ``trans_cost`` multiplies);
* **seconds** — modeled ``eval_cost`` vs. the node's clock contribution
  (measured SQLite+shipping time plus the modeled deployment overhead the
  engine applied, i.e. exactly what the ``comp_time`` recursion consumed).

Error is reported as the *q-error* ``max(model/measured, measured/model)``
— the standard cardinality-estimation metric: symmetric, multiplicative,
1.0 is perfect — plus signed relative error on the time dimension so
systematic over/under-estimation is visible.  Aggregates use mean, median
and max q-error and the modeled-vs-measured totals.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: Values below this are treated as this for q-error ratios (avoids
#: division blow-ups on empty results / sub-microsecond nodes).
EPSILON = 1e-9


def q_error(modeled: float, measured: float, floor: float = EPSILON) -> float:
    """``max(modeled/measured, measured/modeled)``, floored at 1.0.

    ``floor`` clamps both operands from below; count-like dimensions
    (rows, bytes) pass ``floor=1.0`` — the cardinality-estimation
    convention — so an empty result vs. a modeled handful reads as a
    small error rather than a division blow-up.
    """
    modeled = max(float(modeled), floor)
    measured = max(float(measured), floor)
    return max(modeled / measured, measured / modeled)


@dataclass
class NodeCalibration:
    """Modeled-vs-measured record for one executed QDG node — the one
    join behind both ``repro calibrate`` and EXPLAIN ANALYZE."""

    name: str
    source: str
    kind: str
    members: int                 # >1 for merged groups
    cached: bool                 # replayed from the incremental cache
    checks: str                  # a guard's kind and constraint
    modeled_rows: float
    measured_rows: int
    modeled_bytes: float
    measured_bytes: int
    modeled_seconds: float
    measured_seconds: float      # measured eval + modeled overhead applied

    @property
    def rows_q(self) -> float:
        return q_error(self.modeled_rows, self.measured_rows, floor=1.0)

    @property
    def bytes_q(self) -> float:
        return q_error(self.modeled_bytes, self.measured_bytes, floor=1.0)

    @property
    def seconds_q(self) -> float:
        return q_error(self.modeled_seconds, self.measured_seconds)

    @property
    def seconds_rel_error(self) -> float:
        """Signed ``(modeled - measured) / measured``."""
        return ((self.modeled_seconds - self.measured_seconds)
                / max(self.measured_seconds, EPSILON))

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
            "modeled_rows": round(self.modeled_rows, 3),
            "measured_rows": self.measured_rows,
            "rows_q_error": round(self.rows_q, 4),
            "modeled_bytes": round(self.modeled_bytes, 1),
            "measured_bytes": self.measured_bytes,
            "bytes_q_error": round(self.bytes_q, 4),
            "modeled_seconds": round(self.modeled_seconds, 6),
            "measured_seconds": round(self.measured_seconds, 6),
            "seconds_q_error": round(self.seconds_q, 4),
            "seconds_rel_error": round(self.seconds_rel_error, 4),
        }


@dataclass
class CalibrationReport:
    """All node records plus aggregates; renders as text or JSON."""

    nodes: list[NodeCalibration]

    def _agg(self, values: list[float]) -> dict:
        if not values:
            return {"mean": 1.0, "median": 1.0, "max": 1.0}
        return {"mean": round(statistics.fmean(values), 4),
                "median": round(statistics.median(values), 4),
                "max": round(max(values), 4)}

    def aggregates(self) -> dict:
        return {
            "nodes": len(self.nodes),
            "rows_q_error": self._agg([n.rows_q for n in self.nodes]),
            "bytes_q_error": self._agg([n.bytes_q for n in self.nodes]),
            "seconds_q_error": self._agg([n.seconds_q for n in self.nodes]),
            "modeled_total_seconds": round(
                sum(n.modeled_seconds for n in self.nodes), 6),
            "measured_total_seconds": round(
                sum(n.measured_seconds for n in self.nodes), 6),
        }

    def to_dict(self) -> dict:
        return {"nodes": [node.to_dict() for node in self.nodes],
                "aggregates": self.aggregates()}

    def to_text(self) -> str:
        lines = [f"== cost-model calibration ({len(self.nodes)} QDG "
                 f"node(s)) ==",
                 f"{'node':<40s}{'rows m/e':>14s}{'q':>7s}"
                 f"{'bytes m/e':>16s}{'q':>7s}"
                 f"{'sec m/e':>18s}{'q':>8s}"]
        for node in sorted(self.nodes, key=lambda n: -n.measured_seconds):
            shown = node.name if len(node.name) <= 39 else \
                node.name[:36] + "..."
            lines.append(
                f"{shown:<40s}"
                f"{node.modeled_rows:>7.0f}/{node.measured_rows:<6d}"
                f"{node.rows_q:>7.2f}"
                f"{node.modeled_bytes:>8.0f}/{node.measured_bytes:<7d}"
                f"{node.bytes_q:>7.2f}"
                f"{node.modeled_seconds:>9.4f}/{node.measured_seconds:<8.4f}"
                f"{node.seconds_q:>8.2f}")
        agg = self.aggregates()
        for dim in ("rows", "bytes", "seconds"):
            stats = agg[f"{dim}_q_error"]
            lines.append(f"{dim:>8s} q-error: mean {stats['mean']:.2f}, "
                         f"median {stats['median']:.2f}, "
                         f"max {stats['max']:.2f}")
        lines.append(f"total eval seconds: modeled "
                     f"{agg['modeled_total_seconds']:.4f} vs measured "
                     f"{agg['measured_total_seconds']:.4f}")
        return "\n".join(lines)


def build_calibration(graph, estimates: dict,
                      timings: dict) -> CalibrationReport:
    """Join a run's measured timings against the optimizer's estimates.

    ``graph`` is the (possibly merged) executed
    :class:`~repro.optimizer.qdg.QueryDependencyGraph`; ``estimates`` the
    per-node :class:`~repro.optimizer.cost.NodeEstimate` map used to plan
    it; ``timings`` the per-node
    :class:`~repro.runtime.engine.NodeTiming` map the engine measured.
    Nodes lacking either side (e.g. an aborted run) are skipped; the
    rest are listed in topological order.
    """
    nodes: list[NodeCalibration] = []
    for node in graph.topological_order():
        estimate = estimates.get(node.name)
        timing = timings.get(node.name)
        if estimate is None or timing is None:
            continue
        members = getattr(node, "members", None)
        nodes.append(NodeCalibration(
            name=node.name,
            source=node.source,
            kind=node.kind,
            members=len(members) if members else 1,
            cached=timing.cached,
            checks=(f"{node.guard.kind} {node.guard.constraint}"
                    if node.kind == "guard" else ""),
            modeled_rows=estimate.cardinality,
            measured_rows=timing.output_rows,
            modeled_bytes=estimate.size_bytes,
            measured_bytes=timing.output_bytes,
            modeled_seconds=estimate.eval_seconds,
            measured_seconds=timing.eval_seconds + timing.overhead_seconds,
        ))
    return CalibrationReport(nodes)

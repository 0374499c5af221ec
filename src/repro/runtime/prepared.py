"""A prepared plan as a value: pre-processing + optimization of an AIG at
one unfold depth (Fig. 5, phases 1–2) and its EXPLAIN text, computed from
an AIG, a statistics catalog and a network — no ``Middleware`` needed.
``Middleware.prepare`` caches one per depth."""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.compilation.specialize import specialize
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.cost import CostModel
from repro.optimizer.merge import merge as merge_graph, unmerged_plan
from repro.optimizer.qdg import build_qdg
from repro.optimizer.schedule import levels
from repro.runtime.recursion import unfold_aig

logger = logging.getLogger("repro.middleware")


@dataclass(frozen=True, eq=False)
class PreparedPlan:
    """What optimization decided for one unfold depth; immutable, shared by
    every run (and thread) that executes it."""

    depth: int | None               # unfold depth (None: no recursion)
    graph: object                   # the optimized query dependency graph
    plan: dict                      # source -> node names, in schedule order
    tagging_plan: object            # runtime.tagging.TaggingPlan
    cost: float                     # predicted cost(P), seconds
    estimates: dict                 # node name -> NodeEstimate
    merged: bool                    # Algorithm Merge ran


def prepare_plan(aig, stats, network, depth: int | None, *, merging: bool,
                 tracer=NULL_TRACER) -> PreparedPlan:
    """Unfold ``aig`` to ``depth``, specialize, build the QDG and merge +
    schedule it (or schedule it unmerged)."""
    stats.tracer = tracer  # this prepare's reads are its spans
    working = aig
    if depth is not None:
        with tracer.span("unfold", "unfold", depth=depth):
            working = unfold_aig(aig, depth)
    spec = specialize(working, stats, tracer=tracer)
    with tracer.span("build-qdg", "qdg"):
        graph, tagging_plan = build_qdg(spec, stats)
    model = CostModel(stats)
    with tracer.span("merge+schedule", "optimize",
                     merging=merging) as optimize_span:
        if merging:
            graph, plan, cost, estimates = merge_graph(
                graph, model, network, tracer=tracer)
        else:
            plan, cost, estimates = unmerged_plan(graph, model, network)
        optimize_span.set(nodes=len(graph), predicted_cost=cost)
    tracer.metrics.set_gauge("qdg_nodes", len(graph))
    tracer.metrics.set_gauge("plan_cost_estimate_seconds", cost)
    logger.info("prepared plan (depth=%s): %d node(s), predicted "
                "cost %.3fs, merging %s", depth, len(graph), cost,
                "on" if merging else "off")
    return PreparedPlan(depth, graph, plan, tagging_plan, cost, estimates,
                        merging)


def explain_plan(prepared: PreparedPlan, network) -> list[str]:
    """A human-readable report of the optimization decisions.

    Covers what EXPLAIN covers for a DBMS: the recursion unfolding, the
    decomposed multi-source sites, every query-dependency-graph node with
    its estimated cardinality, the per-source schedules with ℓevel
    priorities, the merges chosen, and the predicted ``cost(P)``.
    """
    graph, estimates = prepared.graph, prepared.estimates
    priority = levels(graph, estimates, network)
    lines = ["== AIG middleware plan =="]
    if prepared.depth is not None:
        lines.append(f"recursion unfolded to depth {prepared.depth}")
    lines.append(f"{len(graph)} plan nodes over sources "
                 f"{', '.join(graph.sources())}")
    lines.append("")
    lines.append("-- query dependency graph (topological) --")
    for node in graph.topological_order():
        estimate = estimates.get(node.name)
        cardinality = (f"~{estimate.cardinality:.0f} rows"
                       if estimate else "?")
        lines.append(f"  [{node.kind:9s}] {node.name} @{node.source} "
                     f"({cardinality})")
        members = getattr(node, "members", None)
        if members:
            for member in members:
                lines.append(f"      + {member.name}")
        if node.kind == "guard":
            lines.append(f"      {node.guard.kind}  "
                         f"{node.guard.constraint}")
        for producer in node.inputs:
            lines.append(f"      <- {producer}")
    lines.append("")
    lines.append("-- schedule (Algorithm Schedule, ℓevel priority) --")
    for source, sequence in sorted(prepared.plan.items()):
        lines.append(f"  {source}:")
        for name in sequence:
            lines.append(f"    ℓ={priority[name]:9.3f}  {name}")
    lines.append("")
    lines.append(f"predicted cost(P): {prepared.cost:.3f}s "
                 f"(merging {'on' if prepared.merged else 'off'}, "
                 f"{network})")
    return lines

"""Algorithm *Merge* (Section 5.4, Fig. 9).

Iteratively pick the pair of same-source queries whose merging most reduces
the scheduled plan cost; merge them (``mergePair``); repeat until no pair
helps.  Merging two queries yields a single node that is executed once:

* **independent** queries merge by *outer union* — realized at execution as
  one statement ``SELECT <member index> AS __tag, …padded columns… UNION
  ALL …`` with an integer discriminator column, so consumers (and the
  tagging phase) extract exactly their member's slice before use;
* **dependent** queries (``Q1 ->G Q2``) merge by *inlining*: ``Q1`` becomes
  a CTE the ``Q2`` branch reads, the paper's outer-join-style inlining.

Both cases are uniformly represented by :class:`MergedNode` carrying the
member nodes in topological order; the engine renders the combined
statement and re-splits the result by tag, so downstream consumers keep
referencing the original member names.  The merged graph stays a DAG —
candidate merges producing a cycle are rejected (step 6 of Fig. 9) — and
its statements stay linear in their members: SQLite expands every CTE
reference, so a candidate whose expanded reference count exceeds a
chain's is refused too (:func:`expanded_references`).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.relational.network import Network
from repro.relational.source import MEDIATOR_NAME
from repro.optimizer.cost import CostModel, NodeEstimate, plan_cost
from repro.optimizer.qdg import QueryDependencyGraph, QueryNode
from repro.optimizer.schedule import schedule
from repro.sqlq.ast import TempTable

#: Node kinds that may participate in merging (AST-rendered queries).
MERGEABLE_KINDS = {"step", "condition", "merged"}

logger = logging.getLogger("repro.optimizer.merge")


@dataclass
class MergedNode(QueryNode):
    """A merged query: members execute as one statement at one source."""

    members: tuple[QueryNode, ...] = ()

    def __repr__(self) -> str:
        inner = "+".join(m.name for m in self.members)
        return f"MergedNode({inner}@{self.source})"


def _flatten(node: QueryNode) -> tuple[QueryNode, ...]:
    if isinstance(node, MergedNode):
        return node.members
    return (node,)


def merge_pair(graph: QueryDependencyGraph, first: str,
               second: str) -> QueryDependencyGraph:
    """The paper's ``mergePair(G, Q1, Q2)``: a new graph with one node
    replacing the two.  Consumers keep their original input names."""
    node_a, node_b = graph.nodes[first], graph.nodes[second]
    if node_a.source != node_b.source:
        raise PlanError("cannot merge queries on different sources")
    members = _flatten(node_a) + _flatten(node_b)
    member_names = {member.name for member in members}
    inputs: list[str] = []
    for member in members:
        for input_name in member.inputs:
            if graph.resolve(input_name) in (first, second):
                continue  # internal edge (inlining)
            if input_name not in inputs:
                inputs.append(input_name)
    merged = MergedNode(
        name=f"merge({'+'.join(sorted(member_names))})",
        source=node_a.source,
        kind="merged",
        inputs=tuple(inputs),
        output_columns=(),
        ship_to_mediator=any(member.ship_to_mediator for member in members),
        members=members,
    )
    new_graph = graph.clone()
    del new_graph.nodes[first]
    del new_graph.nodes[second]
    new_graph.aliases[first] = merged.name
    new_graph.aliases[second] = merged.name
    new_graph.add(merged)
    return new_graph


def expanded_references(members) -> int:
    """The CTE references a merged statement of ``members`` expands to:
    each member counted once per path from the final ``UNION ALL`` to it
    (the union reads each member once; a member reads another once per
    from-item naming it)."""
    names = {member.name for member in members}
    reads = {member.name: [item.producer for item in member.query.from_items
                           if isinstance(item, TempTable)
                           and item.producer in names]
             for member in members}
    paths: dict[str, int] = {}

    def count(name: str) -> int:
        if name not in paths:
            paths[name] = 1 + sum(count(reader)
                                  for reader, read in reads.items()
                                  for producer in read if producer == name)
        return paths[name]

    return sum(map(count, names))


def _expands_linearly(node: MergedNode) -> bool:
    """At most a chain's count, ``n(n+1)/2`` for ``n`` members."""
    n = len(node.members)
    return expanded_references(node.members) <= n * (n + 1) // 2


def _extend_estimates(graph: QueryDependencyGraph,
                      base: dict[str, NodeEstimate],
                      model: CostModel) -> dict[str, NodeEstimate]:
    """Per-member estimates plus entries for the merged nodes."""
    estimates = dict(base)
    for node in graph.nodes.values():
        if isinstance(node, MergedNode) and node.name not in estimates:
            estimates[node.name] = model.estimate_merged(node, estimates)
    return estimates


def merge(graph: QueryDependencyGraph, model: CostModel, network: Network,
          max_iterations: int | None = None, tracer=None
          ) -> tuple[QueryDependencyGraph, dict, float, dict[str, NodeEstimate]]:
    """Algorithm Merge: returns (graph, plan, cost, estimates).

    Follows Fig. 9: start from the scheduled cost of the input graph, then
    greedily apply the best beneficial pair merge until none helps (or
    ``max_iterations`` merges were applied).  ``tracer`` (see
    :mod:`repro.obs`) records the unmerged-vs-merged predicted costs so
    the merge savings are visible in the metrics export.
    """
    from repro.obs.tracer import NULL_TRACER
    tracer = NULL_TRACER if tracer is None else tracer
    base_estimates = model.estimate_graph(graph)
    estimates = base_estimates
    plan = schedule(graph, estimates, network)
    best_cost = plan_cost(graph, plan, estimates, network)
    unmerged_cost = best_cost
    iterations = 0
    while True:
        benefit = False
        best_candidate = None
        candidates = _mergeable_pairs(graph)
        for first, second in candidates:
            trial = merge_pair(graph, first, second)
            if (not _expands_linearly(trial.nodes[trial.resolve(first)])
                    or not trial.is_acyclic()):
                continue
            trial_estimates = _extend_estimates(trial, base_estimates, model)
            trial_plan = schedule(trial, trial_estimates, network)
            trial_cost = plan_cost(trial, trial_plan, trial_estimates,
                                   network)
            if trial_cost < best_cost - 1e-12:
                benefit = True
                best_cost = trial_cost
                best_candidate = (trial, trial_plan, trial_estimates)
        if not benefit or best_candidate is None:
            break
        graph, plan, estimates = best_candidate
        iterations += 1
        if max_iterations is not None and iterations >= max_iterations:
            break
    metrics = tracer.metrics
    metrics.set_gauge("optimizer_cost_unmerged_seconds", unmerged_cost)
    metrics.set_gauge("optimizer_cost_merged_seconds", best_cost)
    metrics.set_gauge("optimizer_merge_savings_seconds",
                      unmerged_cost - best_cost)
    metrics.set_gauge("optimizer_merge_iterations", iterations)
    logger.info("Algorithm Merge: %d merge(s), predicted cost "
                "%.3fs -> %.3fs", iterations, unmerged_cost, best_cost)
    return graph, plan, best_cost, estimates


def _mergeable_pairs(graph: QueryDependencyGraph
                     ) -> list[tuple[str, str]]:
    """Candidate same-source pairs (deterministic order)."""
    by_source: dict[str, list[str]] = {}
    for name, node in sorted(graph.nodes.items()):
        if node.kind in MERGEABLE_KINDS and node.source != MEDIATOR_NAME:
            by_source.setdefault(node.source, []).append(name)
    pairs: list[tuple[str, str]] = []
    for names in by_source.values():
        pairs.extend(itertools.combinations(names, 2))
    return pairs


def unmerged_plan(graph: QueryDependencyGraph, model: CostModel,
                  network: Network) -> tuple[dict, float,
                                             dict[str, NodeEstimate]]:
    """Schedule + cost without any merging (the Fig. 10 baseline)."""
    estimates = model.estimate_graph(graph)
    plan = schedule(graph, estimates, network)
    return plan, plan_cost(graph, plan, estimates, network), estimates

"""The optimization phase (Sections 5.1–5.4).

* :mod:`repro.optimizer.qdg` — set-oriented rewriting of every query site
  into the **query dependency graph** (a DAG of single-source queries plus
  mediator-site collection programs and guards), together with the tagging
  plan.
* :mod:`repro.optimizer.cost` — cardinality/size/evaluation-cost estimation
  (the sources' "costing API") and the paper's ``comp_time``/``cost(P)``
  plan-cost function.
* :mod:`repro.optimizer.schedule` — Algorithm *Schedule* (Fig. 8): ℓevel-
  priority list scheduling of queries onto their sources.
* :mod:`repro.optimizer.merge` — Algorithm *Merge* (Fig. 9): greedy
  cost-based pairwise merging of same-source queries (outer union / CTE
  inlining), re-scheduling after each candidate merge.
"""

from repro.optimizer.qdg import (
    QueryDependencyGraph,
    QueryNode,
    TaggingPlan,
    build_qdg,
)
from repro.optimizer.cost import CostModel, plan_cost
from repro.optimizer.schedule import ExecutionPlan, schedule
from repro.optimizer.merge import merge

__all__ = [
    "QueryDependencyGraph",
    "QueryNode",
    "TaggingPlan",
    "build_qdg",
    "CostModel",
    "plan_cost",
    "ExecutionPlan",
    "schedule",
    "merge",
]

#!/usr/bin/env python3
"""Statistics on demand change no plan: the check, and the cold-path table.

A fresh ``Middleware`` reads a statistic from its sources the first time the
planner or the cost model asks for it (``relational/statistics.py``).  The
values are the ones an eager scan reads, only later and fewer, so
``prepare()`` must return the same cost, plan and per-node estimates over
the on-demand catalog as over a snapshot of every statistic of the same
sources (``collect_stats`` -> ``set_stats``).  ``identical`` is that
comparison for any ``(aig, sources)``; ``tests/test_statistics_on_demand.py``
runs it on the benchmark's workloads and over the fuzz generator's specs.

Run as a script it prints, per in-process workload of ``benchmarks/e2e`` at
full size: the verdict, what a cold first document read from its sources
and what that cost, and the seconds of the three cold stages.

    python tools/plan_identity.py [--seed N]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from repro import Middleware, Network  # noqa: E402
from repro.relational import collect_stats  # noqa: E402


def signature(prepared) -> tuple:
    """What ``prepare()`` decided (a ``PreparedPlan``), in a form ``==``
    compares exactly.

    Reads every output column's distinct count, which a plan leaves unread
    where no join or ``DISTINCT`` consumes it: take ``stats.reads`` first.
    """
    return (prepared.depth, prepared.merged, prepared.cost,
            sorted(prepared.graph.nodes),
            {source: list(sequence)
             for source, sequence in prepared.plan.items()},
            {name: (estimate.cardinality, estimate.row_bytes,
                    estimate.eval_seconds, dict(estimate.distinct))
             for name, estimate in prepared.estimates.items()})


def eager_snapshot(middleware: Middleware) -> None:
    """Replace ``middleware``'s catalog answers by a full scan taken now."""
    for name, source in middleware.sources.items():
        for relation, stats in collect_stats(source).items():
            middleware.stats.set_stats(name, relation, stats)


def identical(aig, sources, depth=None, **config
              ) -> tuple[bool, Middleware, list]:
    """``prepare(depth)`` on demand == over an eager snapshot; also returns
    the on-demand middleware and what its ``prepare`` read, taken before
    the comparison's own reads."""
    asked = Middleware(aig, sources, **config)
    scanned = Middleware(aig, sources, **config)
    eager_snapshot(scanned)
    prepared = asked.prepare(depth)
    reads = [read[:4] for read in asked.stats.reads]
    same = signature(prepared) == signature(scanned.prepare(depth))
    return same and not scanned.stats.reads, asked, reads


def cases():
    """(label, scenario, middleware config) per in-process workload."""
    from workloads import SCENARIOS
    hospital = {"network": Network.mbps(1.0), "unfold_depth": "auto"}
    yield "hospital-daily", SCENARIOS["hospital-daily"], hospital
    yield ("hospital-daily unmerged", SCENARIOS["hospital-daily"],
           {**hospital, "merging": False})
    yield "groups-constraints", SCENARIOS["groups-constraints"], {}
    yield "catalog-stream", SCENARIOS["catalog-stream"], {}


def main() -> int:
    from workloads import close_sources, produce
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failures = 0
    for label, scenario, config in cases():
        aig = scenario.build_aig()
        sources = scenario.make_sources(args.seed, scenario.full)
        try:
            started = time.perf_counter()
            cold = Middleware(aig, sources, **config)
            built = time.perf_counter()
            depth = cold._initial_depth()
            cold.prepare(depth)
            prepared = time.perf_counter()
            produce(scenario, cold, dict(scenario.roots[0]))
            done = time.perf_counter()
            same, _, _ = identical(aig, sources, depth, **config)
            failures += not same
            reads = cold.stats.reads
            print(f"{label}: plan {'identical' if same else 'DIFFERS'} to the "
                  f"eager snapshot's; {len(reads)} statistic read(s), "
                  f"{sum(read[-1] for read in reads):.4f}s; cold: "
                  f"Middleware() {built - started:.4f}s, depth + prepare "
                  f"{prepared - built:.4f}s, first document "
                  f"{done - prepared:.4f}s")
            for line in cold.stats.describe_reads():
                print(" ", line)
        finally:
            close_sources(sources)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

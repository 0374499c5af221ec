"""Names, units, directions and bounds of everything the benchmark reports.

This module is the single table the runner, the noise self-check and the
``--smoke`` validation read; ``BENCHMARK.json`` at the repository root must
say the same (``run.py --smoke`` fails when the two drift apart).  Later
issues quote these names, so a rename here is an interface change.
"""

from __future__ import annotations

import re

#: Seconds one run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 15

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: name -> one-line reason the workload exists (which layer it stresses and
#: which it bypasses).
WORKLOADS = {
    "hospital-daily": (
        "Paper Example 1.1 / Figure 10 at Table-1 large: four sources, "
        "temp-table shipping, recursion unfolding and merged queries, so "
        "every layer does visible work."),
    "groups-constraints": (
        "4000 groups x 8 members under 4 keys + 3 inclusions: mediator "
        "shipping and guard SQL dominate and the source layer is nearly "
        "bypassed."),
    "catalog-stream": (
        "20000-product streamed document with no constraints and no "
        "mediator work: tagging + serialization only, so constraint or "
        "shipping changes must show no change here."),
    "service-mixed": (
        "repro serve over one HTTP connection, writes beside cache misses "
        "and Zipf hits: the only workload crossing HTTP, response cache, "
        "admission and the incremental path."),
}
IN_PROCESS = ("hospital-daily", "groups-constraints", "catalog-stream")

#: (name, unit, better, bound).  Every one is reported by every workload
#: with tracing off; ``bound`` is the share of the parent's median by which
#: the metric may worsen.  Seconds are reference-speed seconds
#: (``measure.Calibrator``).  The time-derived bounds are the contract's
#: maximum because it wants three times the spread: ten-seed spreads on this
#: box are 0.03-0.14 of the median after calibration (0.08-0.42 before).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cold_first_doc_s", "s", "lower", 0.25),
    ("doc_latency_p50_s", "s", "lower", 0.25),
    ("doc_cpu_p50_s", "s", "lower", 0.25),
    ("doc_mb_per_s", "MB/s", "higher", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better, kind).  ``kind`` keeps measured wall time apart
#: from exact-repeat counts and from *modelled* figures (the paper's
#: simulated clock and cost model).  A layer that does no work on a
#: workload has no row there: the driver line carries 0 and the table
#: prints ``n/a``.
PER_LAYER = (
    ("relational.stats_s", "s", "lower", "measured"),
    ("dtd.unfold_s", "s", "lower", "measured"),
    ("compilation.specialize_s", "s", "lower", "measured"),
    ("optimizer.build_qdg_s", "s", "lower", "measured"),
    ("optimizer.merge_schedule_s", "s", "lower", "measured"),
    ("optimizer.plan_nodes", "count", "lower", "count"),
    ("optimizer.predicted_cost_s", "s", "lower", "modelled"),
    ("engine.sim_response_s", "s", "lower", "modelled"),
    ("engine.bytes_shipped", "bytes", "lower", "count"),
    ("engine.queries_executed", "count", "lower", "count"),
    ("engine.run_s", "s", "lower", "measured"),
    ("engine.self_s", "s", "lower", "measured"),
    ("relational.query_s", "s", "lower", "measured"),
    ("relational.query_calls", "count", "lower", "count"),
    ("relational.rows_fetched", "count", "lower", "count"),
    ("relational.ship_s", "s", "lower", "measured"),
    ("relational.ship_rows", "count", "lower", "count"),
    ("relational.mediator_ship_s", "s", "lower", "measured"),
    ("relational.mediator_query_s", "s", "lower", "measured"),
    ("relational.mediator_calls", "count", "lower", "count"),
    ("tagging.build_s", "s", "lower", "measured"),
    ("tagging.stream_s", "s", "lower", "measured"),
    ("tagging.nodes", "count", "lower", "count"),
    ("xmlmodel.serialize_s", "s", "lower", "measured"),
    ("xmlmodel.stream_serialize_s", "s", "lower", "measured"),
    ("xmlmodel.bytes", "bytes", "lower", "count"),
    ("constraints.tree_check_s", "s", "lower", "measured"),
    ("constraints.stream_check_s", "s", "lower", "measured"),
    ("constraints.violations", "count", "lower", "count"),
    ("incremental.warm_replay_s", "s", "lower", "measured"),
    ("incremental.delta_s", "s", "lower", "measured"),
    ("sharding.wall_s", "s", "lower", "measured"),
    ("sharding.wall_speedup_x", "x", "higher", "measured"),
    ("sharding.ipc_bytes", "bytes", "lower", "count"),
    ("sharding.cpu_count", "count", "higher", "count"),
    ("service.hit_latency_p50_s", "s", "lower", "measured"),
    ("service.hit_latency_p99_s", "s", "lower", "measured"),
    ("service.write_latency_p50_s", "s", "lower", "measured"),
    ("service.cache_hit_ratio", "share", "higher", "count"),
    ("service.evaluations", "count", "lower", "count"),
    ("service.coalesced_requests", "count", "lower", "count"),
    ("service.server_cpu_s_per_miss", "s", "lower", "measured"),
    ("service.miss_overhead_x", "x", "lower", "measured"),
    ("trace.residual_share", "share", "lower", "measured"),
    ("trace.overhead_x", "x", "lower", "measured"),
)

END_TO_END_NAMES = tuple(row[0] for row in END_TO_END)
PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` must contain, built from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _ in PER_LAYER],
    }


def validate(declared: dict) -> list[str]:
    """Problems with a ``BENCHMARK.json`` payload (empty when it is within
    the contract's limits and agrees with this module)."""
    problems = []
    expected = benchmark_json()
    if declared != expected:
        for key in sorted(set(declared) | set(expected)):
            if declared.get(key) != expected.get(key):
                problems.append(f"BENCHMARK.json key {key!r} differs from "
                                f"benchmarks/e2e/definitions.py")
    names = ([w["name"] for w in expected["workloads"]]
             + list(END_TO_END_NAMES) + list(PER_LAYER_NAMES))
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for name, unit in UNITS.items():
        if not UNIT_RE.match(unit):
            problems.append(f"bad unit {unit!r} for {name}")
    if not 2 <= len(WORKLOADS) <= 8:
        problems.append("workload count outside 2..8")
    if not 1 <= len(END_TO_END) <= 16 or not 1 <= len(PER_LAYER) <= 128:
        problems.append("metric count outside the contract's limits")
    if "setup_s" not in END_TO_END_NAMES:
        problems.append("setup_s missing from end_to_end")
    for name, _, better, bound in END_TO_END:
        if better not in ("lower", "higher") or not 0 < bound <= 0.25:
            problems.append(f"bad direction or bound for {name}")
    for why in WORKLOADS.values():
        if len(why) > 200 or "\n" in why:
            problems.append("a workload's why is not one line of <= 200")
    if not 1 <= RUN_SECONDS <= 60:
        problems.append("run_seconds outside 1..60")
    return problems

"""Ablation D: static vs. dynamic scheduling (Section 5.5 / 7).

"Significant efficiency gains can accrue from using dynamic scheduling, in
which a runtime scheduler updates the query plans for each site in parallel
with evaluation."  This ablation runs σ0 with the compile-time static
schedule and with the runtime re-ranking scheduler (which replaces cost
estimates by actual output sizes after every completion), comparing
simulated response times.  On σ0's mostly-chain-shaped graphs the two
coincide unless the estimates are badly wrong, so a mis-estimated
statistics catalog is also measured — the case dynamic scheduling exists
for.
"""

import pytest

from repro.relational import Network, StatisticsCatalog, TableStats
from repro.runtime import Middleware, unfold_aig

from conftest import dataset_for, sources_for


def misleading_stats():
    """A statistics catalog that wildly misjudges every table."""
    stats = StatisticsCatalog()
    for source, table in [("DB1", "patient"), ("DB1", "visitInfo"),
                          ("DB2", "cover"), ("DB3", "billing"),
                          ("DB4", "treatment"), ("DB4", "procedure")]:
        stats.set_stats(source, table, TableStats(cardinality=10))
    return stats


def measure(hospital_aig, scheduling, stats=None):
    sources = sources_for("small")
    date = dataset_for("small").busiest_date()
    middleware = Middleware(unfold_aig(hospital_aig, 5), sources,
                            Network.mbps(1.0), scheduling=scheduling,
                            stats=stats)
    return middleware.evaluate({"date": date})


def test_dynamic_scheduling_ablation(benchmark, hospital_aig):
    from conftest import report

    def build():
        lines = ["Static vs dynamic scheduling (small dataset, unfolding 5)",
                 f"{'stats':>12s}{'static(s)':>11s}{'dynamic(s)':>12s}"
                 f"{'ratio':>8s}"]
        rows = []
        for label, stats in (("accurate", None),
                             ("misleading", misleading_stats())):
            static = measure(hospital_aig, "static", stats)
            dynamic = measure(hospital_aig, "dynamic", stats)
            assert static.document == dynamic.document
            rows.append((label, static.response_time,
                         dynamic.response_time))
            lines.append(f"{label:>12s}{static.response_time:11.2f}"
                         f"{dynamic.response_time:12.2f}"
                         f"{static.response_time / dynamic.response_time:8.2f}")
        return rows, "\n".join(lines)

    rows, text = benchmark.pedantic(build, rounds=1, iterations=1)
    report("dynamic_scheduling", "\n" + text)
    for _, static_time, dynamic_time in rows:
        # dynamic never hurts much (re-ranking is free on the sim clock)
        assert dynamic_time <= static_time * 1.10


@pytest.mark.parametrize("scheduling", ["static", "dynamic"])
def test_scheduling_mode(benchmark, hospital_aig, scheduling):
    response = benchmark.pedantic(
        lambda: measure(hospital_aig, scheduling).response_time,
        rounds=2, iterations=1)
    assert response > 0

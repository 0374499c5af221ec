"""Ablation B: bandwidth sensitivity of the merging gain.

The paper fixes 1 Mbps; here the Fig. 10 measurement is repeated at
0.1 / 1 / 10 / 100 Mbps (medium dataset, unfolding level 5).  Expected
shape: communication dominates at low bandwidth, so response times shrink as
bandwidth grows, while the merging gain — largely an evaluation-side and
per-query-overhead effect — persists and mildly grows as transfers stop
masking it.
"""

import pytest

from repro.relational import Network
from repro.runtime import Middleware, unfold_aig

from conftest import dataset_for, sources_for

BANDWIDTHS = [0.1, 1.0, 10.0, 100.0]
LEVEL = 5

_cache = {}


def measure(hospital_aig, mbps):
    if mbps not in _cache:
        sources = sources_for("medium")
        date = dataset_for("medium").busiest_date()
        times = {}
        for merging in (False, True):
            middleware = Middleware(unfold_aig(hospital_aig, LEVEL), sources,
                                    Network.mbps(mbps), merging=merging)
            report = middleware.evaluate({"date": date})
            times[merging] = report.response_time
        _cache[mbps] = times
    return _cache[mbps]


def test_bandwidth_sweep(benchmark, hospital_aig):
    from conftest import report

    def build():
        lines = ["Merging gain vs. bandwidth (medium dataset, unfolding 5)",
                 f"{'Mbps':>8s}{'no-merge(s)':>13s}{'merged(s)':>11s}"
                 f"{'ratio':>8s}"]
        rows = []
        for mbps in BANDWIDTHS:
            times = measure(hospital_aig, mbps)
            rows.append((times[False], times[True]))
            lines.append(f"{mbps:8.1f}{times[False]:13.2f}"
                         f"{times[True]:11.2f}"
                         f"{times[False] / times[True]:8.2f}")
        return rows, "\n".join(lines)

    rows, text = benchmark.pedantic(build, rounds=1, iterations=1)
    report("bandwidth_sweep", "\n" + text)
    for no_merge, merged in rows:
        assert no_merge / merged >= 0.99
    merged_times = [merged for _, merged in rows]
    assert all(b <= a * 1.0001
               for a, b in zip(merged_times, merged_times[1:]))


@pytest.mark.parametrize("mbps", [0.1, 100.0])
def test_sweep_point(benchmark, hospital_aig, mbps):
    sources = sources_for("medium")
    date = dataset_for("medium").busiest_date()

    def run():
        middleware = Middleware(unfold_aig(hospital_aig, LEVEL), sources,
                                Network.mbps(mbps), merging=True)
        return middleware.evaluate({"date": date}).response_time

    assert benchmark.pedantic(run, rounds=2, iterations=1) > 0

"""Cost-model sanity: estimated cost(P) vs. simulated response time.

The optimizer's decisions are only as good as its cost function, so this
bench checks that the estimates track reality: across scales, unfolding
levels, and merging settings, the estimated plan cost and the engine's
simulated response time must be positively correlated and of the same
order.  (Exact agreement is not expected — estimation uses coarse
System-R-style selectivities; what matters for Merge/Schedule is relative
ordering.)
"""

import pytest

from repro.relational import Network
from repro.runtime import Middleware, unfold_aig

from conftest import dataset_for, sources_for

CONFIGS = [(scale, level, merging)
           for scale in ("small", "medium")
           for level in (2, 5)
           for merging in (False, True)]


def test_cost_model_tracks_reality(benchmark, hospital_aig):
    from conftest import report

    def build():
        lines = ["Estimated cost(P) vs simulated response time",
                 f"{'config':>18s}{'estimate(s)':>13s}{'simulated(s)':>14s}"
                 f"{'est/sim':>9s}"]
        points = []
        for scale, level, merging in CONFIGS:
            sources = sources_for(scale)
            date = dataset_for(scale).busiest_date()
            middleware = Middleware(unfold_aig(hospital_aig, level), sources,
                                    Network.mbps(1.0), merging=merging)
            result = middleware.evaluate({"date": date})
            points.append((result.estimated_cost, result.response_time))
            label = f"{scale}/{level}/{'M' if merging else '-'}"
            lines.append(f"{label:>18s}{result.estimated_cost:13.2f}"
                         f"{result.response_time:14.2f}"
                         f"{result.estimated_cost / result.response_time:9.2f}")
        return points, "\n".join(lines)

    points, text = benchmark.pedantic(build, rounds=1, iterations=1)
    report("cost_model_accuracy", "\n" + text)
    # order-of-magnitude agreement on every point
    for estimate, simulated in points:
        assert 0.1 < estimate / simulated < 10.0
    # positive rank correlation (Spearman, computed by hand)
    estimates = [p[0] for p in points]
    simulateds = [p[1] for p in points]

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        result = [0] * len(values)
        for rank, index in enumerate(order):
            result[index] = rank
        return result

    rank_e, rank_s = ranks(estimates), ranks(simulateds)
    n = len(points)
    d_squared = sum((a - b) ** 2 for a, b in zip(rank_e, rank_s))
    spearman = 1 - 6 * d_squared / (n * (n * n - 1))
    assert spearman > 0.5, f"cost model uncorrelated: ρ={spearman:.2f}"

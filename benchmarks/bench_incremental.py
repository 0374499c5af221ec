"""Incremental re-evaluation benchmark: cold vs warm vs k%-delta.

The paper's scenario is a *daily* report over slowly-changing hospital
databases; most of the data is the same as yesterday's.  With
``Middleware(incremental=True)`` a re-evaluation replays version-stamped
cached node results and tags the document fresh from them, so the cost of a re-run scales with the size of the delta, not the size
of the data:

* **warm, no delta** — zero queries reach the sources (hard assertion)
  and the run must be at least 5x faster than cold on the small dataset;
* **10% delta** — one base table mutated; only the tainted cone of the
  QDG re-executes (asserted via the reused/tainted node metrics) and the
  document stays byte-identical to a from-scratch run over the mutated
  data.
"""

from repro.datagen import make_loaded_sources
from repro.hospital import build_hospital_aig
from repro.relational import Network
from repro.runtime import Middleware
from repro.xmlmodel import serialize

from conftest import BENCH_INCREMENTAL_JSON, record_json, report

SCALES = ("tiny", "small")
WARM_SPEEDUP_FLOOR = {"small": 5.0}


def _delta(sources):
    """Mutate ~10% of DB3.billing — the k%-delta of the bench."""
    sources["DB3"].execute(
        "UPDATE billing SET price = price + 1 WHERE rowid % 10 = 0")


def _run_scale(scale):
    # fresh, unshared sources: this bench mutates the data
    sources, dataset = make_loaded_sources(scale, seed=47)
    date = dataset.busiest_date()
    middleware = Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                            unfold_depth=8, incremental=True)
    cold = middleware.evaluate({"date": date})
    warm = middleware.evaluate({"date": date})
    _delta(sources)
    delta = middleware.evaluate({"date": date})
    # ground truth for the delta run: a cold evaluation over mutated data
    fresh = Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                       unfold_depth=8).evaluate({"date": date})
    return {"cold": cold, "warm": warm, "delta": delta, "fresh": fresh}


def test_incremental_cold_warm_delta(benchmark):
    def run_grid():
        return {scale: _run_scale(scale) for scale in SCALES}

    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    lines = ["Incremental re-evaluation: cold vs warm vs 10%-delta",
             f"{'scale':>8s}{'cold s':>10s}{'warm s':>10s}{'speedup':>9s}"
             f"{'delta s':>10s}{'delta q':>9s}{'cold q':>8s}"]
    payload = {}
    for scale, runs in grid.items():
        cold, warm, delta = runs["cold"], runs["warm"], runs["delta"]
        speedup = cold.measured_seconds / max(warm.measured_seconds, 1e-9)
        lines.append(
            f"{scale:>8s}{cold.measured_seconds:10.4f}"
            f"{warm.measured_seconds:10.4f}{speedup:9.1f}"
            f"{delta.measured_seconds:10.4f}{delta.queries_executed:9d}"
            f"{cold.queries_executed:8d}")
        payload[scale] = {
            "cold_wall_seconds": round(cold.measured_seconds, 4),
            "warm_wall_seconds": round(warm.measured_seconds, 4),
            "warm_speedup": round(speedup, 1),
            "warm_queries": warm.queries_executed,
            "cold_queries": cold.queries_executed,
            "delta_wall_seconds": round(delta.measured_seconds, 4),
            "delta_queries": delta.queries_executed,
            "delta_reused_nodes": delta.reused_nodes,
            "delta_tainted_nodes": delta.tainted_nodes,
            "node_count": cold.node_count,
        }
    text = "\n".join(lines)
    report("incremental", "\n" + text)
    record_json("incremental_cold_warm_delta", payload,
                path=BENCH_INCREMENTAL_JSON)

    for scale, runs in grid.items():
        cold, warm, delta = runs["cold"], runs["warm"], runs["delta"]
        # warm, no delta: nothing reaches the sources, output unchanged
        assert warm.queries_executed == 0, scale
        assert warm.reused_nodes == cold.node_count, scale
        assert serialize(warm.document) == serialize(cold.document), scale
        # 10% delta: only the tainted cone re-executes, answer still right
        assert 0 < delta.tainted_nodes < cold.node_count, scale
        assert delta.reused_nodes == \
            cold.node_count - delta.tainted_nodes, scale
        assert delta.queries_executed < cold.queries_executed, scale
        assert serialize(delta.document) == \
            serialize(runs["fresh"].document), scale
    for scale, floor in WARM_SPEEDUP_FLOOR.items():
        speedup = grid[scale]["cold"].measured_seconds \
            / max(grid[scale]["warm"].measured_seconds, 1e-9)
        assert speedup >= floor, (scale, speedup)

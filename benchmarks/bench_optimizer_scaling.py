"""Micro-benchmark: optimizer overhead is polynomial (Sections 5.3–5.4).

The paper bounds Algorithm Schedule by quadratic time and the whole
optimization (Merge) by O(n^5).  This bench times both on synthetic DAGs of
growing size and checks the growth stays polynomial (doubling n must not
blow past the O(n^5) envelope).
"""

import time

import pytest

from repro.optimizer import CostModel, merge, schedule
from repro.optimizer.cost import plan_cost
from repro.optimizer.qdg import QueryDependencyGraph, QueryNode
from repro.relational import Network, StatisticsCatalog
from repro.sqlq import parse_query

SOURCES = ["DB1", "DB2", "DB3", "DB4"]


def random_dag(n_nodes, fanin=2, seed=7):
    """A layered synthetic query DAG spread over four sources."""
    import random
    rng = random.Random(seed)
    graph = QueryDependencyGraph()
    names = []
    for index in range(n_nodes):
        source = SOURCES[index % len(SOURCES)]
        inputs = tuple(rng.sample(names, min(len(names), rng.randint(0, fanin))))
        query = parse_query(f"select t.a from {source}:t t")
        graph.add(QueryNode(name=f"q{index}", source=source, kind="step",
                            query=query, inputs=inputs,
                            output_columns=("a",),
                            ship_to_mediator=rng.random() < 0.5))
        names.append(f"q{index}")
    return graph


def test_optimizer_scaling(benchmark):
    from conftest import report
    network = Network.mbps(1.0)
    model = CostModel(StatisticsCatalog())

    def build():
        lines = ["Optimizer runtime vs. graph size",
                 f"{'n':>5s}{'Schedule(ms)':>14s}{'Merge(ms)':>12s}"
                 f"{'merged n':>10s}"]
        schedule_times = {}
        for n_nodes in (8, 16, 32):
            graph = random_dag(n_nodes)
            estimates = model.estimate_graph(graph)
            started = time.perf_counter()
            for _ in range(5):
                schedule(graph, estimates, network)
            schedule_ms = (time.perf_counter() - started) / 5 * 1000
            schedule_times[n_nodes] = schedule_ms
            started = time.perf_counter()
            merged_graph, _, _, _ = merge(graph, model, network,
                                          max_iterations=6)
            merge_ms = (time.perf_counter() - started) * 1000
            lines.append(f"{n_nodes:5d}{schedule_ms:14.2f}{merge_ms:12.1f}"
                         f"{len(merged_graph):10d}")
        return schedule_times, "\n".join(lines)

    schedule_times, text = benchmark.pedantic(build, rounds=1, iterations=1)
    report("optimizer_scaling", "\n" + text, wall=True)
    # quadratic envelope for Schedule: doubling n -> at most ~8x (slack 2x)
    assert schedule_times[32] < schedule_times[8] * 16 * 4 + 5.0


@pytest.mark.parametrize("n_nodes", [8, 24])
def test_schedule_kernel(benchmark, n_nodes):
    network = Network.mbps(1.0)
    model = CostModel(StatisticsCatalog())
    graph = random_dag(n_nodes)
    estimates = model.estimate_graph(graph)
    plan = benchmark(lambda: schedule(graph, estimates, network))
    assert plan_cost(graph, plan, estimates, network) > 0


def test_merge_kernel(benchmark):
    network = Network.mbps(1.0)
    model = CostModel(StatisticsCatalog())
    graph = random_dag(12)
    result = benchmark.pedantic(
        lambda: merge(graph, model, network, max_iterations=4),
        rounds=3, iterations=1)
    merged_graph, _, cost, _ = result
    assert cost > 0 and len(merged_graph) <= len(graph)

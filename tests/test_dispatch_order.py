"""The dispatch order as a property (``runtime/executor.py``): counts, not
clocks.

A run is one loop over ``dispatch_order(graph, plan)``.  On every plan the
repository produces — hospital merged and unmerged at depths 2-8, the three
in-process benchmark AIGs, 45 fuzz specs x {merged, unmerged} — that order
lists every node once, after all of its producers and in its source's
schedule order; the nodes are executed in exactly that order, on the
caller's thread, and the statements the sources receive follow it — collect
and guard nodes keep their slot but run in process and issue none; and a
plan the order cannot be built for is refused before any source sees a
statement.
"""

import re
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import PlanError
from repro.fuzz import build_scenario, generate_scenario
from repro.hospital import build_hospital_aig, make_sources
from repro.relational import Network
from repro.runtime import Middleware
from repro.runtime.engine import Engine
from repro.runtime.executor import dispatch_order
from tests.conftest import load_tiny_hospital

sys.path.insert(0, str(Path(__file__).resolve().parents[1]
                       / "benchmarks" / "e2e"))
from workloads import SCENARIOS, close_sources  # noqa: E402


def checked_order(graph, plan) -> list[str]:
    order = dispatch_order(graph, plan)
    assert sorted(order) == sorted(graph.nodes)          # every node, once
    position = {name: index for index, name in enumerate(order)}
    for name, node in graph.nodes.items():
        for producer in graph.producer_names(node):
            assert position[producer] < position[name], (producer, name)
    for source, sequence in plan.items():
        assert sorted(sequence, key=position.get) == sequence, source
    return order


def run_recorded(middleware, graph, plan, tagging_plan,
                 root) -> tuple[list, list]:
    """One engine run: the nodes in the order they were executed, and every
    statement a source's ``execute`` is handed, as ``(source, node being
    executed)``."""
    engine = Engine(graph, plan, middleware.sources, middleware.network,
                    mediator=middleware.mediator, tagging_plan=tagging_plan)
    received, current = [], []
    execute_node = engine._execute

    def noting(node, *args, **kwargs):
        current.append(node.name)
        return execute_node(node, *args, **kwargs)

    engine._execute = noting
    for source in engine.sources.values():
        def recording(sql, *args, _source=source,
                      _execute=source.execute, **kwargs):
            received.append((_source.name, current[-1]))
            return _execute(sql, *args, **kwargs)
        source.execute = recording
    try:
        engine.run(dict(root))
    finally:
        engine.cleanup()
        for source in engine.sources.values():
            del source.execute
    return current, received


def prepared_and_run(middleware, depth, root) -> list[str]:
    """The checked order of the plan at ``depth``, after a run that executed
    its nodes in it and whose statements arrived in it, each at its node's
    source — one per node, none for a node run in process."""
    prepared = middleware.prepare(depth)
    graph, plan, tagging_plan = (prepared.graph, prepared.plan,
                                 prepared.tagging_plan)
    order = checked_order(graph, plan)
    executed, received = run_recorded(middleware, graph, plan, tagging_plan,
                                      root)
    assert executed == order
    assert received == [(graph.nodes[name].source, name) for name in order
                        if not graph.nodes[name].in_process]
    return order


class TestOrderOnEveryPlan:
    @pytest.mark.parametrize("merging", [True, False],
                             ids=["merged", "unmerged"])
    def test_hospital_at_depths_2_to_8(self, merging):
        sources = make_sources()
        load_tiny_hospital(sources)
        middleware = Middleware(build_hospital_aig(), sources,
                                Network.mbps(1.0), merging=merging)
        sizes = [len(prepared_and_run(middleware, depth, {"date": "d1"}))
                 for depth in range(2, 9)]
        assert sizes == sorted(sizes) and sizes[0] >= 5

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_benchmark_workloads(self, name):
        scenario = SCENARIOS[name]
        sources = scenario.make_sources(1, scenario.smoke)
        try:
            middleware = scenario.middleware(scenario.build_aig(), sources)
            prepared_and_run(middleware, middleware._initial_depth(),
                             scenario.roots[0])
        finally:
            close_sources(sources)

    @pytest.mark.parametrize("seed", range(45))
    def test_fuzz_specs_merged_and_unmerged(self, seed):
        spec = generate_scenario(seed)
        for merging in (True, False):
            aig, sources = build_scenario(spec)
            try:
                middleware = Middleware(aig, sources, merging=merging,
                                        violation_mode="report")
                prepared_and_run(middleware, middleware._initial_depth(),
                                 spec.root_values)
            finally:
                close_sources(sources)


class TestOneThread:
    def test_thread_count_is_flat_across_evaluate(self):
        """Before, at every statement, and after: the same live threads —
        the run starts none (unmerged: 15 nodes over five sources, three of
        them collect and guard nodes run in process)."""
        sources = make_sources()
        load_tiny_hospital(sources)
        middleware = Middleware(build_hospital_aig(), sources,
                                Network.mbps(1.0), merging=False,
                                unfold_depth=8)
        during = []
        for source in (*sources.values(), middleware.mediator):
            def sampling(sql, *args, _execute=source.execute, **kwargs):
                during.append(threading.active_count())
                return _execute(sql, *args, **kwargs)
            source.execute = sampling
        before = threading.active_count()
        report = middleware.evaluate({"date": "d1"})
        in_process = [node for node in middleware.last_plan.graph.nodes.values()
                      if node.collections]
        assert len(in_process) == 3
        assert len(during) == report.queries_executed - 3 >= 12
        assert set(during) == {before}
        assert threading.active_count() == before


class TestRefusedBeforeTheFirstStatement:
    @pytest.fixture
    def prepared(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        middleware = Middleware(build_hospital_aig(), sources,
                                Network.mbps(1.0), merging=False)
        prepared = middleware.prepare(4)
        return (middleware, prepared.graph, prepared.plan,
                prepared.tagging_plan)

    def refused(self, prepared, plan, match):
        middleware, graph, _, tagging_plan = prepared
        engine = Engine(graph, plan, middleware.sources, middleware.network,
                        mediator=middleware.mediator,
                        tagging_plan=tagging_plan)
        tables = {name: source.table_names()
                  for name, source in engine.sources.items()}
        with pytest.raises(PlanError, match=match):
            engine.run({"date": "d1"})
        for name, source in engine.sources.items():
            assert source.total_queries == 0, name
            assert source.table_names() == tables[name], name   # no shipment

    def test_unscheduled_node(self, prepared):
        _, _, plan, _ = prepared
        self.refused(prepared, {}, "does not schedule")
        lane, sequence = next((lane, sequence)
                              for lane, sequence in plan.items()
                              if len(sequence) > 1)
        self.refused(prepared, {**plan, lane: sequence[:-1]},
                     re.escape(f"does not schedule node '{sequence[-1]}'"))

    def test_schedule_that_contradicts_an_edge(self, prepared):
        """The last source of the chain runs a consumer before its
        same-source producer: at the parent four sources had already
        answered when "execution stuck" surfaced."""
        _, graph, plan, _ = prepared
        order = dispatch_order(graph, plan)
        lane, producer, consumer = next(
            (graph.nodes[name].source, producer, name)
            for name in reversed(order)
            for producer in graph.producer_names(graph.nodes[name])
            if graph.nodes[producer].source == graph.nodes[name].source)
        assert order.index(producer) > 0        # earlier nodes would run
        swapped = list(plan[lane])
        first, second = swapped.index(producer), swapped.index(consumer)
        swapped[first], swapped[second] = swapped[second], swapped[first]
        self.refused(prepared, {**plan, lane: swapped},
                     "contradicts the dependency graph")

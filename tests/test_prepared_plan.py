"""A prepared plan is a value (``repro.runtime.prepared``).

``prepare_plan`` needs no ``Middleware``: over a fresh statistics catalog of
the same sources it decides what ``Middleware.prepare`` decides — the same
``explain_plan`` text and the same ``tools/plan_identity.signature`` — and
``Middleware.last_plan`` is the cached plan the last run executed.
"""

import dataclasses

import pytest

from repro.relational import Network, StatisticsCatalog
from repro.runtime import Middleware
from repro.runtime.prepared import PreparedPlan, explain_plan, prepare_plan
from tests.test_statistics_on_demand import plan_identity

from workloads import SCENARIOS, close_sources  # noqa: E402


@pytest.fixture(params=["hospital-daily", "groups-constraints"])
def world(request):
    scenario = SCENARIOS[request.param]
    sources = scenario.make_sources(1, scenario.smoke)
    yield scenario, sources
    close_sources(sources)


@pytest.mark.parametrize("merging", [True, False])
def test_prepare_plan_agrees_with_middleware(world, merging):
    scenario, sources = world
    network = Network.mbps(1.0)
    aig = scenario.build_aig()
    middleware = Middleware(aig, sources, network, merging=merging)
    depth = middleware._initial_depth()
    cached = middleware.prepare(depth)
    alone = prepare_plan(
        aig, StatisticsCatalog.from_sources(list(sources.values())),
        network, depth, merging=merging)
    assert isinstance(alone, PreparedPlan) and alone is not cached
    assert (alone.depth, alone.merged) == (depth, merging)
    assert explain_plan(alone, network) == explain_plan(cached, network)
    assert plan_identity.signature(alone) == \
        plan_identity.signature(cached)
    assert middleware.explain(depth).startswith(
        "\n".join(explain_plan(cached, network)) + "\n\n")


def test_a_prepared_plan_is_frozen_and_not_a_tuple(world):
    scenario, sources = world
    prepared = Middleware(scenario.build_aig(), sources).prepare(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prepared.cost = 0.0
    with pytest.raises(TypeError):
        graph, plan, tagging_plan, cost, estimates = prepared


def test_last_plan_is_the_plan_that_ran(world):
    scenario, sources = world
    middleware = Middleware(scenario.build_aig(), sources)
    assert middleware.last_plan is None
    report = middleware.evaluate(dict(scenario.roots[0]))
    assert middleware.last_plan is middleware.prepare(report.unfold_depth)
    assert middleware.last_plan.cost == report.estimated_cost
    assert len(middleware.last_plan.graph) == report.node_count

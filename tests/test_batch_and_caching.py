"""Tests for batch evaluation and plan caching on the middleware."""

import pytest

from repro.aig import ConceptualEvaluator
from repro.hospital import build_hospital_aig
from repro.datagen import make_loaded_sources
from repro.relational import Network
from repro.runtime import Middleware


@pytest.fixture(scope="module")
def world():
    sources, dataset = make_loaded_sources("tiny", seed=21)
    return build_hospital_aig(), sources, dataset


class TestPlanCaching:
    def test_prepare_is_cached(self, world):
        aig, sources, dataset = world
        middleware = Middleware(aig, sources, Network.mbps(1.0))
        first = middleware.prepare(4)
        second = middleware.prepare(4)
        assert first is second
        assert middleware.prepare(5) is not first

    def test_invalidate_plans(self, world):
        aig, sources, dataset = world
        middleware = Middleware(aig, sources, Network.mbps(1.0))
        first = middleware.prepare(4)
        middleware.invalidate_plans()
        assert middleware.prepare(4) is not first

    def test_second_evaluation_skips_optimization(self, world):
        aig, sources, dataset = world
        middleware = Middleware(aig, sources, Network.mbps(1.0),
                                unfold_depth=8)
        date = dataset.busiest_date()
        first = middleware.evaluate({"date": date})
        second = middleware.evaluate({"date": date})
        assert second.document == first.document
        # the cached plan makes the optimization step (near) free
        assert second.optimization_seconds < \
            max(first.optimization_seconds, 0.001) + 0.005


class TestBatchEvaluation:
    def test_batch_matches_individual(self, world):
        aig, sources, dataset = world
        dates = sorted({row[2] for row in dataset.visit_info})[:3]
        middleware = Middleware(aig, sources, Network.mbps(1.0),
                                unfold_depth=8)
        batch = middleware.evaluate_batch([{"date": d} for d in dates])
        for date, report in zip(dates, batch):
            individual = ConceptualEvaluator(
                aig, list(sources.values())).evaluate({"date": date})
            assert report.document == individual

    def test_batch_reports_independent(self, world):
        aig, sources, dataset = world
        date = dataset.busiest_date()
        middleware = Middleware(aig, sources, Network.mbps(1.0),
                                unfold_depth=8)
        reports = middleware.evaluate_batch([{"date": date},
                                             {"date": date}])
        assert reports[0].document == reports[1].document
        assert reports[0] is not reports[1]


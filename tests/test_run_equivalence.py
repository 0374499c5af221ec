"""Run equivalence: a run's document, violations and shipped byte count
equal a second run's and the conceptual evaluator's.

``response_time`` combines *measured* SQLite timings with the modeled
clock, so two runs of the very same configuration differ by measurement
noise; comparisons therefore use a small relative tolerance instead of
exact equality.  The dispatch order itself is pinned in
``tests/test_dispatch_order.py``.
"""

import pytest

from repro.aig import ConceptualEvaluator
from repro.datagen import make_loaded_sources
from repro.hospital import build_hospital_aig, make_sources
from repro.relational import DataSource, Network
from repro.relational.schema import SourceSchema, relation
from repro.runtime import Middleware
from repro.xmlmodel import serialize
from tests.conftest import load_tiny_hospital

SCALES = ("tiny", "small")
RESPONSE_TOLERANCE = 0.10   # generous: CI runners inflate measured evals


def _run(scale):
    aig = build_hospital_aig()
    sources, dataset = make_loaded_sources(scale)
    middleware = Middleware(aig, sources, Network.mbps(1.0),
                            unfold_depth="auto")
    return middleware.evaluate({"date": dataset.busiest_date()})


@pytest.fixture(scope="module")
def baselines():
    """Per-scale report + conceptual document."""
    results = {}
    for scale in SCALES:
        report = _run(scale)
        aig = build_hospital_aig()
        sources, dataset = make_loaded_sources(scale)
        conceptual = ConceptualEvaluator(
            aig, list(sources.values())).evaluate(
                {"date": dataset.busiest_date()})
        results[scale] = (report, conceptual)
    return results


class TestEquivalenceGrid:
    @pytest.mark.parametrize("scale", SCALES)
    def test_matches_sequential_and_conceptual(self, baselines, scale):
        baseline, conceptual = baselines[scale]
        report = _run(scale)
        assert serialize(report.document) == serialize(baseline.document)
        assert serialize(report.document) == serialize(conceptual)
        assert report.violations == baseline.violations == []
        assert report.bytes_shipped == baseline.bytes_shipped
        # The modeled clock is a function of per-source order and the
        # measurements; only the measured eval component wobbles.
        relative = abs(report.response_time - baseline.response_time) \
            / baseline.response_time
        assert relative < RESPONSE_TOLERANCE


class TestViolationEquivalence:
    def _sources_with_key_violation(self):
        sources = make_sources()
        sources["DB3"] = DataSource(SourceSchema(
            "DB3", (relation("billing", "trId", "price"),)))
        load_tiny_hospital(sources)
        sources["DB3"].load_rows("billing", [("t1", "777")])
        return sources

    def test_report_mode_violations_identical(self, hospital_aig):
        reports = []
        for _ in range(2):
            middleware = Middleware(hospital_aig,
                                    self._sources_with_key_violation(),
                                    Network.mbps(1.0),
                                    violation_mode="report")
            reports.append(middleware.evaluate({"date": "d1"}))
        first, second = reports
        assert len(first.violations) >= 1
        assert [str(v) for v in second.violations] == \
            [str(v) for v in first.violations]
        assert serialize(second.document) == serialize(first.document)

    def test_abort_mode_aborts(self, hospital_aig):
        from repro.errors import EvaluationAborted
        middleware = Middleware(hospital_aig,
                                self._sources_with_key_violation(),
                                Network.mbps(1.0))
        with pytest.raises(EvaluationAborted):
            middleware.evaluate({"date": "d1"})

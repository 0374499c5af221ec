"""Tests for the paper's extension / future-work features:

* data-driven recursion-depth estimation (Section 7),
* composite (multi-field) keys and inclusion constraints (Section 2's
  "the same framework can be used to handle constraints in XML Schema"),
* the conceptual evaluator's violation report mode (the hook Section 3.3
  leaves for repairing); the middleware refuses instead.
"""

import pytest

from repro.errors import ConstraintError, EvaluationAborted, EvaluationError
from repro.aig import ConceptualEvaluator
from repro.constraints import (
    InclusionConstraint,
    Key,
    check_constraint,
    foreign_key,
)
from repro.datagen import make_loaded_sources
from repro.hospital import build_hospital_aig, make_sources
from repro.relational import DataSource, Network, SourceSchema
from repro.relational.schema import relation
from repro.runtime import Middleware
from repro.runtime.recursion import estimate_recursion_depth
from repro.xmlmodel import conforms_to, element
from tests.conftest import load_tiny_hospital


class TestDepthEstimation:
    def test_estimates_tiny_chain(self, hospital_aig):
        sources, _ = make_loaded_sources("tiny", seed=11)
        estimated = estimate_recursion_depth(hospital_aig, sources)
        assert estimated is not None and estimated >= 2

    def test_estimate_is_sufficient(self, hospital_aig):
        """The estimated depth never triggers runtime re-unrolling."""
        sources, dataset = make_loaded_sources("tiny", seed=11)
        middleware = Middleware(hospital_aig, sources, Network.mbps(1.0),
                                unfold_depth="auto")
        report = middleware.evaluate({"date": dataset.busiest_date()})
        estimated = estimate_recursion_depth(hospital_aig, sources)
        assert report.unfold_depth == estimated

    def test_empty_procedure_gives_minimal_depth(self, hospital_aig):
        sources = make_sources()
        load_tiny_hospital(sources, with_recursion=False)
        estimated = estimate_recursion_depth(hospital_aig, sources)
        # longest chain is a single treatment level (+ safety margin)
        assert estimated <= 3

    def test_cycle_detected(self, hospital_aig):
        sources = make_sources()
        load_tiny_hospital(sources, with_recursion=False)
        sources["DB4"].load_rows("procedure", [("t1", "t3"), ("t3", "t1")])
        estimated = estimate_recursion_depth(hospital_aig, sources,
                                             max_depth=16)
        assert estimated == 16

    def test_non_recursive_aig_estimates_zero(self):
        from repro.dtd import parse_dtd
        from repro.relational import Catalog
        from repro.aig import AIG, query
        catalog = Catalog([SourceSchema("DB", (relation("t", "val"),))])
        aig = AIG(parse_dtd("<!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)>"),
                  catalog)
        aig.inh("b", "val")
        aig.rule("a", inh={"b": query("select t.val from DB:t t")})
        source = DataSource(catalog.source("DB"))
        assert estimate_recursion_depth(aig, {"DB": source}) == 0

    def test_auto_works_end_to_end(self, hospital_aig):
        sources, dataset = make_loaded_sources("tiny", seed=2)
        date = dataset.busiest_date()
        auto = Middleware(hospital_aig, sources, Network.mbps(1.0),
                          unfold_depth="auto").evaluate({"date": date})
        manual = Middleware(hospital_aig, sources, Network.mbps(1.0),
                            unfold_depth=12).evaluate({"date": date})
        assert auto.document == manual.document


def composite_dtd_aig():
    """Items keyed by (trId, price) composite within each bill."""
    aig = build_hospital_aig(with_constraints=False)
    aig.key("patient", "item", ("trId", "price"))
    return aig


class TestCompositeConstraints:
    def test_model_normalization(self):
        key = Key("c", "a", "f")
        assert key.fields == ("f",) and key.field == "f"
        composite = Key("c", "a", ("f", "g"))
        assert composite.fields == ("f", "g")
        with pytest.raises(ConstraintError):
            composite.field  # noqa: B018

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ConstraintError):
            Key("c", "a", ("f", "f"))

    def test_ic_length_mismatch_rejected(self):
        with pytest.raises(ConstraintError):
            InclusionConstraint("c", "b", ("x", "y"), "a", ("z",))

    def test_foreign_key_composite(self):
        key, ic = foreign_key("c", "b", ("s1", "s2"), "a", ("t1", "t2"))
        assert key.fields == ("t1", "t2")
        assert ic.source_fields == ("s1", "s2")

    def test_checker_composite_key(self):
        key = Key("bill", "item", ("trId", "price"))
        same = element("bill",
                       element("item", element("trId", "a"),
                               element("price", "1")),
                       element("item", element("trId", "a"),
                               element("price", "1")))
        different = element("bill",
                            element("item", element("trId", "a"),
                                    element("price", "1")),
                            element("item", element("trId", "a"),
                                    element("price", "2")))
        assert check_constraint(same, key)
        assert not check_constraint(different, key)

    def test_compiled_composite_key_holds(self, tiny_sources):
        aig = composite_dtd_aig()
        evaluator = ConceptualEvaluator(
            __import__("repro.compilation", fromlist=["compile_constraints"])
            .compile_constraints(aig), list(tiny_sources.values()))
        tree = evaluator.evaluate({"date": "d1"})
        assert conforms_to(tree, aig.dtd)

    def test_compiled_composite_key_violated(self):
        # two billing rows with same trId AND price for a visited treatment
        from repro.compilation import compile_constraints
        from repro.errors import EvaluationAborted
        sources = make_sources()
        sources["DB3"] = DataSource(SourceSchema(
            "DB3", (relation("billing", "trId", "price"),)))
        load_tiny_hospital(sources)
        sources["DB3"].load_rows("billing", [("t1", "100")])  # exact dup
        aig = composite_dtd_aig()
        compiled = compile_constraints(aig)
        with pytest.raises(EvaluationAborted):
            ConceptualEvaluator(compiled,
                                list(sources.values())).evaluate({"date": "d1"})

    def test_composite_through_optimized_path(self, tiny_sources):
        aig = composite_dtd_aig()
        conceptual = ConceptualEvaluator(
            aig, list(tiny_sources.values())).evaluate({"date": "d1"})
        report = Middleware(aig, tiny_sources,
                            Network.mbps(1.0)).evaluate({"date": "d1"})
        assert report.document == conceptual


class TestReportMode:
    def make_violating_sources(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        sources["DB3"].execute_script("DELETE FROM billing WHERE trId='t4'")
        return sources

    def test_conceptual_report_mode(self, hospital_aig):
        from repro.compilation import compile_constraints
        sources = self.make_violating_sources()
        compiled = compile_constraints(hospital_aig)
        evaluator = ConceptualEvaluator(compiled, list(sources.values()),
                                        violation_mode="report")
        tree = evaluator.evaluate({"date": "d1"})
        assert conforms_to(tree, hospital_aig.dtd)
        assert evaluator.violations
        assert any("⊆" in str(v) for v in evaluator.violations)

    def test_middleware_report_mode(self, hospital_aig):
        """The middleware has no report mode: what the conceptual one
        lists is a refusal naming the same constraint, and the document
        derives, conforming, once the AIG declares no constraint."""
        sources = self.make_violating_sources()
        with pytest.raises(EvaluationAborted) as refused:
            Middleware(hospital_aig, sources, Network.mbps(1.0)).evaluate(
                {"date": "d1"})
        assert [str(v) for v in refused.value.violations] == [
            str(hospital_aig.constraints[1])]
        assert "⊆" in str(refused.value)
        report = Middleware(hospital_aig.without_constraints(), sources,
                            Network.mbps(1.0)).evaluate({"date": "d1"})
        assert conforms_to(report.document, hospital_aig.dtd)

    def test_clean_data_reports_nothing(self, hospital_aig, tiny_sources):
        report = Middleware(hospital_aig, tiny_sources,
                            Network.mbps(1.0)).evaluate({"date": "d1"})
        assert conforms_to(report.document, hospital_aig.dtd)

    def test_invalid_mode_rejected(self, hospital_aig, tiny_sources):
        with pytest.raises(EvaluationError):
            ConceptualEvaluator(hospital_aig, list(tiny_sources.values()),
                                violation_mode="fix-it")

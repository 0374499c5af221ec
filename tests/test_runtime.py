"""Tests for the optimized runtime: engine, tagging, middleware.

The central invariant: the optimized pipeline (specialize -> QDG -> merge ->
schedule -> execute -> tag) produces a document *identical* to the
conceptual evaluator's, with DTD conformance and constraint enforcement.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    EvaluationAborted,
    PlanError,
    RecursionDepthExceeded,
)
from repro.relational import DataSource, Network, SourceSchema
from repro.relational.schema import relation
from repro.aig import ConceptualEvaluator
from repro.constraints import check_constraints
from repro.hospital import build_hospital_aig, make_sources
from repro.obs import Tracer
from repro.runtime import Middleware
from repro.xmlmodel import conforms_to, serialize
from tests.conftest import load_tiny_hospital


def evaluate_both(aig, sources, root_inh, merging=True, depth=4):
    conceptual = ConceptualEvaluator(
        aig, list(sources.values())).evaluate(dict(root_inh))
    middleware = Middleware(aig, sources, Network.mbps(1.0),
                            merging=merging, unfold_depth=depth)
    report = middleware.evaluate(dict(root_inh))
    return conceptual, report


class TestPathEquivalence:
    def test_unmerged_equals_conceptual(self, hospital_aig, tiny_sources):
        conceptual, report = evaluate_both(hospital_aig, tiny_sources,
                                           {"date": "d1"}, merging=False)
        assert report.document == conceptual

    def test_merged_equals_conceptual(self, hospital_aig, tiny_sources):
        conceptual, report = evaluate_both(hospital_aig, tiny_sources,
                                           {"date": "d1"}, merging=True)
        assert report.document == conceptual

    def test_conforms_and_satisfies(self, hospital_aig, tiny_sources):
        _, report = evaluate_both(hospital_aig, tiny_sources, {"date": "d1"})
        assert conforms_to(report.document, hospital_aig.dtd)
        assert check_constraints(report.document,
                                 hospital_aig.constraints) == []

    def test_other_date(self, hospital_aig, tiny_sources):
        conceptual, report = evaluate_both(hospital_aig, tiny_sources,
                                           {"date": "d2"})
        assert report.document == conceptual

    def test_empty_database(self, hospital_aig):
        sources = make_sources()
        conceptual, report = evaluate_both(hospital_aig, sources,
                                           {"date": "d1"})
        assert report.document == conceptual
        assert report.document.tag == "report"

    @settings(deadline=None, max_examples=8)
    @given(visits=st.lists(
        st.tuples(st.sampled_from(["s1", "s2"]),
                  st.sampled_from(["t1", "t2", "t3"]),
                  st.sampled_from(["d1", "d2"])),
        max_size=8))
    def test_equivalence_over_random_visits(self, visits):
        aig = build_hospital_aig()
        sources = make_sources()
        sources["DB1"].load_rows("patient", [("s1", "Ann", "p1"),
                                             ("s2", "Bob", "p2")])
        sources["DB1"].load_rows("visitInfo", visits)
        sources["DB2"].load_rows("cover", [("p1", "t1"), ("p1", "t3"),
                                           ("p2", "t2")])
        sources["DB4"].load_rows("treatment", [("t1", "a"), ("t2", "b"),
                                               ("t3", "c"), ("t4", "d")])
        sources["DB4"].load_rows("procedure", [("t1", "t4")])
        sources["DB3"].load_rows("billing", [("t1", "1"), ("t2", "2"),
                                             ("t3", "3"), ("t4", "4")])
        conceptual, report = evaluate_both(aig, sources, {"date": "d1"})
        assert report.document == conceptual


class TestGuardsAtRuntime:
    def test_inclusion_violation_aborts(self, hospital_aig):
        sources = make_sources()
        load_tiny_hospital(sources)
        sources["DB3"].execute_script("DELETE FROM billing WHERE trId='t4'")
        middleware = Middleware(hospital_aig, sources, Network.mbps(1.0))
        with pytest.raises(EvaluationAborted):
            middleware.evaluate({"date": "d1"})

    def test_key_violation_aborts(self, hospital_aig):
        sources = make_sources()
        sources["DB3"] = DataSource(SourceSchema(
            "DB3", (relation("billing", "trId", "price"),)))
        load_tiny_hospital(sources)
        sources["DB3"].load_rows("billing", [("t1", "777")])
        middleware = Middleware(hospital_aig, sources, Network.mbps(1.0))
        with pytest.raises(EvaluationAborted):
            middleware.evaluate({"date": "d1"})

    def test_violation_in_unvisited_data_is_ignored(self, hospital_aig):
        # a missing billing row for a treatment nobody visits on d1
        sources = make_sources()
        load_tiny_hospital(sources)
        sources["DB3"].execute_script("DELETE FROM billing WHERE trId='t2'")
        middleware = Middleware(hospital_aig, sources, Network.mbps(1.0))
        report = middleware.evaluate({"date": "d2"})  # only s1/t9, no cover
        assert conforms_to(report.document, hospital_aig.dtd)


#: hospital ``tiny``, seed 3, with a treatment no bill item matches and a
#: duplicated bill item: on this date both constraints are violated, one
#: only below the first unfolding (depth 4 re-unrolls to 8)
TWO_VIOLATIONS_DATE = "2003-06-01"


def two_violations():
    from repro.datagen import make_loaded_sources
    sources, _ = make_loaded_sources("tiny", seed=3, violate_inclusion=True,
                                     violate_key=True)
    return sources


class TestOneRefusal:
    """Every guard of a run runs; a run where any fired ends in one
    refusal naming each violated constraint once, in guard order, raised
    once the unfolding has settled and before anything is tagged."""

    @pytest.mark.parametrize("incremental", [False, True])
    @pytest.mark.parametrize("merging", [True, False])
    def test_both_violated_constraints_are_named(self, merging, incremental):
        aig = build_hospital_aig()
        key, inclusion = aig.constraints
        sources = two_violations()
        middleware = Middleware(aig, sources, merging=merging,
                                incremental=incremental)
        with pytest.raises(EvaluationAborted) as refused:
            middleware.evaluate({"date": TWO_VIOLATIONS_DATE})
        assert refused.value.violations == [inclusion, key]
        # what the tree checker finds in the document itself
        document = Middleware(aig.without_constraints(), sources).evaluate(
            {"date": TWO_VIOLATIONS_DATE}).document
        assert {violation.constraint for violation in check_constraints(
            document, aig.constraints)} == {key, inclusion}
        # nothing was committed to the incremental store
        assert all(len(store) == 0
                   for store in middleware._result_caches.values())

    def test_the_refusal_comes_from_the_settled_depth(self):
        tracer = Tracer()
        middleware = Middleware(build_hospital_aig(), two_violations(),
                                tracer=tracer)
        written = []
        with pytest.raises(EvaluationAborted) as refused:
            middleware.evaluate_stream({"date": TWO_VIOLATIONS_DATE},
                                       written.append)
        assert written == []
        assert len(refused.value.violations) == 2
        spans = {span.span_id: span for span in tracer.spans}

        def depth_of(span):
            while span.name != "evaluate-stream":
                span = spans[span.parent_id]
            return span.attrs["depth"]

        # a guard fired at the truncated depth 4 too: that attempt was
        # repeated deeper, not refused
        fired = [depth_of(span) for span in tracer.spans_by_category("guard")
                 if "witness" in span.attrs]
        assert fired[0] == 4 and fired.count(8) == 2
        assert [depth_of(span) for span in tracer.spans
                if span.name == "evaluate-stream"] == [4, 8]


class TestRecursionHandling:
    def test_auto_extends_depth(self, hospital_aig, tiny_sources):
        middleware = Middleware(hospital_aig, tiny_sources,
                                Network.mbps(1.0), unfold_depth=1)
        report = middleware.evaluate({"date": "d1"})
        assert report.unfold_depth > 1
        conceptual = ConceptualEvaluator(
            hospital_aig, list(tiny_sources.values())).evaluate({"date": "d1"})
        assert report.document == conceptual

    def test_the_next_run_starts_at_the_depth_that_fit(self, hospital_aig,
                                                       tiny_sources):
        tracer = Tracer()
        middleware = Middleware(hospital_aig, tiny_sources,
                                Network.mbps(1.0), unfold_depth=1,
                                tracer=tracer)

        def reunrollings():
            return tracer.metrics.counter("recursion_reunrollings")

        first = middleware.evaluate({"date": "d1"})
        learned = reunrollings()
        assert learned > 0 and first.unfold_depth > 1
        # explain shows the depth the next run will use
        assert (f"recursion unfolded to depth {first.unfold_depth}"
                in middleware.explain())
        second = middleware.evaluate({"date": "d1"})
        assert reunrollings() == learned
        assert second.unfold_depth == first.unfold_depth
        fresh = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                           unfold_depth=1).evaluate({"date": "d1"})
        assert serialize(second.document) == serialize(fresh.document)
        # a write elsewhere keeps the depth ...
        tiny_sources["DB3"].load_rows("billing", [("t99", "9")])
        middleware.evaluate({"date": "d1"})
        assert reunrollings() == learned
        # ... one to a chain relation starts again at the estimate
        tiny_sources["DB4"].load_rows("treatment", [("t99", "z")])
        assert "recursion unfolded to depth 1" in middleware.explain()
        again = middleware.evaluate({"date": "d1"})
        assert reunrollings() == 2 * learned
        assert serialize(again.document) == serialize(fresh.document)

    def test_probe_federation_is_closed(self, hospital_aig, tiny_sources,
                                        monkeypatch):
        # The blocked-query probe federates the sources per call; on
        # backends without an attach URI that copies every base relation, so
        # each one must be closed when its probe returns.
        import sqlite3
        import repro.relational.source as source_module
        opened = []

        class Recording(source_module.Federation):
            def __init__(self, sources):
                super().__init__(sources)
                opened.append(self)

        monkeypatch.setattr(source_module, "Federation", Recording)
        middleware = Middleware(hospital_aig, tiny_sources,
                                Network.mbps(1.0), unfold_depth=1)
        assert middleware.evaluate({"date": "d1"}).unfold_depth > 1
        assert opened, "expected the re-unrolling probe to run"
        for federation in opened:
            with pytest.raises(sqlite3.ProgrammingError):
                federation.connection.execute("SELECT 1")

    def test_probe_federates_only_the_sources_its_query_reads(
            self, hospital_aig, monkeypatch):
        # Q3 reads DB4 (procedure, treatment): each of the two probes on
        # the way from depth 2 to 8 attaches DB4 alone, and attaching reads
        # nothing through a source, so every source runs its plan only.
        import repro.relational.source as source_module
        from repro.datagen import make_loaded_sources
        attached = []

        class Recording(source_module.Federation):
            def __init__(self, sources):
                attached.append(sorted(source.name for source in sources))
                super().__init__(sources)

        monkeypatch.setattr(source_module, "Federation", Recording)
        sources, dataset = make_loaded_sources("tiny")
        root = {"date": dataset.busiest_date()}
        fixed = Middleware(hospital_aig, sources, Network.mbps(1.0),
                           unfold_depth=8).evaluate(root)
        assert attached == []
        asked = {name: source.total_queries
                 for name, source in sources.items()}
        middleware = Middleware(hospital_aig, sources, Network.mbps(1.0),
                                unfold_depth=2)
        report = middleware.evaluate(root)
        assert report.unfold_depth == 8
        assert attached == [["DB4"], ["DB4"]]
        assert serialize(report.document) == serialize(fixed.document)
        plan_statements = {
            name: sum(len(middleware.prepare(depth).plan[name])
                      for depth in (2, 4, 8)) for name in sources}
        assert {name: source.total_queries - asked[name]
                for name, source in sources.items()} == plan_statements

    def test_depth_cap(self, hospital_aig):
        sources = make_sources()
        load_tiny_hospital(sources, with_recursion=False)
        sources["DB4"].load_rows("procedure", [("t1", "t3"), ("t3", "t1")])
        middleware = Middleware(hospital_aig, sources, Network.mbps(1.0),
                                unfold_depth=2, max_unfold_depth=8)
        with pytest.raises(RecursionDepthExceeded):
            middleware.evaluate({"date": "d1"})

    def test_sufficient_depth_no_retry(self, hospital_aig, tiny_sources):
        middleware = Middleware(hospital_aig, tiny_sources,
                                Network.mbps(1.0), unfold_depth=5)
        report = middleware.evaluate({"date": "d1"})
        assert report.unfold_depth == 5


class TestExecutionReport:
    def test_report_fields(self, hospital_aig, tiny_sources):
        middleware = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0))
        report = middleware.evaluate({"date": "d1"})
        assert report.response_time > 0
        assert report.estimated_cost > 0
        assert report.queries_executed >= report.node_count - 1
        assert report.bytes_shipped > 0
        assert report.merged

    def test_merging_reduces_nodes(self, hospital_aig, tiny_sources):
        no_merge = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                              merging=False, unfold_depth=4).evaluate(
                                  {"date": "d1"})
        merged = Middleware(hospital_aig, tiny_sources, Network.mbps(1.0),
                            merging=True, unfold_depth=4).evaluate(
                                {"date": "d1"})
        assert merged.node_count <= no_merge.node_count

    def test_faster_network_reduces_response(self, hospital_aig,
                                             tiny_sources):
        slow = Middleware(hospital_aig, tiny_sources, Network.mbps(0.5),
                          unfold_depth=3).evaluate({"date": "d1"})
        fast = Middleware(hospital_aig, tiny_sources, Network.mbps(100.0),
                          unfold_depth=3).evaluate({"date": "d1"})
        assert fast.response_time < slow.response_time


class TestChoiceInOptimizedPath:
    def test_choice_document_matches_conceptual(self):
        from tests.test_conceptual_evaluator import choice_fixture
        aig, source = choice_fixture()
        conceptual = ConceptualEvaluator(aig, [source]).evaluate({})
        middleware = Middleware(aig, {"DB": source}, Network.mbps(1.0))
        report = middleware.evaluate({})
        assert report.document == conceptual
        assert conforms_to(report.document, aig.dtd)

"""Tests for the conceptual (Section 3.2) evaluator."""

import pytest

from repro.errors import EvaluationError
from repro.dtd import parse_dtd
from repro.relational import Catalog, DataSource, SourceSchema
from repro.relational.schema import relation
from repro.aig import (
    AIG,
    ChoiceBranch,
    ConceptualEvaluator,
    assign,
    collect,
    inh,
    query,
    syn,
)
from repro.constraints import check_constraints
from repro.xmlmodel import conforms_to, element
from tests.conftest import load_tiny_hospital
from repro.datagen import make_loaded_sources
from repro.hospital import make_sources
from repro.runtime import Middleware


class TestHospitalEvaluation:
    def test_document_conforms(self, hospital_aig, tiny_sources):
        evaluator = ConceptualEvaluator(hospital_aig,
                                        list(tiny_sources.values()))
        tree = evaluator.evaluate({"date": "d1"})
        assert conforms_to(tree, hospital_aig.dtd)

    def test_document_satisfies_constraints(self, hospital_aig, tiny_sources):
        tree = ConceptualEvaluator(
            hospital_aig, list(tiny_sources.values())).evaluate({"date": "d1"})
        assert check_constraints(tree, hospital_aig.constraints) == []

    def test_patients_filtered_by_date(self, hospital_aig, tiny_sources):
        tree = ConceptualEvaluator(
            hospital_aig, list(tiny_sources.values())).evaluate({"date": "d2"})
        # only s1 visited on d2 (treatment t9, not covered -> no treatments)
        patients = tree.find_all("patient")
        assert [p.subelement_value("SSN") for p in patients] == ["s1"]
        assert patients[0].find("treatments").find_all("treatment") == []

    def test_recursive_expansion(self, hospital_aig, tiny_sources):
        tree = ConceptualEvaluator(
            hospital_aig, list(tiny_sources.values())).evaluate({"date": "d1"})
        ann = tree.find_all("patient")[0]
        top = ann.find("treatments").find("treatment")
        assert top.subelement_value("trId") == "t1"
        nested = top.find("procedure").find("treatment")
        assert nested.subelement_value("trId") == "t3"
        deeper = nested.find("procedure").find("treatment")
        assert deeper.subelement_value("trId") == "t4"
        assert deeper.find("procedure").find_all("treatment") == []

    def test_context_dependent_bill(self, hospital_aig, tiny_sources):
        """The bill collects exactly the trIds of the treatments subtree —
        the paper's headline context-dependent information flow."""
        tree = ConceptualEvaluator(
            hospital_aig, list(tiny_sources.values())).evaluate({"date": "d1"})
        ann = tree.find_all("patient")[0]
        treatment_ids = {node.subelement_value("trId")
                         for node in ann.find("treatments").iter("treatment")}
        item_ids = {item.subelement_value("trId")
                    for item in ann.find("bill").find_all("item")}
        assert treatment_ids == item_ids == {"t1", "t3", "t4"}

    def test_missing_root_member_rejected(self, hospital_aig, tiny_sources):
        evaluator = ConceptualEvaluator(hospital_aig,
                                        list(tiny_sources.values()))
        with pytest.raises(EvaluationError):
            evaluator.evaluate({})

    def test_stats_collected(self, hospital_aig, tiny_sources):
        evaluator = ConceptualEvaluator(hospital_aig,
                                        list(tiny_sources.values()))
        evaluator.evaluate({"date": "d1"})
        assert evaluator.stats.queries_executed > 0
        assert evaluator.stats.nodes_created > 10

    def test_per_tuple_path_issues_over_50x_the_optimized_queries(
            self, hospital_aig):
        """Why the middleware exists (Sections 3.2 vs 5.1): one query per
        node context against a fixed handful of set-oriented ones, for the
        same document (recorded on small: 4 258 vs 10)."""
        sources, dataset = make_loaded_sources("small")
        root = {"date": dataset.busiest_date()}
        evaluator = ConceptualEvaluator(hospital_aig, list(sources.values()))
        conceptual = evaluator.evaluate(root)
        report = Middleware(hospital_aig, sources,
                            unfold_depth="auto").evaluate(root)
        assert report.document == conceptual
        assert evaluator.stats.queries_executed \
            > 50 * report.queries_executed > 0

    def test_empty_database_gives_empty_report(self, hospital_aig):
        sources = make_sources()
        tree = ConceptualEvaluator(
            hospital_aig, list(sources.values())).evaluate({"date": "d1"})
        assert tree == element("report")

    def test_runaway_recursion_capped(self, hospital_aig):
        sources = make_sources()
        load_tiny_hospital(sources, with_recursion=False)
        # a procedure cycle: t1 requires t3 requires t1 ...
        sources["DB4"].load_rows("procedure", [("t1", "t3"), ("t3", "t1")])
        evaluator = ConceptualEvaluator(hospital_aig,
                                        list(sources.values()), max_depth=40)
        with pytest.raises(EvaluationError):
            evaluator.evaluate({"date": "d1"})


def choice_fixture():
    """An AIG with a data-driven choice production.

    Per Definition 3.1 case (3), a choice branch's ``f_i`` may only use
    ``Inh(A)`` (a query implies a set-typed ``Inh``), so the scalar detail is
    fetched by the star query and copied into the branch.
    """
    dtd = parse_dtd("""
        <!ELEMENT bank (account*)>
        <!ELEMENT account (holder, status)>
        <!ELEMENT status (active | closed)>
        <!ELEMENT active (#PCDATA)>
        <!ELEMENT closed (#PCDATA)>
        <!ELEMENT holder (#PCDATA)>
    """)
    catalog = Catalog([SourceSchema("DB", (
        relation("accounts", "name", "state", "detail"),
    ))])
    aig = AIG(dtd, catalog)
    aig.inh("account", "name", "state", "detail")
    aig.inh("status", "name", "detail")
    aig.rule("bank", inh={"account": query(
        "select a.name, a.state, a.detail from DB:accounts a")})
    aig.rule("account", inh={
        "holder": assign(val=inh("name")),
        "status": assign(name=inh("name"), detail=inh("detail")),
    })
    aig.rule("status",
             condition=query(
                 "select a.state as pick from DB:accounts a "
                 "where a.name = $name"),
             branches={
                 "active": ChoiceBranch(inh=assign(val=inh("detail"))),
                 "closed": ChoiceBranch(inh=assign(val=inh("detail"))),
             })
    aig.validate()
    source = DataSource(catalog.source("DB"))
    source.load_rows("accounts", [("ann", "1", "since-2001"),
                                  ("bob", "2", "since-1999")])
    return aig, source


class TestChoiceProductions:
    def test_branch_selection(self):
        aig, source = choice_fixture()
        tree = ConceptualEvaluator(aig, [source]).evaluate({})
        assert conforms_to(tree, aig.dtd)
        ann, bob = tree.find_all("account")
        assert ann.find("status").find("active").text_value() == "since-2001"
        assert bob.find("status").find("closed").text_value() == "since-1999"

    def test_out_of_range_selector(self):
        aig, source = choice_fixture()
        source.execute_script("UPDATE accounts SET state='9'")
        with pytest.raises(EvaluationError):
            ConceptualEvaluator(aig, [source]).evaluate({})

    def test_non_integer_selector(self):
        aig, source = choice_fixture()
        source.execute_script("UPDATE accounts SET state='yes'")
        with pytest.raises(EvaluationError):
            ConceptualEvaluator(aig, [source]).evaluate({})

    def test_branch_query_with_set_member(self):
        # The legal query-valued branch form: Inh(child) is one set member.
        dtd = parse_dtd("""
            <!ELEMENT a (b | c)>
            <!ELEMENT b (d*)>
            <!ELEMENT c EMPTY>
            <!ELEMENT d (#PCDATA)>
        """)
        catalog = Catalog([SourceSchema("DB", (
            relation("t", "v", "pick"),))])
        aig = AIG(dtd, catalog)
        aig.inh("b", sets={"vals": ("v",)})
        aig.inh("d", "val")
        aig.rule("a",
                 condition=query("select t.pick from DB:t t"),
                 branches={"b": ChoiceBranch(inh=query(
                     "select t.v from DB:t t"))})
        aig.rule("b", inh={"d": query("select t.v as val from DB:t t")})
        aig.validate()
        source = DataSource(catalog.source("DB"))
        source.load_rows("t", [("x", "1"), ("y", "1")])
        tree = ConceptualEvaluator(aig, [source]).evaluate({})
        assert conforms_to(tree, aig.dtd)
        assert len(tree.find("b").find_all("d")) == 2


class TestDeterminism:
    def test_same_inputs_same_document(self, hospital_aig, tiny_sources):
        first = ConceptualEvaluator(
            hospital_aig, list(tiny_sources.values())).evaluate({"date": "d1"})
        second = ConceptualEvaluator(
            hospital_aig, list(tiny_sources.values())).evaluate({"date": "d1"})
        assert first == second

    def test_star_children_canonically_ordered(self, hospital_aig,
                                               tiny_sources):
        tree = ConceptualEvaluator(
            hospital_aig, list(tiny_sources.values())).evaluate({"date": "d1"})
        ssns = [p.subelement_value("SSN") for p in tree.find_all("patient")]
        assert ssns == sorted(ssns)

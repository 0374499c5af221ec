"""Tests for specialization: constraint compilation, decomposition,
occurrence analysis (copy elimination), and AIG unfolding."""

import pytest

from repro.errors import CompilationError, EvaluationAborted
from repro.dtd import parse_dtd
from repro.dtd.analysis import recursive_types
from repro.relational import Catalog, DataSource, SourceSchema
from repro.relational.schema import relation
from repro.aig import AIG, ConceptualEvaluator, assign, inh, query
from repro.aig.guards import SubsetGuard, UniqueGuard
from repro.compilation import (
    OccurrenceTree,
    RootValue,
    TableColumn,
    compile_constraints,
    decompose_query_sites,
    specialize,
)
from repro.compilation.decompose import multi_source_sites, query_sites
from repro.constraints import check_constraints
from repro.hospital import make_sources
from repro.runtime import strip_unfolding, unfold_aig
from repro.xmlmodel import conforms_to
from tests.conftest import load_tiny_hospital


def anchor_chain_to(occurrence, group):
    """Tables to join from a (tabled) occurrence up to ``group``.

    Returns ``[occurrence, a1, a2, ...]`` where each subsequent element is
    the previous one's parent anchor, stopping when the parent anchor *is*
    ``group`` (exclusive).  Joining ``t_i.__parent = t_{i+1}.__id`` along
    the list maps each of the occurrence's rows to its ``group`` row.
    """
    assert occurrence.has_table
    chain = [occurrence]
    current = occurrence
    while True:
        if current.parent is None:
            raise CompilationError(
                f"{group.path} is not an ancestor of {occurrence.path}")
        up = current.parent.anchor
        if up is group:
            return chain
        if up.parent is None:
            raise CompilationError(
                f"{group.path} is not an ancestor of {occurrence.path}")
        chain.append(up)
        current = up


class TestConstraintCompilation:
    def test_guards_created(self, hospital_aig):
        compiled = compile_constraints(hospital_aig)
        guards = compiled.guards["patient"]
        kinds = {type(g) for g in guards}
        assert kinds == {UniqueGuard, SubsetGuard}

    def test_compiled_aig_still_validates(self, hospital_aig):
        compile_constraints(hospital_aig).validate()

    def test_members_added_only_where_relevant(self, hospital_aig):
        compiled = compile_constraints(hospital_aig)
        # the key on item.trId adds a bag member along the patient->bill->item
        # path but not to, e.g., tname
        assert any(m.startswith("__c0") for m in
                   compiled.syn_schema("bill").members)
        assert any(m.startswith("__c0") for m in
                   compiled.syn_schema("patient").members)
        assert not any(m.startswith("__c0") for m in
                       compiled.syn_schema("tname").members)

    def test_evaluation_unchanged_when_constraints_hold(
            self, hospital_aig, tiny_sources):
        plain = ConceptualEvaluator(
            hospital_aig, list(tiny_sources.values())).evaluate({"date": "d1"})
        compiled = compile_constraints(hospital_aig)
        guarded = ConceptualEvaluator(
            compiled, list(tiny_sources.values())).evaluate({"date": "d1"})
        assert plain == guarded

    def test_inclusion_violation_aborts(self, hospital_aig):
        sources = make_sources()
        load_tiny_hospital(sources)
        sources["DB3"].execute_script("DELETE FROM billing WHERE trId='t3'")
        compiled = compile_constraints(hospital_aig)
        with pytest.raises(EvaluationAborted) as excinfo:
            ConceptualEvaluator(compiled,
                                list(sources.values())).evaluate({"date": "d1"})
        assert "⊆" in str(excinfo.value)

    def test_key_violation_aborts(self, hospital_aig):
        sources = make_sources()
        sources["DB3"] = DataSource(SourceSchema(
            "DB3", (relation("billing", "trId", "price"),)))
        load_tiny_hospital(sources)
        sources["DB3"].load_rows("billing", [("t1", "999")])  # duplicate t1
        compiled = compile_constraints(hospital_aig)
        with pytest.raises(EvaluationAborted) as excinfo:
            ConceptualEvaluator(compiled,
                                list(sources.values())).evaluate({"date": "d1"})
        assert "->" in str(excinfo.value)

    def test_guard_agrees_with_direct_checker(self, hospital_aig):
        """Compiled guards abort exactly when the direct tree checker finds
        a violation on the would-be document."""
        sources = make_sources()
        load_tiny_hospital(sources)
        plain_doc = ConceptualEvaluator(
            hospital_aig, list(sources.values())).evaluate({"date": "d1"})
        assert check_constraints(plain_doc, hospital_aig.constraints) == []
        sources["DB3"].execute_script("DELETE FROM billing WHERE trId='t4'")
        bad_doc = ConceptualEvaluator(
            hospital_aig, list(sources.values())).evaluate({"date": "d1"})
        assert check_constraints(bad_doc, hospital_aig.constraints)
        compiled = compile_constraints(hospital_aig)
        with pytest.raises(EvaluationAborted):
            ConceptualEvaluator(compiled,
                                list(sources.values())).evaluate({"date": "d1"})

    def test_compiles_on_unfolded_aig(self, hospital_aig):
        unfolded = unfold_aig(hospital_aig, 3)
        compiled = compile_constraints(unfolded)
        compiled.validate()
        patient_types = [t for t in compiled.dtd.productions
                         if t.startswith("patient")]
        assert compiled.guards[patient_types[0]]


class TestDecomposition:
    def test_sites_enumerated(self, hospital_aig):
        sites = query_sites(hospital_aig)
        names = {site.name for site, _ in sites}
        assert "report.patient:star" in names
        assert "bill.item:star" in names

    def test_multi_source_sites(self, hospital_aig):
        multi = multi_source_sites(hospital_aig)
        assert [site.name for site in multi] == ["treatments.treatment:star"]

    def test_q2_three_states(self, hospital_aig):
        plans = decompose_query_sites(hospital_aig)
        site = next(s for s in plans if s.name == "treatments.treatment:star")
        steps = plans[site]
        assert len(steps) == 3
        assert [step.source for step in steps] == ["DB1", "DB2", "DB4"]

    def test_single_source_sites_one_step(self, hospital_aig):
        plans = decompose_query_sites(hospital_aig)
        for site, steps in plans.items():
            if site.name != "treatments.treatment:star":
                assert len(steps) == 1


class TestOccurrences:
    def make_tree(self, hospital_aig):
        spec = specialize(unfold_aig(hospital_aig, 2))
        return spec, spec.occurrences

    def test_requires_non_recursive(self, hospital_aig):
        spec = specialize(hospital_aig)
        assert spec.occurrences is None
        with pytest.raises(CompilationError):
            OccurrenceTree(compile_constraints(hospital_aig))

    def test_iterations_found(self, hospital_aig):
        spec, tree = self.make_tree(hospital_aig)
        iteration_types = {o.element_type.split("#")[0]
                           for o in tree.iterations}
        assert iteration_types == {"report", "patient", "item", "treatment"}

    def test_anchor_assignment(self, hospital_aig):
        spec, tree = self.make_tree(hospital_aig)
        root = tree.root
        patient = root.children[0]
        bill = patient.child("bill")
        assert patient.is_iteration
        assert bill.anchor is patient
        assert bill.child("item").anchor is bill.child("item")

    def test_scalar_copy_chain_resolution(self, hospital_aig):
        spec, tree = self.make_tree(hospital_aig)
        patient = tree.root.children[0]
        ssn_leaf = patient.child("SSN")
        provenance = tree.resolve_inh_scalar(ssn_leaf, "val")
        assert isinstance(provenance, TableColumn)
        assert provenance.occurrence is patient
        assert provenance.column == "SSN"

    def test_root_value_resolution(self, hospital_aig):
        spec, tree = self.make_tree(hospital_aig)
        root = tree.root
        provenance = tree.resolve_inh_scalar(root, "date")
        assert provenance == RootValue("date")

    def test_inh_collection_expansion(self, hospital_aig):
        spec, tree = self.make_tree(hospital_aig)
        patient = tree.root.children[0]
        bill = patient.child("bill")
        extractions = tree.expand_inh_collection(bill, "trIdS")
        # one extraction per unfolded treatment level
        assert len(extractions) == 2
        assert all(e.group is patient for e in extractions)
        sources = {e.source.element_type.split("#")[0] for e in extractions}
        assert sources == {"treatment"}

    def test_syn_collection_with_constraints(self, hospital_aig):
        spec, tree = self.make_tree(hospital_aig)
        patient = tree.root.children[0]
        key_member = next(m for m in
                          spec.aig.syn_schema(patient.element_type).members
                          if m.endswith("_key"))
        extractions = tree.expand_syn_collection(patient, key_member)
        # items contribute their trId values
        assert any(e.source.element_type == "item" for e in extractions)

    def test_anchor_chain(self, hospital_aig):
        spec, tree = self.make_tree(hospital_aig)
        patient = tree.root.children[0]
        deep = patient
        for step in ("treatments", "treatment", "procedure", "treatment"):
            deep = next(c for c in deep.children
                        if c.element_type.split("#")[0] == step)
        chain = anchor_chain_to(deep, patient)
        assert chain[0] is deep
        assert len(chain) == 2  # treatment#0, treatment#1

    def test_duplicate_child_types_rejected(self):
        dtd = parse_dtd("<!ELEMENT a (b, b)> <!ELEMENT b EMPTY>")
        catalog = Catalog([SourceSchema("DB", ())])
        aig = AIG(dtd, catalog)
        aig.rule("a", inh={})
        with pytest.raises(CompilationError):
            OccurrenceTree(aig)


class TestUnfoldAIG:
    def test_non_recursive_unchanged(self):
        dtd = parse_dtd("<!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)>")
        catalog = Catalog([SourceSchema("DB", (relation("t", "val"),))])
        aig = AIG(dtd, catalog)
        aig.inh("b", "val")
        aig.rule("a", inh={"b": query("select t.val from DB:t t")})
        assert unfold_aig(aig, 5) is aig

    def test_unfolded_validates_and_is_acyclic(self, hospital_aig):
        for depth in (1, 3, 6):
            unfolded = unfold_aig(hospital_aig, depth)
            unfolded.validate()
            assert not recursive_types(unfolded.dtd)

    def test_unfolded_equals_recursive_conceptually(self, hospital_aig,
                                                    tiny_sources):
        recursive_doc = ConceptualEvaluator(
            hospital_aig, list(tiny_sources.values())).evaluate({"date": "d1"})
        unfolded = unfold_aig(hospital_aig, 4)
        unfolded_doc = ConceptualEvaluator(
            unfolded, list(tiny_sources.values())).evaluate({"date": "d1"})
        strip_unfolding(unfolded_doc)
        assert unfolded_doc == recursive_doc

    def test_shallow_unfolding_truncates(self, hospital_aig, tiny_sources):
        # depth 1: nested procedures are cut off
        unfolded = unfold_aig(hospital_aig, 1)
        doc = ConceptualEvaluator(
            unfolded, list(tiny_sources.values())).evaluate({"date": "d1"})
        strip_unfolding(doc)
        top = doc.find_all("patient")[0].find("treatments").find("treatment")
        assert top.find("procedure").find_all("treatment") == []

    def test_strip_restores_dtd_conformance(self, hospital_aig, tiny_sources):
        unfolded = unfold_aig(hospital_aig, 3)
        doc = ConceptualEvaluator(
            unfolded, list(tiny_sources.values())).evaluate({"date": "d1"})
        strip_unfolding(doc)
        assert conforms_to(doc, hospital_aig.dtd)

    def test_unfold_after_specialize_rejected(self, hospital_aig):
        compiled = compile_constraints(hospital_aig)
        with pytest.raises(CompilationError):
            unfold_aig(compiled, 2)


class TestSpecialize:
    def test_full_pipeline(self, hospital_aig):
        spec = specialize(unfold_aig(hospital_aig, 2))
        assert spec.occurrences is not None
        assert spec.decompositions
        assert spec.guards

    def test_decompositions_cover_all_sites(self, hospital_aig):
        unfolded = unfold_aig(hospital_aig, 2)
        spec = specialize(unfolded)
        site_names = {site.name for site in spec.decompositions}
        # the two unfolded treatments-level queries decompose multi-source
        multi = [n for n in site_names if "treatments" in n]
        assert multi

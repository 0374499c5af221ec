"""Tests for Section 4's static analyses."""

import pytest

from repro.errors import SpecError
from repro.dtd import parse_dtd
from repro.relational import Catalog, SourceSchema
from repro.relational.schema import relation
from repro.aig import AIG, assign, inh, query, syn
from repro.analysis import (
    can_reach,
    can_terminate,
    classify_rules,
    divergent_cycles,
    is_copy_rule,
    may_diverge,
    must_reach,
    must_terminate,
)
from repro.analysis.satisfiability import is_satisfiable, output_constants
from repro.hospital import build_hospital_aig
from repro.sqlq import parse_query


def copy_rule_fraction(aig) -> float:
    """Share of rule sites that are CSRs."""
    sites = [flag for per_type in classify_rules(aig).values()
             for _, flag in per_type]
    return sum(sites) / len(sites) if sites else 0.0


def catalog():
    return Catalog([SourceSchema("DB", (
        relation("edge", "src", "dst"),
        relation("node", "id", "kind"),
    ))])


def recursive_aig(extra_where=""):
    """tree -> item*; item -> name, tree : a self-sustaining recursion
    unless extra_where makes the cycle query unsatisfiable."""
    dtd = parse_dtd("""
        <!ELEMENT tree (item*)>
        <!ELEMENT item (name, tree)>
        <!ELEMENT name (#PCDATA)>
    """)
    aig = AIG(dtd, catalog(), root_inh=("start",))
    aig.inh("item", "id")
    aig.inh("tree", "id")
    where = "where e.src = $id" + (" and " + extra_where if extra_where else "")
    aig.rule("tree", inh={"item": query(
        f"select e.dst as id from DB:edge e {where}")})
    aig.rule("item", inh={
        "name": assign(val=inh("id")),
        "tree": assign(id=inh("id")),
    })
    # root tree's query binds $id to $start? Root Inh has 'start', not 'id'.
    return aig


class TestSatisfiability:
    def test_plain_query_satisfiable(self):
        assert is_satisfiable(parse_query(
            "select e.dst from DB:edge e where e.src = $id"))

    def test_conflicting_constants(self):
        assert not is_satisfiable(parse_query(
            "select e.dst from DB:edge e "
            "where e.src = 'a' and e.src = 'b'"))

    def test_param_pinned_conflict(self):
        query_ast = parse_query(
            "select e.dst from DB:edge e where e.src = $id and e.src = 'a'")
        assert is_satisfiable(query_ast, {"id": "a"})
        assert not is_satisfiable(query_ast, {"id": "b"})

    def test_transitive_propagation(self):
        query_ast = parse_query(
            "select e.dst from DB:edge e, DB:node n "
            "where e.src = n.id and n.id = 'x' and e.src = 'y'")
        assert not is_satisfiable(query_ast)

    def test_inequality_always_satisfiable(self):
        assert is_satisfiable(parse_query(
            "select e.dst from DB:edge e where e.src > 'a' and e.src < 'b'"))

    def test_output_constants(self):
        forced = output_constants(parse_query(
            "select e.dst as id, 'k' as kind from DB:edge e "
            "where e.dst = 'leaf'"))
        assert forced == {"id": "leaf", "kind": "k"}


class TestTermination:
    def test_hospital_may_diverge(self):
        # σ0's treatment/procedure cycle is data-sustainable (a cyclic
        # procedure table drives it forever), so termination on *all*
        # instances fails — the middleware's depth cap exists for this.
        aig = build_hospital_aig(with_constraints=False)
        assert may_diverge(aig)
        assert not must_terminate(aig)
        assert can_terminate(aig)

    def test_non_recursive_always_terminates(self):
        dtd = parse_dtd("<!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)>")
        aig = AIG(dtd, catalog())
        aig.inh("b", "val")
        aig.rule("a", inh={"b": query("select n.id as val from DB:node n")})
        assert must_terminate(aig)
        assert not may_diverge(aig)

    def test_constant_killed_cycle_terminates(self):
        # The cycle query forces dst = 'leaf' but requires src = 'root':
        # after one round the parameters contradict, so every derivation is
        # finite — detected by symbolic constant propagation.
        aig = recursive_aig(extra_where="e.src = 'root' and e.dst = 'leaf'")
        assert must_terminate(aig)

    def test_unconstrained_cycle_may_diverge(self):
        aig = recursive_aig()
        assert may_diverge(aig)
        cycles = divergent_cycles(aig)
        assert any("tree" in cycle for cycle in cycles)

    def test_constraints_rejected(self):
        aig = build_hospital_aig(with_constraints=True)
        with pytest.raises(SpecError):
            must_terminate(aig)

    def test_sequence_only_cycle_never_terminates(self):
        dtd = parse_dtd("<!ELEMENT a (b)> <!ELEMENT b (a)>")
        aig = AIG(dtd, catalog())
        aig.rule("a", inh={})
        aig.rule("b", inh={})
        assert not can_terminate(aig)


class TestReachability:
    def test_hospital_all_reachable(self):
        aig = build_hospital_aig(with_constraints=False)
        for element_type in ("patient", "treatment", "procedure", "item"):
            assert can_reach(aig, element_type)

    def test_unsatisfiable_gate_blocks(self):
        dtd = parse_dtd("<!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)>")
        aig = AIG(dtd, catalog())
        aig.inh("b", "val")
        aig.rule("a", inh={"b": query(
            "select n.id as val from DB:node n "
            "where n.kind = 'x' and n.kind = 'y'")})
        assert not can_reach(aig, "b")

    def test_must_reach_sequence_chain(self):
        aig = build_hospital_aig(with_constraints=False)
        # report -> patient is a star edge: patients may be absent
        assert not must_reach(aig, "patient")
        # the root always exists
        assert must_reach(aig, "report")

    def test_must_reach_through_sequence(self):
        dtd = parse_dtd("""
            <!ELEMENT a (b, c)>
            <!ELEMENT b (#PCDATA)>
            <!ELEMENT c EMPTY>
        """)
        aig = AIG(dtd, catalog(), root_inh=("x",))
        aig.rule("a", inh={"b": assign(val=inh("x"))})
        assert must_reach(aig, "b") and must_reach(aig, "c")

    def test_must_reach_choice_requires_all_branches(self):
        dtd = parse_dtd("""
            <!ELEMENT a (b | c)>
            <!ELEMENT b (d)>
            <!ELEMENT c (d)>
            <!ELEMENT d EMPTY>
        """)
        from repro.aig import ChoiceBranch
        aig = AIG(dtd, catalog(), root_inh=("x",))
        aig.rule("a", condition=query("select n.kind from DB:node n"),
                 branches={"b": ChoiceBranch(), "c": ChoiceBranch()})
        aig.rule("b", inh={})
        aig.rule("c", inh={})
        assert must_reach(aig, "d")       # both branches contain d
        assert not must_reach(aig, "b")   # the choice may pick c

    def test_unknown_type_rejected(self):
        aig = build_hospital_aig(with_constraints=False)
        with pytest.raises(SpecError):
            can_reach(aig, "zzz")


class TestRuleClassification:
    def test_hospital_classification(self):
        aig = build_hospital_aig()
        classes = dict(classify_rules(aig))
        patient = dict(classes["patient"])
        assert patient["inh:SSN"] is True          # pure copy
        assert patient["inh:bill"] is True         # copies Syn(treatments)
        treatments = dict(classes["treatments"])
        assert treatments["inh:*"] is False        # iteration query: QSR
        assert treatments["syn"] is True           # ⊔ collect: CSR

    def test_singleton_union_not_copy(self):
        aig = build_hospital_aig()
        treatment = dict(classify_rules(aig)["treatment"])
        assert treatment["syn"] is False  # union with a singleton

    def test_copy_fraction_positive(self):
        fraction = copy_rule_fraction(build_hospital_aig())
        assert 0.3 < fraction < 1.0

    def test_query_func_never_copy(self):
        assert not is_copy_rule(query("select n.id from DB:node n"))

"""The AIG itself: ``σ : R -> D`` (Definition 3.1) plus a builder API.

An :class:`AIG` bundles a (simplified) DTD, a catalog of relational source
schemas, attribute schemas for every element type, one semantic rule per
production, and the XML constraints.  Specialized AIGs (the output of
pre-processing, Sections 3.3–3.4) are the same class with extra synthesized
members, guards, and possibly internal-state element types marked for
erasure.

Typical construction::

    aig = AIG(dtd, catalog, root_inh=("date",))
    aig.inh("patient", "date", "SSN", "pname", "policy")
    aig.syn("treatments", sets={"trIdS": ("trId",)})
    aig.rule("report", inh={"patient": query(Q1_TEXT)})
    aig.rule("patient", inh={
        "SSN": assign(val=inh("SSN")),
        ...
        "bill": assign(trIdS=syn("treatments", "trIdS")),
    })
    aig.key("patient", "item", "trId")
    aig.validate()
"""

from __future__ import annotations

import copy
from dataclasses import replace as dataclass_replace

from repro.errors import SpecError
from repro.dtd.model import (
    DTD,
    Choice,
    Empty,
    Name,
    PCDATA,
    Sequence,
    Star,
)
from repro.dtd.normalize import is_simple_dtd
from repro.relational.schema import Catalog
from repro.sqlq.analyze import resolve_unqualified, scalar_params, set_params
from repro.aig.attributes import AttrSchema, EMPTY_SCHEMA
from repro.aig.dependency import check_acyclic
from repro.aig.functions import (
    Assign,
    AttrRef,
    InhFunc,
    QueryFunc,
    SynFunc,
    assign,
    inh as inh_ref,
)
from repro.aig.guards import Guard
from repro.aig.rules import (
    ChoiceBranch,
    ChoiceRule,
    EmptyRule,
    PCDataRule,
    Rule,
    SequenceRule,
    StarRule,
)
from repro.constraints.model import Constraint, InclusionConstraint, Key


class AIG:
    """An attribute integration grammar from a catalog ``R`` to a DTD ``D``."""

    def __init__(self, dtd: DTD, catalog: Catalog,
                 root_inh: tuple[str, ...] = ()):
        if not is_simple_dtd(dtd):
            raise SpecError(
                "AIGs require a simplified DTD; run normalize_dtd() first")
        self.dtd = dtd
        self.catalog = catalog
        self.inh_schemas: dict[str, AttrSchema] = {}
        self.syn_schemas: dict[str, AttrSchema] = {}
        self.rules: dict[str, Rule] = {}
        self.constraints: list[Constraint] = []
        self.guards: dict[str, list[Guard]] = {}
        #: element types that are internal computation states (Section 3.4);
        #: erased from the final document by the tagging phase.
        self.internal_states: set[str] = set()
        self.inh_schemas[dtd.root] = AttrSchema(scalars=tuple(root_inh))
        self._apply_pcdata_defaults()

    # ------------------------------------------------------------------
    # defaults
    # ------------------------------------------------------------------
    def _apply_pcdata_defaults(self) -> None:
        """Every PCDATA element type defaults to Inh=(val), Syn=(val) with
        rule ``Inh(S).val = Inh(X).val; Syn(X).val = Inh(X).val`` — the
        paper's ``trId -> S`` pattern."""
        for element_type, model in self.dtd.productions.items():
            if isinstance(model, PCDATA):
                self.inh_schemas.setdefault(
                    element_type, AttrSchema(scalars=("val",)))
                self.syn_schemas.setdefault(
                    element_type, AttrSchema(scalars=("val",)))
                self.rules.setdefault(element_type, PCDataRule(
                    text=assign(__text__=inh_ref("val")),
                    syn=assign(val=inh_ref("val"))))

    # ------------------------------------------------------------------
    # attribute declarations
    # ------------------------------------------------------------------
    def inh(self, element_type: str, *scalars: str,
            sets: dict[str, tuple[str, ...]] | None = None,
            bags: dict[str, tuple[str, ...]] | None = None) -> "AIG":
        self._check_type(element_type)
        self.inh_schemas[element_type] = AttrSchema(
            tuple(scalars), dict(sets or {}), dict(bags or {}))
        return self

    def syn(self, element_type: str, *scalars: str,
            sets: dict[str, tuple[str, ...]] | None = None,
            bags: dict[str, tuple[str, ...]] | None = None) -> "AIG":
        self._check_type(element_type)
        self.syn_schemas[element_type] = AttrSchema(
            tuple(scalars), dict(sets or {}), dict(bags or {}))
        return self

    def inh_schema(self, element_type: str) -> AttrSchema:
        return self.inh_schemas.get(element_type, EMPTY_SCHEMA)

    def syn_schema(self, element_type: str) -> AttrSchema:
        return self.syn_schemas.get(element_type, EMPTY_SCHEMA)

    def _check_type(self, element_type: str) -> None:
        if element_type not in self.dtd:
            raise SpecError(f"unknown element type {element_type!r}")

    # ------------------------------------------------------------------
    # rule declarations
    # ------------------------------------------------------------------
    def rule(self, element_type: str,
             inh: dict[str, InhFunc] | None = None,
             syn: SynFunc | None = None,
             text: Assign | AttrRef | None = None,
             condition: QueryFunc | None = None,
             branches: dict[str, ChoiceBranch] | None = None) -> "AIG":
        """Declare ``rule(p)`` for the production of ``element_type``.

        The accepted keyword arguments depend on the production form; see the
        class docstring and :mod:`repro.aig.rules`.
        """
        self._check_type(element_type)
        model = self.dtd.production(element_type)
        syn = syn if syn is not None else assign()
        if isinstance(model, PCDATA):
            if text is None:
                raise SpecError(f"{element_type!r} -> S requires text=...")
            if isinstance(text, AttrRef):
                text = assign(__text__=text)
            built: Rule = PCDataRule(text=text, syn=syn)
        elif isinstance(model, Empty):
            if inh or text or condition or branches:
                raise SpecError(f"{element_type!r} -> EMPTY takes only syn=")
            built = EmptyRule(syn=syn)
        elif isinstance(model, Star):
            if not inh or list(inh) != [model.item.value]:
                raise SpecError(
                    f"{element_type!r} -> {model.item.value}* requires "
                    f"inh={{{model.item.value!r}: query(...)}}")
            child_function = inh[model.item.value]
            if not isinstance(child_function, QueryFunc):
                raise SpecError(
                    f"{element_type!r}: the star child's inherited attribute "
                    f"must be computed by a query (iteration)")
            built = StarRule(
                child_query=self._resolve(child_function, element_type),
                syn=syn)
        elif isinstance(model, Choice):
            if condition is None or branches is None:
                raise SpecError(
                    f"{element_type!r} is a choice production and requires "
                    f"condition= and branches=")
            alternatives = [item.value for item in model.items]
            for name in branches:
                if name not in alternatives:
                    raise SpecError(
                        f"{element_type!r}: branch {name!r} is not an "
                        f"alternative of the production")
            resolved_branches = tuple(
                (name, ChoiceBranch(
                    inh=self._resolve(branch.inh, element_type),
                    syn=branch.syn))
                for name, branch in branches.items())
            built = ChoiceRule(
                condition=self._resolve(condition, element_type),
                branches=resolved_branches)
        else:
            assert isinstance(model, Sequence)
            children = [item.value for item in model.items]
            inh = inh or {}
            for name in inh:
                if name not in children:
                    raise SpecError(
                        f"{element_type!r}: {name!r} is not a child of the "
                        f"production")
            resolved = tuple((name, self._resolve(function, element_type))
                             for name, function in inh.items())
            built = SequenceRule(inh=resolved, syn=syn)
        self.rules[element_type] = built
        return self

    def _resolve(self, function: InhFunc, owner: str) -> InhFunc:
        """Resolve unqualified columns and validate parameter bindings."""
        if not isinstance(function, QueryFunc):
            return function
        set_fields: dict[str, tuple[str, ...]] = {}
        parameters = (scalar_params(function.query)
                      | set_params(function.query))
        for param in parameters:
            ref = function.binding_for(param)
            schema = (self.inh_schema(owner) if ref.kind == "inh"
                      else self.syn_schema(ref.element))
            if schema.is_collection(ref.member):
                set_fields[param] = schema.collection_fields(ref.member)
        resolved = resolve_unqualified(function.query, self.catalog,
                                       set_param_fields=set_fields)
        return QueryFunc(resolved, function.bindings)

    def rule_for(self, element_type: str) -> Rule:
        """The rule of a production, defaulting where the paper's examples
        omit one (EMPTY productions and un-annotated sequences/stars have no
        sensible default query, so those still raise)."""
        if element_type in self.rules:
            return self.rules[element_type]
        model = self.dtd.production(element_type)
        if isinstance(model, Empty):
            return EmptyRule()
        if isinstance(model, Sequence):
            return SequenceRule(inh=())
        raise SpecError(f"no rule declared for element type {element_type!r}")

    # ------------------------------------------------------------------
    # constraints
    # ------------------------------------------------------------------
    def key(self, context: str, target: str, fields) -> "AIG":
        """Declare a key ``context(target.fields -> target)``; ``fields`` is
        a field name or a tuple of them (composite key)."""
        constraint = Key(context, target, fields)
        constraint.validate_against(self.dtd)
        self.constraints.append(constraint)
        return self

    def inclusion(self, context: str, source: str, source_fields,
                  target: str, target_fields) -> "AIG":
        """Declare ``context(source.source_fields ⊆ target.target_fields)``;
        either side may be a single field name or a tuple (composite)."""
        constraint = InclusionConstraint(context, source, source_fields,
                                         target, target_fields)
        constraint.validate_against(self.dtd)
        self.constraints.append(constraint)
        return self

    def add_guard(self, element_type: str, guard: Guard) -> "AIG":
        self._check_type(element_type)
        self.guards.setdefault(element_type, []).append(guard)
        return self

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> "AIG":
        """Full static validation: every production has a (possibly default)
        rule, dependency relations are acyclic, and all rules type-check.
        Returns self for chaining; raises :class:`SpecError` subclasses."""
        from repro.aig.typecheck import typecheck_aig
        from repro.dtd.analysis import reachable_types
        for element_type in sorted(reachable_types(self.dtd)):
            rule = self.rule_for(element_type)  # raises if missing
            model = self.dtd.production(element_type)
            if isinstance(model, Sequence) and isinstance(rule, SequenceRule):
                children = [item.value for item in model.items]
                check_acyclic(rule, children, element_type)
        typecheck_aig(self)
        return self

    def evaluation_order(self, element_type: str) -> list[str]:
        """Topological child order for a sequence production."""
        model = self.dtd.production(element_type)
        assert isinstance(model, Sequence)
        rule = self.rule_for(element_type)
        assert isinstance(rule, SequenceRule)
        children = [item.value for item in model.items]
        return check_acyclic(rule, children, element_type)

    # ------------------------------------------------------------------
    # copying (specialization transforms work on copies)
    # ------------------------------------------------------------------
    def clone(self) -> "AIG":
        duplicate = AIG.__new__(AIG)
        duplicate.dtd = self.dtd
        duplicate.catalog = self.catalog
        duplicate.inh_schemas = dict(self.inh_schemas)
        duplicate.syn_schemas = dict(self.syn_schemas)
        duplicate.rules = dict(self.rules)
        duplicate.constraints = list(self.constraints)
        duplicate.guards = {k: list(v) for k, v in self.guards.items()}
        duplicate.internal_states = set(self.internal_states)
        return duplicate

    def without_constraints(self) -> "AIG":
        """A clone declaring no constraint: it compiles no guard and
        derives the same documents (Section 3.3), violating ones too."""
        duplicate = self.clone()
        duplicate.constraints = []
        return duplicate

    def __repr__(self) -> str:
        return (f"AIG(root={self.dtd.root!r}, "
                f"{len(self.dtd.productions)} element types, "
                f"{len(self.constraints)} constraints)")

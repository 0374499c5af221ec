"""Query-dependency-graph construction (Section 5.1).

The builder walks the occurrence tree of a specialized, non-recursive AIG
and turns every query site into *set-oriented*, single-source queries:

* Each **iteration occurrence** (root-level star children, nested stars,
  query-valued inherited attributes) gets a chain of plan-step nodes.  The
  per-tuple parameterized query ``Q(v)`` is rewritten to join the cached
  table of its anchor ancestor once (``Q(T_patient)`` in the paper), its
  scalar parameters replaced — via copy-chain resolution, i.e. copy
  elimination — by columns of the originating tables, and a ``__parent``
  column (the paper's path encoding) is projected through so every output
  row knows which ancestor row it belongs to.  A parameter the producing
  query only projects (hospital Q1's ``$date as date``) is chased on to
  its origin, so a root value stays a parameter and a constant a literal.
  A query that then reads nothing of its anchor runs once at its source,
  and a mediator *product* node pairs each of its rows with every anchor
  row.  Multi-source rewritten queries are decomposed by the left-deep
  planner into single-source steps.

* Each **collection** compiles to a :class:`CollectionProgram`: per
  extraction of the relevant occurrence tables, a :class:`Branch` that
  climbs ``__parent`` → ``__id`` to the ``__group`` ancestor row, passes the
  choice gates and picks its fields.  The engine runs programs in process
  over the result sets it holds (:mod:`repro.runtime.collect`).  One that a
  query reads as a set parameter becomes a mediator-site *collect* node;
  one that a guard checks has that single reader and belongs to the guard.

* Each **choice production occurrence** gets a *condition* node computing
  the branch selector per anchor row.

* Each **guard** becomes a mediator-site node over the step / condition
  tables its collections read, whose violation aborts evaluation
  (``unique``: a duplicate ``(group, values…)`` tuple; ``subset``: a left
  tuple missing on the right).

The result is a DAG over named nodes — "the DAG structure reflects the fact
that an AIG generally specifies sharing of a query output among multiple
further queries" — plus the :class:`TaggingPlan` the tree-construction phase
consumes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

from repro.errors import CompilationError, PlanError
from repro.dtd.model import Choice, PCDATA, Sequence, Star
from repro.relational.source import MEDIATOR_NAME
from repro.relational.statistics import StatisticsCatalog
from repro.sqlq.analyze import scalar_params, set_params, temp_inputs
from repro.sqlq.ast import (
    ColumnRef,
    Comparison,
    InSet,
    Literal,
    Param,
    Query,
    SelectItem,
    SetParamTable,
    TempTable,
)
from repro.sqlq.planner import plan_steps
from repro.aig.functions import AttrRef, Const, QueryFunc
from repro.aig.guards import SubsetGuard, UniqueGuard
from repro.aig.rules import ChoiceRule, PCDataRule, StarRule, SequenceRule
from repro.compilation.occurrences import (
    ConstValue,
    Extraction,
    Occurrence,
    OccurrenceTree,
    Provenance,
    RootValue,
    TableColumn,
)
from repro.compilation.specialize import SpecializedAIG

#: Alias of the anchor-context table joined into rewritten queries.
CONTEXT_ALIAS = "__ctx"


@dataclass(frozen=True)
class Branch:
    """One extraction of a collection, as the engine runs it.

    Rows come from the table ``table`` (``None``: the one row of the
    root).  Level 0 is that row; level *k* is the row its ``__parent``
    names in ``climb[k-1]``, the tables of its ancestor anchors in climbing
    order.  A row whose parent is missing is dropped, as an inner join
    drops it.  ``group`` is where the ``__group`` id is read: ``(level,
    column)``, or ``None`` under the root (id 0).  Each gate
    ``(condition table, selector column, branch index, level)`` keeps a row
    once per condition row that picked the branch for the level's ``__id``
    (``level`` ``None``: the root's condition, with no ``__parent``).  Per
    field, ``values`` holds ``("column", level, name)``, ``("root",
    member)`` or ``("const", value)``.
    """

    table: str | None
    climb: tuple[str, ...]
    group: tuple[int, str] | None
    gates: tuple[tuple[str, str, int, int | None], ...]
    values: tuple[tuple, ...]


@dataclass(frozen=True)
class CollectionProgram:
    """A collection: the bag of its branches' rows, each ``(values…,
    __group)``; ``distinct`` for a set member."""

    fields: tuple[str, ...]
    branches: tuple[Branch, ...]
    distinct: bool

    def root_members(self) -> list[str]:
        """The root attributes the program reads, sorted."""
        return sorted({value[1] for branch in self.branches
                       for value in branch.values if value[0] == "root"})


@dataclass
class QueryNode:
    """One node of the query dependency graph."""

    name: str
    source: str                      # executing source ("Mediator" allowed)
    #: 'step' | 'condition' | 'product' | 'collect' | 'guard'
    kind: str
    query: Query | None = None       # AST payload (step/condition nodes)
    #: collect nodes: their one program; guards: the bag (``unique``) or
    #: the left and right sides (``subset``) — all run in process
    collections: tuple[CollectionProgram, ...] = ()
    #: producer node names; a product node's are (query, anchor table)
    inputs: tuple[str, ...] = ()
    output_columns: tuple[str, ...] = ()
    ship_to_mediator: bool = False   # needed by the tagging phase
    root_params: dict[str, str] = field(default_factory=dict)
    guard = None                     # set on guard nodes

    @property
    def in_process(self) -> bool:
        """A collect, guard or product node: run in Python over the result
        sets the engine holds, no statement issued."""
        return bool(self.collections) or self.kind == "product"

    def __repr__(self) -> str:
        return f"QueryNode({self.name!r}@{self.source}, {self.kind})"


class QueryDependencyGraph:
    """A DAG of :class:`QueryNode`\\ s.

    Query merging replaces two nodes by one; ``aliases`` maps absorbed node
    names to the merged node so that consumer ``inputs`` (which keep the
    original producer names — they identify the *slice* of the merged output
    a consumer reads) still resolve.
    """

    def __init__(self):
        self.nodes: dict[str, QueryNode] = {}
        self.aliases: dict[str, str] = {}
        #: scalar parameters bound as a root parameter or a literal where
        #: the producing query only projected them (see ``_Builder._chase``)
        self.propagated = 0

    def add(self, node: QueryNode) -> QueryNode:
        if node.name in self.nodes:
            raise PlanError(f"duplicate QDG node {node.name!r}")
        self.nodes[node.name] = node
        return node

    def resolve(self, name: str) -> str:
        while name in self.aliases:
            name = self.aliases[name]
        return name

    def node_for(self, name: str) -> QueryNode:
        return self.nodes[self.resolve(name)]

    def producer_names(self, node: QueryNode) -> list[str]:
        """Resolved, deduplicated producer node names (self-edges dropped)."""
        seen: list[str] = []
        for name in node.inputs:
            resolved = self.resolve(name)
            if resolved != node.name and resolved not in seen:
                seen.append(resolved)
        return seen

    def consumers(self, name: str) -> list[QueryNode]:
        return [node for node in self.nodes.values()
                if name in self.producer_names(node)]

    def topological_order(self) -> list[QueryNode]:
        """Nodes in dependency order; raises :class:`PlanError` on cycles."""
        indegree = {name: 0 for name in self.nodes}
        consumers: dict[str, list[str]] = {name: [] for name in self.nodes}
        for node in self.nodes.values():
            for producer in self.producer_names(node):
                indegree[node.name] += 1
                consumers[producer].append(node.name)
        ready = [name for name, degree in indegree.items() if degree == 0]
        heapq.heapify(ready)
        ordered: list[QueryNode] = []
        while ready:
            current = heapq.heappop(ready)
            ordered.append(self.nodes[current])
            for consumer in consumers[current]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    heapq.heappush(ready, consumer)
        if len(ordered) != len(self.nodes):
            raise PlanError("query dependency graph is cyclic")
        return ordered

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except PlanError:
            return False

    def taint_cone(self, seeds) -> set[str]:
        """The downstream closure of ``seeds``: the seeds plus every
        transitive consumer, as resolved node names.

        This is the set of nodes whose output can change when the seeds'
        outputs change — the part of the plan incremental re-evaluation
        must re-execute (everything else can reuse cached results; see
        docs/INCREMENTAL.md).
        """
        consumers: dict[str, list[str]] = {name: [] for name in self.nodes}
        for node in self.nodes.values():
            for producer in self.producer_names(node):
                consumers[producer].append(node.name)
        tainted = {self.resolve(seed) for seed in seeds
                   if self.resolve(seed) in self.nodes}
        frontier = list(tainted)
        while frontier:
            for consumer in consumers[frontier.pop()]:
                if consumer not in tainted:
                    tainted.add(consumer)
                    frontier.append(consumer)
        return tainted

    def clone(self) -> "QueryDependencyGraph":
        duplicate = QueryDependencyGraph()
        duplicate.nodes = dict(self.nodes)
        duplicate.aliases = dict(self.aliases)
        duplicate.propagated = self.propagated
        return duplicate

    def sources(self) -> list[str]:
        return sorted({node.source for node in self.nodes.values()})

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class TaggingPlan:
    """Everything the tree-construction phase needs.

    ``table_of`` maps iteration-occurrence paths to the QDG node producing
    their table; ``sort_columns`` gives the canonical child order columns;
    ``text_of`` gives the PCDATA provenance per text occurrence;
    ``condition_of`` maps choice-production occurrence paths to their
    condition node.  ``_programs`` holds the plan compiled for tagging
    (:class:`repro.runtime.tagging.TaggingProgram`), one per ``rename``, so
    a compiled program lives exactly as long as the prepared plan.
    """

    tree: OccurrenceTree
    table_of: dict[str, str] = field(default_factory=dict)
    sort_columns: dict[str, list[str]] = field(default_factory=dict)
    text_of: dict[str, Provenance] = field(default_factory=dict)
    condition_of: dict[str, str] = field(default_factory=dict)
    _programs: dict = field(default_factory=dict, repr=False, compare=False)


def build_qdg(spec: SpecializedAIG,
              stats: StatisticsCatalog | None = None
              ) -> tuple[QueryDependencyGraph, TaggingPlan]:
    """Build the QDG and tagging plan for a non-recursive specialized AIG."""
    if spec.occurrences is None:
        raise PlanError("QDG construction requires a non-recursive AIG; "
                        "unfold recursion first")
    builder = _Builder(spec, stats)
    return builder.build()


class _Builder:
    def __init__(self, spec: SpecializedAIG, stats: StatisticsCatalog | None):
        self.spec = spec
        self.aig = spec.aig
        self.occurrences = spec.occurrences
        self.stats = stats
        self.graph = QueryDependencyGraph()
        self.plan = TaggingPlan(self.occurrences)
        self._collect_cache: dict[tuple[str, str, str], str] = {}
        self._guard_counter = 0

    # ------------------------------------------------------------------
    def build(self) -> tuple[QueryDependencyGraph, TaggingPlan]:
        self._walk(self.occurrences.root)
        self._build_guards()
        return self.graph, self.plan

    def _walk(self, occurrence: Occurrence) -> None:
        if occurrence.has_table and occurrence.parent is not None:
            self._build_tabled(occurrence)
        model = self.aig.dtd.production(occurrence.element_type)
        if isinstance(model, PCDATA):
            rule = self.aig.rule_for(occurrence.element_type)
            assert isinstance(rule, PCDataRule)
            expression = rule.text.expr("__text__")
            if isinstance(expression, Const):
                self.plan.text_of[occurrence.path] = ConstValue(
                    expression.value)
            else:
                assert (isinstance(expression, AttrRef)
                        and expression.kind == "inh")
                self.plan.text_of[occurrence.path] = (
                    self.occurrences.resolve_inh_scalar(occurrence,
                                                        expression.member))
        if isinstance(model, Choice):
            self._build_condition(occurrence)
        for child in occurrence.children:
            self._walk(child)

    # ------------------------------------------------------------------
    # iteration occurrences
    # ------------------------------------------------------------------
    def _site_query(self, occurrence: Occurrence) -> QueryFunc:
        parent = occurrence.parent
        rule = self.aig.rule_for(parent.element_type)
        if occurrence.kind == "star":
            assert isinstance(rule, StarRule)
            return rule.child_query
        if occurrence.kind == "seq":
            assert isinstance(rule, SequenceRule)
            function = rule.inh_for(occurrence.element_type)
        else:
            assert isinstance(rule, ChoiceRule)
            function = rule.branch_for(occurrence.element_type).inh
        assert isinstance(function, QueryFunc)
        return function

    def _build_tabled(self, occurrence: Occurrence) -> None:
        function = self._site_query(occurrence)
        self._add_site(occurrence.path, "step", function, occurrence.parent,
                       occurrence.choice_edges_gating())
        self.plan.table_of[occurrence.path] = occurrence.path
        self.plan.sort_columns[occurrence.path] = list(
            function.query.output_names)

    def _add_site(self, name: str, kind: str, function: QueryFunc,
                  parent: Occurrence, gating: list[Occurrence]) -> None:
        """The nodes of one query site, the last one named ``name``: its
        rewritten query's steps, or — for a query that reads nothing of a
        non-root anchor — the query's steps named ``<name>.q`` and the
        mediator product node ``name`` pairing each of their rows with
        every anchor row."""
        rewritten, root_params, anchor = self._rewrite(function, parent,
                                                       gating)
        if anchor is None:
            self._add_steps(plan_steps(rewritten, name, self.stats), name,
                            kind, root_params)
            return
        query_name = f"{name}.q"
        self._add_steps(plan_steps(rewritten, query_name, self.stats),
                        query_name, kind, root_params, ship=False)
        self.graph.add(QueryNode(
            name=name, source=MEDIATOR_NAME, kind="product",
            inputs=(query_name, self.plan.table_of[anchor.path]),
            output_columns=tuple(rewritten.output_names) + ("__parent",),
            ship_to_mediator=True))

    def _add_steps(self, steps, final_name: str, final_kind: str,
                   root_params: dict[str, str], ship: bool = True) -> str:
        """Register a decomposition chain; the last step takes
        ``final_name``/``final_kind`` (and ships to the mediator for the
        tagging phase unless ``ship`` is false).  Step queries already
        reference each other by their plan-step names; only the final
        rename needs propagating (no chain step consumes the final one, so
        the rename map stays empty in practice but is kept for safety)."""
        renames: dict[str, str] = {}
        node_name = final_name
        for index, step in enumerate(steps):
            is_last = index == len(steps) - 1
            node_name = final_name if is_last else step.name
            if step.name != node_name:
                renames[step.name] = node_name
            step_query = self._apply_renames(step.query, renames)
            self.graph.add(QueryNode(
                name=node_name,
                source=step.source,
                kind=final_kind if is_last else "step",
                query=step_query,
                inputs=tuple(sorted(temp_inputs(step_query))),
                output_columns=tuple(step_query.output_names),
                ship_to_mediator=is_last and ship,
                root_params={p: m for p, m in root_params.items()
                             if p in scalar_params(step_query)},
            ))
        return node_name

    def _apply_renames(self, query: Query, renames: dict[str, str]) -> Query:
        if not renames:
            return query
        new_items = []
        changed = False
        for item in query.from_items:
            if isinstance(item, TempTable) and item.producer in renames:
                new_items.append(TempTable(renames[item.producer],
                                           item.alias, item.columns))
                changed = True
            else:
                new_items.append(item)
        if not changed:
            return query
        return replace(query, from_items=tuple(new_items))

    # ------------------------------------------------------------------
    # set-oriented rewriting
    # ------------------------------------------------------------------
    def _rewrite(self, function: QueryFunc, parent: Occurrence,
                 gating: list[Occurrence]
                 ) -> tuple[Query, dict[str, str], Occurrence | None]:
        """Rewrite a per-tuple query into its set-oriented form.

        ``gating`` lists choice-child occurrences whose branch must have
        been selected for the produced rows to exist; the rewritten query
        joins the corresponding condition tables.  The anchor context is
        joined only for what the query reads.  Returns (rewritten query,
        root-param map, anchor): ``anchor`` is ``None`` unless the query
        reads nothing of its non-root anchor, in which case the rewritten
        query is ``Q`` alone and each of its rows belongs to every row of
        ``anchor``'s table.
        """
        query = function.query
        anchor = parent.anchor
        context = _ContextJoins(anchor)
        root_params: dict[str, str] = {}
        replacements: dict[str, object] = {}

        for param in sorted(scalar_params(query)):
            ref = function.binding_for(param)
            provenance = self._resolve_scalar(ref, parent)
            if isinstance(provenance, TableColumn):
                provenance = self._chase(provenance)
            if isinstance(provenance, RootValue):
                root_params[param] = provenance.member
            elif isinstance(provenance, ConstValue):
                replacements[param] = Literal(provenance.value)
            else:
                assert isinstance(provenance, TableColumn)
                alias = context.alias_for(provenance.occurrence)
                replacements[param] = ColumnRef(alias, provenance.column)

        set_replacements: dict[str, tuple[str, str, Occurrence]] = {}
        for param in sorted(set_params(query)):
            ref = function.binding_for(param)
            node_name, group = self._collect_node_for(ref, parent)
            alias = f"__set_{param}"
            set_replacements[param] = (node_name, alias, group)

        new_select = [SelectItem(self._subst(item.expr, replacements),
                                 item.alias) for item in query.select]
        new_where = []
        new_from = list(query.from_items)

        for predicate in query.where:
            if isinstance(predicate, Comparison):
                new_where.append(Comparison(
                    self._subst(predicate.left, replacements), predicate.op,
                    self._subst(predicate.right, replacements)))
            else:
                assert isinstance(predicate, InSet)
                node_name, alias, group = set_replacements[predicate.param]
                columns = self._collect_columns(predicate.param, node_name)
                new_from.append(TempTable(node_name, alias, columns))
                field_name = predicate.field or predicate.column.column
                new_where.append(Comparison(
                    predicate.column, "=", ColumnRef(alias, field_name)))
                self._add_group_predicate(new_where, alias, group, context)

        replaced_from = []
        for item in new_from:
            if isinstance(item, SetParamTable):
                node_name, _, group = set_replacements[item.param]
                columns = self._collect_columns(item.param, node_name)
                replaced_from.append(TempTable(node_name, item.alias, columns))
                self._add_group_predicate(new_where, item.alias, group,
                                          context)
            else:
                replaced_from.append(item)

        # Choice gating: rows only exist when every enclosing choice picked
        # this branch — join the condition tables on the anchor row.
        for gate_index, gate in enumerate(gating):
            choice_parent = gate.parent
            condition_node = self.plan.condition_of[choice_parent.path]
            selector = self.graph.nodes[condition_node].output_columns[0]
            alias = f"__cond{gate_index}"
            branch_index = self._branch_index(gate)
            replaced_from.append(TempTable(
                condition_node, alias,
                self.graph.nodes[condition_node].output_columns))
            new_where.append(Comparison(ColumnRef(alias, selector), "=",
                                        Literal(branch_index)))
            if choice_parent.anchor.parent is not None:
                new_where.append(Comparison(
                    ColumnRef(alias, "__parent"), "=",
                    ColumnRef(context.alias_for(choice_parent.anchor),
                              "__id")))

        # Project the anchor row id through as the path-encoding column.
        replaced_from.extend(context.from_items(self))
        new_where.extend(context.join_predicates())
        if context.used:
            new_select.append(SelectItem(
                ColumnRef(CONTEXT_ALIAS, "__id"), "__parent"))
        rewritten = Query(tuple(new_select), tuple(replaced_from),
                          tuple(new_where), query.distinct)
        # A query that reads nothing of a non-root anchor runs once; its
        # product with the anchor rows is formed in process.
        uncorrelated = not context.used and anchor.parent is not None
        return rewritten, root_params, anchor if uncorrelated else None

    def _chase(self, column: TableColumn) -> Provenance:
        """Section 4's copy elimination carried through a projection.

        A column its producing site query projects as a bare ``$p`` holds
        ``p``'s value, so the chase goes on through ``p``'s binding at the
        producer's parent.  Where it ends at a root value or a constant,
        that is the column's provenance; where it ends at a table column,
        ``column`` stays (the context join stays).
        """
        current = column
        while isinstance(current, TableColumn):
            function = self._site_query(current.occurrence)
            projected = next(item.expr for item in function.query.select
                             if item.alias == current.column)
            if not isinstance(projected, Param):
                return column
            current = self._resolve_scalar(
                function.binding_for(projected.name),
                current.occurrence.parent)
        self.graph.propagated += 1
        return current

    def _subst(self, expression, replacements):
        if isinstance(expression, Param) and expression.name in replacements:
            return replacements[expression.name]
        return expression

    def _branch_index(self, gate: Occurrence) -> int:
        """The selector value that picks this branch (original positions
        survive recursion unfolding via ChoiceRule.selector_names)."""
        model = self.aig.dtd.production(gate.parent.element_type)
        assert isinstance(model, Choice)
        rule = self.aig.rule_for(gate.parent.element_type)
        targets = rule.selector_targets([item.value for item in model.items])
        return targets.index(gate.element_type) + 1

    def _resolve_scalar(self, ref: AttrRef, parent: Occurrence) -> Provenance:
        if ref.kind == "inh":
            return self.occurrences.resolve_inh_scalar(parent, ref.member)
        sibling = parent.child(ref.element)
        return self.occurrences.resolve_syn_scalar(sibling, ref.member)

    def _add_group_predicate(self, where, alias: str, group: Occurrence,
                             context: "_ContextJoins") -> None:
        if group.parent is None:
            return  # grouped under the root: a single global group
        group_alias = context.alias_for(group)
        where.append(Comparison(ColumnRef(alias, "__group"), "=",
                                ColumnRef(group_alias, "__id")))

    def _collect_columns(self, param: str, node_name: str) -> tuple[str, ...]:
        return tuple(self.graph.nodes[node_name].output_columns)

    # ------------------------------------------------------------------
    # collect nodes (synthesized / inherited collections a query reads)
    # ------------------------------------------------------------------
    def _collect_node_for(self, ref: AttrRef, parent: Occurrence
                          ) -> tuple[str, Occurrence]:
        if ref.kind == "inh":
            owner = parent
            extractions = self.occurrences.expand_inh_collection(owner,
                                                                 ref.member)
            schema = self.aig.inh_schema(owner.element_type)
        else:
            owner = parent.child(ref.element)
            extractions = self.occurrences.expand_syn_collection(owner,
                                                                 ref.member)
            schema = self.aig.syn_schema(owner.element_type)
        cache_key = (owner.path, ref.kind, ref.member)
        group = _group_of(owner)
        if cache_key not in self._collect_cache:
            fields = schema.collection_fields(ref.member)
            inputs: set[str] = set()
            program = self._collection(extractions, fields, group,
                                       not schema.is_bag(ref.member), inputs)
            node = self.graph.add(QueryNode(
                name=f"collect:{ref.kind}:{owner.path}.{ref.member}",
                source=MEDIATOR_NAME, kind="collect",
                collections=(program,),
                inputs=tuple(sorted(inputs)),
                output_columns=tuple(fields) + ("__group",),
                ship_to_mediator=True))
            self._collect_cache[cache_key] = node.name
        return self._collect_cache[cache_key], group

    def _collection(self, extractions: list[Extraction],
                    fields: tuple[str, ...], group: Occurrence,
                    distinct: bool, inputs: set[str]) -> CollectionProgram:
        """A collection as a program: one branch per extraction, each row
        tagged with its ``group`` row id; the tables read are added to
        ``inputs``.  The branches are in a canonical order (a bag does not
        depend on it), so equal collections have equal programs."""
        return CollectionProgram(
            tuple(fields),
            tuple(sorted((self._branch(extraction, fields, group, inputs)
                          for extraction in extractions), key=repr)),
            distinct)

    def _branch(self, extraction: Extraction, fields: tuple[str, ...],
                group: Occurrence, inputs: set[str]) -> Branch:
        """One extraction: rows of the source table mapped to their group.

        The ``__parent`` chain of iteration tables is climbed from the
        source occurrence up to (but excluding) the group occurrence; the
        group row id is the last link's ``__parent`` (or the source's own
        ``__id`` when the source *is* the group, or 0 when grouped under
        the root).
        """
        source_occ = extraction.source
        table = self.plan.table_of.get(source_occ.path)  # None: the root
        if table is not None:
            inputs.add(table)
        chain: list[Occurrence] = [source_occ]
        climb: list[str] = []

        def climb_to(target: Occurrence) -> int:
            """Climb anchor tables upward until ``target``; its level."""
            while target not in chain:
                current = chain[-1]
                if current.parent is None:
                    raise CompilationError(
                        f"{target.path} is not an ancestor of "
                        f"{source_occ.path}")
                up = current.parent.anchor
                climb.append(self.plan.table_of[up.path])
                inputs.add(climb[-1])
                chain.append(up)
            return chain.index(target)

        if group.parent is None:
            group_at = None
        elif source_occ is group:
            group_at = (0, "__id")
        else:
            # group row id = __parent of the deepest occurrence just below
            # the group on the anchor chain
            below = source_occ
            while below.parent is not None and below.parent.anchor is not group:
                below = below.parent.anchor
            if below.parent is None:
                raise CompilationError(
                    f"{group.path} is not an ancestor of {source_occ.path}")
            group_at = (climb_to(below), "__parent")

        # Choice-branch gates: the condition table's selector must pick the
        # branch (extraction.conditions name the choice-PRODUCTION occurrence)
        gates = []
        for choice_occ, branch_index in extraction.conditions:
            condition_node = self.plan.condition_of[choice_occ.path]
            inputs.add(condition_node)
            gate_anchor = choice_occ.anchor
            gates.append((
                condition_node,
                self.graph.nodes[condition_node].output_columns[0],
                branch_index,
                None if gate_anchor.parent is None else climb_to(gate_anchor)))

        provenance_by_field = dict(extraction.columns)
        values = []
        for field_name in fields:
            provenance = provenance_by_field[field_name]
            if isinstance(provenance, TableColumn):
                level = (chain.index(provenance.occurrence)
                         if provenance.occurrence in chain else 0)
                values.append(("column", level, provenance.column))
            elif isinstance(provenance, RootValue):
                values.append(("root", provenance.member))
            else:
                assert isinstance(provenance, ConstValue)
                values.append(("const", provenance.value))
        return Branch(table, tuple(climb), group_at, tuple(gates),
                      tuple(values))

    # ------------------------------------------------------------------
    # condition nodes (choice productions)
    # ------------------------------------------------------------------
    def _build_condition(self, occurrence: Occurrence) -> None:
        rule = self.aig.rule_for(occurrence.element_type)
        assert isinstance(rule, ChoiceRule)
        gating = (occurrence.choice_edges_gating()
                  if occurrence.parent is not None else [])
        name = f"cond:{occurrence.path}"
        self._add_site(name, "condition", rule.condition, occurrence, gating)
        self.plan.condition_of[occurrence.path] = name

    # ------------------------------------------------------------------
    # guard nodes
    # ------------------------------------------------------------------
    def _build_guards(self) -> None:
        for occurrence in self.occurrences.by_path.values():
            for guard in self.aig.guards.get(occurrence.element_type, []):
                self._build_guard(occurrence, guard)

    def _build_guard(self, occurrence: Occurrence, guard) -> None:
        """A guard reads its collections in place: each one has this single
        reader, so it is a program of the guard (not a node) and the
        guard's inputs are the step / condition tables the branches read."""
        self._guard_counter += 1
        schema = self.aig.syn_schema(occurrence.element_type)
        inputs: set[str] = set()

        def collection(member: str) -> CollectionProgram:
            return self._collection(
                self.occurrences.expand_syn_collection(occurrence, member),
                schema.collection_fields(member), _group_of(occurrence),
                not schema.is_bag(member), inputs)

        if isinstance(guard, UniqueGuard):
            collections = (collection(guard.member),)
        else:
            assert isinstance(guard, SubsetGuard)
            collections = (collection(guard.left), collection(guard.right))
        node = QueryNode(name=f"guard:{occurrence.path}:{self._guard_counter}",
                         source=MEDIATOR_NAME, kind="guard",
                         collections=collections,
                         inputs=tuple(sorted(inputs)),
                         output_columns=("violation",))
        node.guard = guard
        self.graph.add(node)


def _group_of(owner: Occurrence) -> Occurrence:
    """The occurrence whose rows a collection of ``owner`` is grouped by."""
    return owner if owner.is_iteration else owner.anchor


class _ContextJoins:
    """Tracks the anchor-chain tables a rewritten query must join."""

    def __init__(self, anchor: Occurrence):
        self.anchor = anchor
        self.needed: list[Occurrence] = []   # chain from anchor upward
        self.used = False

    def alias_for(self, occurrence: Occurrence) -> str:
        """Alias of ``occurrence``'s table, extending the chain as needed."""
        if occurrence.parent is None:
            raise CompilationError("root has no context table")
        self.used = True
        if not self.needed:
            self.needed = [self.anchor]
        while occurrence not in self.needed:
            deepest = self.needed[-1]
            parent = deepest.parent
            if parent is None:
                raise CompilationError(
                    f"{occurrence.path} is not an ancestor anchor")
            self.needed.append(parent.anchor)
        index = self.needed.index(occurrence)
        return CONTEXT_ALIAS if index == 0 else f"{CONTEXT_ALIAS}{index}"

    def from_items(self, builder: _Builder) -> list[TempTable]:
        items = []
        for index, occurrence in enumerate(self.needed):
            alias = CONTEXT_ALIAS if index == 0 else f"{CONTEXT_ALIAS}{index}"
            table = builder.plan.table_of[occurrence.path]
            columns = builder.graph.nodes[table].output_columns
            items.append(TempTable(table, alias, columns))
        return items

    def join_predicates(self):
        predicates = []
        for index in range(len(self.needed) - 1):
            child_alias = (CONTEXT_ALIAS if index == 0
                           else f"{CONTEXT_ALIAS}{index}")
            parent_alias = f"{CONTEXT_ALIAS}{index + 1}"
            predicates.append(Comparison(
                ColumnRef(child_alias, "__parent"), "=",
                ColumnRef(parent_alias, "__id")))
        return predicates

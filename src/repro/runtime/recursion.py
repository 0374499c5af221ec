"""Recursion unfolding for AIGs (Section 5.5).

``unfold_aig(aig, depth)`` produces an equivalent non-recursive AIG over the
unfolded DTD of :func:`repro.dtd.analysis.unfold_dtd`: every per-budget copy
of an element type inherits the original's attribute schemas and semantic
rules, with child references renamed to the copy's children.  A star rule
whose production truncated to ``EMPTY`` becomes an empty rule whose
synthesized collections are empty — the paper's "assuming that the procedure
leaf has no children".

``strip_unfolding(tree)`` renames unfolded tags back to their base names, so
the final document conforms to the *original* recursive DTD (unfolding is an
evaluation device, not an interface change).

The middleware uses a user-supplied depth estimate ``d``; if at runtime the
deepest unfolded level still produces rows (the recursion was deeper than
estimated), evaluation is repeated with a larger ``d`` — the runtime loop of
Section 5.5.
"""

from __future__ import annotations

from repro.errors import CompilationError
from repro.dtd.analysis import base_name, recursive_types, unfold_dtd
from repro.dtd.model import Choice, Empty, PCDATA, Sequence, Star
from repro.xmlmodel.node import XMLElement
from repro.aig.functions import (
    Assign,
    AttrRef,
    CollectChildren,
    Const,
    EmptyCollection,
    QueryFunc,
    SingletonSet,
    UnionExpr,
)
from repro.aig.grammar import AIG
from repro.aig.rules import (
    ChoiceBranch,
    ChoiceRule,
    EmptyRule,
    PCDataRule,
    SequenceRule,
    StarRule,
)


def unfold_aig(aig: AIG, depth: int) -> AIG:
    """Unfold all recursion in ``aig`` to ``depth`` truncation levels.

    Must be applied to a *user* AIG (before specialization — guards and
    internal states are not remapped).  Non-recursive AIGs are returned
    unchanged.
    """
    if not recursive_types(aig.dtd):
        return aig
    if aig.guards or aig.internal_states:
        raise CompilationError(
            "unfold_aig must run before specialization (guards/states found)")
    new_dtd = unfold_dtd(aig.dtd, depth)
    root_schema = aig.inh_schema(aig.dtd.root)
    unfolded = AIG(new_dtd, aig.catalog, root_inh=root_schema.scalars)
    unfolded.constraints = list(aig.constraints)

    for new_type in new_dtd.productions:
        original = base_name(new_type)
        if original in aig.inh_schemas:
            unfolded.inh_schemas[new_type] = aig.inh_schemas[original]
        if original in aig.syn_schemas:
            unfolded.syn_schemas[new_type] = aig.syn_schemas[original]

    for new_type in new_dtd.productions:
        original = base_name(new_type)
        if original not in aig.rules:
            continue
        rule = aig.rules[original]
        new_model = new_dtd.production(new_type)
        old_model = aig.dtd.production(original)
        unfolded.rules[new_type] = _remap_rule(rule, old_model, new_model,
                                               new_type)
    return unfolded


# ----------------------------------------------------------------------
# rule remapping
# ----------------------------------------------------------------------
def _child_mapping(old_model, new_model, owner: str) -> dict[str, str | None]:
    """original child name -> new child name (None if dropped)."""
    mapping: dict[str, str | None] = {}
    if isinstance(old_model, Sequence) and isinstance(new_model, Sequence):
        for old_item, new_item in zip(old_model.items, new_model.items):
            mapping[old_item.value] = new_item.value
    elif isinstance(old_model, Choice):
        new_names = (list(new_model.items)
                     if isinstance(new_model, (Choice, Sequence)) else [])
        available = {base_name(item.value): item.value for item in new_names}
        for old_item in old_model.items:
            mapping[old_item.value] = available.get(old_item.value)
    elif isinstance(old_model, Star):
        if isinstance(new_model, Star):
            mapping[old_model.item.value] = new_model.item.value
        else:
            mapping[old_model.item.value] = None
    return mapping


def _remap_rule(rule, old_model, new_model, owner: str):
    mapping = _child_mapping(old_model, new_model, owner)

    if isinstance(rule, (PCDataRule, EmptyRule)):
        return rule

    if isinstance(rule, SequenceRule):
        new_inh = tuple((mapping[child], _remap_func(function, mapping))
                        for child, function in rule.inh
                        if mapping.get(child) is not None)
        return SequenceRule(new_inh, _remap_assign(rule.syn, mapping))

    if isinstance(rule, StarRule):
        if isinstance(new_model, Empty):
            # Truncated: no children; collections become empty.
            return EmptyRule(_remap_assign(rule.syn, mapping))
        return StarRule(_remap_query(rule.child_query, mapping),
                        _remap_assign(rule.syn, mapping))

    assert isinstance(rule, ChoiceRule)
    branches = tuple(
        (mapping[name], ChoiceBranch(_remap_func(branch.inh, mapping),
                                     _remap_assign(branch.syn, mapping)))
        for name, branch in rule.branches
        if mapping.get(name) is not None)
    # Selector values keep the ORIGINAL production's positions: a dropped
    # (recursion-truncated) alternative maps to None, which the evaluators
    # turn into a depth-estimate error rather than a mis-selected branch.
    original = rule.selector_targets([item.value for item in old_model.items])
    selector_names = tuple(mapping.get(name) if name is not None else None
                           for name in original)
    return ChoiceRule(_remap_query(rule.condition, mapping), branches,
                      selector_names)


def _remap_func(function, mapping):
    if isinstance(function, Assign):
        return _remap_assign(function, mapping)
    assert isinstance(function, QueryFunc)
    return _remap_query(function, mapping)


def _remap_query(function: QueryFunc, mapping) -> QueryFunc:
    new_bindings = tuple((name, _remap_ref(ref, mapping) or ref)
                         for name, ref in function.bindings)
    return QueryFunc(function.query, new_bindings)


def _remap_ref(ref: AttrRef, mapping) -> AttrRef | None:
    if ref.kind == "inh":
        return ref
    new_element = mapping.get(ref.element, ref.element)
    if new_element is None:
        return None
    return AttrRef("syn", new_element, ref.member)


def _remap_assign(assignment: Assign, mapping) -> Assign:
    return Assign(tuple((member, _remap_expr(expression, mapping))
                        for member, expression in assignment.items))


def _remap_expr(expression, mapping):
    if isinstance(expression, Const):
        return expression
    if isinstance(expression, AttrRef):
        remapped = _remap_ref(expression, mapping)
        if remapped is None:
            return EmptyCollection()
        return remapped
    if isinstance(expression, SingletonSet):
        items = []
        for name, item in expression.items:
            remapped = _remap_expr(item, mapping)
            if isinstance(remapped, EmptyCollection):
                remapped = Const(None)  # scalar from a dropped alternative
            items.append((name, remapped))
        return SingletonSet(tuple(items))
    if isinstance(expression, CollectChildren):
        new_child = mapping.get(expression.child, expression.child)
        if new_child is None:
            return EmptyCollection()
        return CollectChildren(new_child, expression.member)
    if isinstance(expression, EmptyCollection):
        return expression
    assert isinstance(expression, UnionExpr)
    remapped_args = tuple(_remap_expr(argument, mapping)
                          for argument in expression.args)
    return UnionExpr(remapped_args)


# ----------------------------------------------------------------------
# output normalization
# ----------------------------------------------------------------------
def strip_unfolding(tree: XMLElement) -> XMLElement:
    """Rename ``name#k`` tags back to ``name`` in place; returns the tree."""
    for node in tree.iter():
        node.tag = base_name(node.tag)
    return tree


# ----------------------------------------------------------------------
# data-driven depth estimation (Section 7 future work)
# ----------------------------------------------------------------------
def estimate_recursion_depth(aig: AIG, sources, max_depth: int = 64,
                             margin: int = 1) -> int | None:
    """Estimate the unfolding depth from chain statistics in the sources.

    Section 7: "We are also investigating methods for statically generating
    query plans for AIGs based on recursive DTDs, utilizing statistics on
    the depth of chains within source relations."  For every recursive star
    rule whose iteration query has a recognizable *feedback* parameter —
    a scalar ``$p`` compared to a column, with an output column of the same
    name that will be fed back on the next level (σ0's Q3: ``p.trId1 = $p``
    feeding output ``trId``) — the chain relation (src, dst) is extracted
    from the sources and its longest path bounds the recursion depth.

    Returns the estimated depth (longest chain + ``margin``), ``max_depth``
    when a data cycle is detected, or ``None`` when no recursive query
    matches the feedback pattern (callers fall back to a default estimate
    plus runtime re-unrolling).
    """
    from repro.relational.source import Federation
    from repro.sqlq.render import render_sqlite

    if not recursive_types(aig.dtd):
        return 0
    queries = chain_queries(aig)
    if not queries:
        return None
    by_name = (sources if isinstance(sources, dict)
               else {source.name: source for source in sources})
    # Only the sources the chains live in: a federation copies every base
    # relation of a source it cannot ATTACH.
    federation = Federation([by_name[name] for name in sorted(
        {item.source for query in queries for item in query.from_items})
        if name in by_name])
    try:
        estimated = 0
        for edge_query in queries:
            sql, params = render_sqlite(edge_query, qualify_sources=True)
            rows = federation.execute(sql, tuple(params)).rows
            estimated = max(estimated, _longest_chain(rows, max_depth))
    finally:
        federation.close()
    return min(estimated + margin, max_depth)


def chain_queries(aig: AIG) -> list:
    """The (src, dst) edge query of every recursive star rule whose
    iteration query matches the feedback pattern — what
    :func:`estimate_recursion_depth` reads, and from which relations."""
    from repro.sqlq.analyze import scalar_params, set_params
    from repro.sqlq.ast import Query, SelectItem

    queries = []
    for element_type in sorted(recursive_types(aig.dtd)):
        rule = aig.rules.get(element_type)
        if not isinstance(rule, StarRule):
            continue
        query = rule.child_query.query
        if set_params(query):
            continue
        feedback = _feedback_pattern(query)
        if feedback is None:
            continue
        param_name, src_col, dst_col, remaining = feedback
        if scalar_params(query) - {param_name}:
            continue  # other unbound parameters: cannot probe statically
        queries.append(Query(
            (SelectItem(src_col, "src"), SelectItem(dst_col, "dst")),
            query.from_items, remaining, distinct=True))
    return queries


def _feedback_pattern(query):
    """Detect ``(param, compared column, same-named output, other preds)``."""
    from repro.sqlq.analyze import scalar_params
    from repro.sqlq.ast import ColumnRef, Comparison, Param
    for param_name in sorted(scalar_params(query)):
        output = next((item for item in query.select
                       if item.alias == param_name
                       and isinstance(item.expr, ColumnRef)), None)
        if output is None:
            continue
        src_col = None
        remaining = []
        for predicate in query.where:
            matched = None
            if isinstance(predicate, Comparison) and predicate.op == "=":
                left, right = predicate.left, predicate.right
                if isinstance(left, Param) and left.name == param_name \
                        and isinstance(right, ColumnRef):
                    matched = right
                elif isinstance(right, Param) and right.name == param_name \
                        and isinstance(left, ColumnRef):
                    matched = left
            if matched is not None:
                src_col = matched
            else:
                remaining.append(predicate)
        if src_col is not None:
            return param_name, src_col, output.expr, tuple(remaining)
    return None


def _longest_chain(edges: list[tuple], max_depth: int) -> int:
    """Longest path (in nodes) of the (src, dst) edge set; ``max_depth`` on
    a cycle."""
    from collections import defaultdict
    successors: dict = defaultdict(list)
    for src, dst in edges:
        successors[src].append(dst)
    memo: dict = {}
    on_path: set = set()

    def depth_from(node) -> int:
        if node in memo:
            return memo[node]
        if node in on_path:
            return max_depth  # data cycle: unbounded recursion
        on_path.add(node)
        best = 1
        for successor in successors.get(node, ()):  # noqa: B007
            best = max(best, 1 + depth_from(successor))
            if best >= max_depth:
                break
        on_path.discard(node)
        memo[node] = min(best, max_depth)
        return memo[node]

    roots = {src for src, _ in edges} - {dst for _, dst in edges}
    candidates = roots or {src for src, _ in edges}
    longest = 0
    for node in candidates:
        longest = max(longest, depth_from(node))
        if longest >= max_depth:
            return max_depth
    return longest

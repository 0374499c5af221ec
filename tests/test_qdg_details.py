"""Detail tests for QDG construction: path encoding, context chains,
collect grouping, guards as collection programs, and the DOT export."""

import logging

import pytest

from repro.aig import AIG, ConceptualEvaluator, assign, inh, query
from repro.compilation import specialize
from repro.dtd import parse_dtd
from repro.errors import EvaluationAborted
from repro.hospital import build_hospital_aig
from repro.obs import Tracer
from repro.optimizer import CostModel, build_qdg
from repro.relational import Network, StatisticsCatalog
from repro.relational.schema import Catalog, SourceSchema, relation
from repro.relational.source import MEDIATOR_NAME, DataSource, ResultSet
from repro.runtime import Middleware, unfold_aig
from repro.runtime.engine import Engine, ID_COLUMN
from repro.optimizer.schedule import schedule
from repro.sqlq.analyze import temp_inputs
from tests.test_mediator_resident import build_group_aig, group_sources
from tests.test_recursive_choice import TREE_ROWS, build_fs_aig, load as load_fs


def to_dot(graph, estimates: dict | None = None) -> str:
    """Graphviz DOT rendering of a QDG (nodes clustered by source; with
    ``estimates``, each label carries the estimated output cardinality)."""
    lines = ["digraph qdg {", "  rankdir=LR;", "  node [shape=box];"]
    by_source: dict = {}
    for node in graph.nodes.values():
        by_source.setdefault(node.source, []).append(node)
    for index, (source, nodes) in enumerate(sorted(by_source.items())):
        lines.append(f'  subgraph cluster_{index} {{')
        lines.append(f'    label="{source}";')
        for node in nodes:
            label = node.name.replace('"', "'")
            if estimates and node.name in estimates:
                label += f"\\n~{estimates[node.name].cardinality:.0f} rows"
            shape = {"guard": "octagon", "collect": "ellipse",
                     "condition": "diamond"}.get(node.kind, "box")
            lines.append(f'    "{node.name}" [label="{label}" '
                         f'shape={shape}];')
        lines.append("  }")
    for node in graph.nodes.values():
        for producer in graph.producer_names(node):
            lines.append(f'  "{producer}" -> "{node.name}";')
    lines.append("}")
    return "\n".join(lines)


def pipeline(hospital_aig, sources, depth=3):
    stats = StatisticsCatalog.from_sources(list(sources.values()))
    spec = specialize(unfold_aig(hospital_aig, depth), stats)
    graph, tagging_plan = build_qdg(spec, stats)
    estimates = CostModel(stats).estimate_graph(graph)
    network = Network.mbps(1.0)
    plan = schedule(graph, estimates, network)
    engine = Engine(graph, plan, sources, network)
    return graph, tagging_plan, engine.run({"date": "d1"})


class TestPathEncoding:
    def test_parent_ids_reference_anchor_rows(self, hospital_aig,
                                              tiny_sources):
        graph, tagging_plan, result = pipeline(hospital_aig, tiny_sources)
        patient_path = next(p for p in tagging_plan.table_of
                            if p.endswith("/patient#3")
                            or p.split("/")[-1].startswith("patient"))
        patient_table = result.cache[tagging_plan.table_of[patient_path]]
        patient_ids = set(patient_table.column(ID_COLUMN))
        # every top-level treatment row points at an existing patient row
        treatment_path = next(p for p in tagging_plan.table_of
                              if "treatments" in p and p.count("treatment")
                              == 2)
        treatment_table = result.cache[tagging_plan.table_of[treatment_path]]
        assert set(treatment_table.column("__parent")) <= patient_ids

    def test_nested_levels_chain_parents(self, hospital_aig, tiny_sources):
        graph, tagging_plan, result = pipeline(hospital_aig, tiny_sources)
        level_paths = sorted(p for p in tagging_plan.table_of
                             if "procedure" in p)
        assert level_paths  # at least one nested level
        for path in level_paths:
            table = result.cache[tagging_plan.table_of[path]]
            parent_path = max((p for p in tagging_plan.table_of
                               if p != path and path.startswith(p)),
                              key=len, default=None)
            if parent_path and len(table):
                parent_table = result.cache[tagging_plan.table_of[parent_path]]
                assert set(table.column("__parent")) <= set(
                    parent_table.column(ID_COLUMN))

    def test_root_level_table_has_no_parent_column(self, hospital_aig,
                                                   tiny_sources):
        graph, tagging_plan, result = pipeline(hospital_aig, tiny_sources)
        patient_path = min(tagging_plan.table_of, key=len)
        table = result.cache[tagging_plan.table_of[patient_path]]
        assert "__parent" not in table.columns


class TestCollectNodes:
    def test_bill_collect_grouped_per_patient(self, hospital_aig,
                                              tiny_sources):
        graph, tagging_plan, result = pipeline(hospital_aig, tiny_sources)
        collect_name = next(n for n in graph.nodes
                            if n.startswith("collect:inh:"))
        collected = result.cache[collect_name]
        assert "__group" in collected.columns
        # Ann (patient with recursion) contributes 3 trIds, Bob 1
        groups: dict = {}
        for row in collected.rows:
            key = row[collected.columns.index("__group")]
            groups.setdefault(key, set()).add(
                row[collected.columns.index("trId")])
        sizes = sorted(len(v) for v in groups.values())
        assert sizes == [1, 3]

    def test_collect_distinct_for_set_members(self, hospital_aig,
                                              tiny_sources):
        graph, tagging_plan, result = pipeline(hospital_aig, tiny_sources)
        for name, node in graph.nodes.items():
            if node.kind == "collect" and "__c0" not in name:
                rows = result.cache[name].rows
                deduped = {row[:-1] for row in
                           (r[:len(result.cache[name].columns) - 1]
                            for r in rows)}
                # set members: no duplicate (fields, group) pairs
                plain = [row[:-1] for row in rows]
                assert len(plain) == len(set(plain))

    def test_guard_sql_runs_at_mediator(self, hospital_aig, tiny_sources):
        graph, tagging_plan, result = pipeline(hospital_aig, tiny_sources)
        guard_nodes = [n for n in graph.nodes.values() if n.kind == "guard"]
        assert guard_nodes
        for node in guard_nodes:
            assert node.source == MEDIATOR_NAME
            assert len(result.cache[node.name]) == 0  # no violations


class TestStructure:
    def test_intermediate_steps_not_shipped_for_tagging(self, hospital_aig,
                                                        tiny_sources):
        graph, tagging_plan, result = pipeline(hospital_aig, tiny_sources)
        tagging_tables = set(tagging_plan.table_of.values()) | set(
            tagging_plan.condition_of.values())
        for name, node in graph.nodes.items():
            if node.kind == "step" and name not in tagging_tables:
                assert not node.ship_to_mediator, name

    def test_every_input_is_a_node(self, hospital_aig, tiny_sources):
        graph, tagging_plan, result = pipeline(hospital_aig, tiny_sources)
        for node in graph.nodes.values():
            for producer in node.inputs:
                assert graph.resolve(producer) in graph.nodes

    def test_dot_export(self, hospital_aig, tiny_sources):
        stats = StatisticsCatalog.from_sources(list(tiny_sources.values()))
        spec = specialize(unfold_aig(hospital_aig, 2), stats)
        graph, _ = build_qdg(spec, stats)
        estimates = CostModel(stats).estimate_graph(graph)
        dot = to_dot(graph, estimates)
        assert dot.startswith("digraph qdg {") and dot.endswith("}")
        assert 'label="DB1"' in dot
        assert "->" in dot and "rows" in dot

    def test_node_count_grows_with_unfolding(self, hospital_aig,
                                             tiny_sources):
        stats = StatisticsCatalog.from_sources(list(tiny_sources.values()))
        sizes = []
        for depth in (2, 4, 6):
            spec = specialize(unfold_aig(hospital_aig, depth), stats)
            graph, _ = build_qdg(spec, stats)
            sizes.append(len(graph))
        assert sizes[0] < sizes[1] < sizes[2]


# ----------------------------------------------------------------------
# fused guards: the statement's verdict is the conceptual guard's
# ----------------------------------------------------------------------
REF_DTD = """
<!ELEMENT root (group*)>
<!ELEMENT group (gid, members, refs)>
<!ELEMENT members (member*)>
<!ELEMENT refs (ref*)>
<!ELEMENT member (mid, score)>
<!ELEMENT ref (mid, score)>
<!ELEMENT gid (#PCDATA)>
<!ELEMENT mid (#PCDATA)>
<!ELEMENT score (#PCDATA)>
"""
REF_SCHEMA = SourceSchema("S", (relation("groups", "gid"),
                                relation("members", "gid", "mid", "score"),
                                relation("refs", "gid", "mid", "score")))
GROUPS = ("g1", "g2")


def build_ref_aig(constrain) -> AIG:
    """root -> group* -> (member*, ref*), one constraint under test."""
    aig = AIG(parse_dtd(REF_DTD), Catalog([REF_SCHEMA]))
    aig.inh("group", "gid")
    aig.inh("members", "gid")
    aig.inh("refs", "gid")
    aig.inh("member", "mid", "score")
    aig.inh("ref", "mid", "score")
    aig.rule("root", inh={"group": query("select g.gid from S:groups g")})
    aig.rule("group", inh={"gid": assign(val=inh("gid")),
                           "members": assign(gid=inh("gid")),
                           "refs": assign(gid=inh("gid"))})
    aig.rule("members", inh={"member": query(
        "select m.mid, m.score from S:members m where m.gid = $gid")})
    aig.rule("refs", inh={"ref": query(
        "select r.mid, r.score from S:refs r where r.gid = $gid")})
    for leaf in ("member", "ref"):
        aig.rule(leaf, inh={"mid": assign(val=inh("mid")),
                            "score": assign(val=inh("score"))})
    constrain(aig)
    return aig.validate()


def key_mid(aig):
    aig.key("group", "member", "mid")


def key_pair(aig):
    aig.key("group", "member", ("mid", "score"))


def ref_mid(aig):
    aig.inclusion("group", "ref", "mid", "member", "mid")


def ref_pair(aig):
    aig.inclusion("group", "ref", ("mid", "score"),
                  "member", ("mid", "score"))


def no_target(aig):
    # no ref below members: the right side is the static ``WHERE 0`` branch
    aig.inclusion("members", "member", "mid", "ref", "mid")


#: (constraint, member rows, ref rows, holds?, ask the conceptual guard?).
#: Rows are (gid, mid, score).  The NULL rows are not given to the
#: conceptual evaluator (a NULL has no PCDATA text) and two of them are
#: where SQL and ``holds`` part: ``NULL ⊆ {}`` passes for a NULL first
#: field, ``(a, NULL) ⊆ {(a, NULL)}`` fails for a later one.  Both are the
#: verdicts of the statements before the guards were fused, pinned as is.
VERDICT_CASES = {
    "key: distinct mids": (
        key_mid, [("g1", "a", "1"), ("g1", "b", "1")], [], True, True),
    "key: duplicate within a group": (
        key_mid, [("g1", "a", "1"), ("g2", "b", "1"), ("g1", "a", "2")], [],
        False, True),
    "key: duplicate across groups only": (
        key_mid, [("g1", "a", "1"), ("g2", "a", "1")], [], True, True),
    "key: empty bag": (key_mid, [], [], True, True),
    "key: NULL mids collide": (
        key_mid, [("g1", None, "1"), ("g1", None, "2")], [], False, False),
    "pair key: same mid, other score": (
        key_pair, [("g1", "a", "1"), ("g1", "a", "2")], [], True, True),
    "pair key: same pair": (
        key_pair, [("g2", "a", "1"), ("g2", "a", "1")], [], False, True),
    "pair key: NULL scores collide": (
        key_pair, [("g1", "a", None), ("g1", "a", None)], [], False, False),
    "inclusion: every ref has its member": (
        ref_mid, [("g1", "a", "1"), ("g2", "b", "1")],
        [("g1", "a", "9"), ("g2", "b", "9")], True, True),
    "inclusion: the member is in another group": (
        ref_mid, [("g1", "a", "1"), ("g2", "b", "1")], [("g1", "b", "1")],
        False, True),
    "inclusion: duplicates on both sides": (
        ref_mid, [("g1", "a", "1"), ("g1", "a", "2")],
        [("g1", "a", "1"), ("g1", "a", "1")], True, True),
    "inclusion: empty left": (ref_mid, [("g1", "a", "1")], [], True, True),
    "inclusion: empty right": (ref_mid, [], [("g1", "a", "1")], False, True),
    "inclusion: both empty": (ref_mid, [], [], True, True),
    "inclusion: NULL first field is not checked": (
        ref_mid, [], [("g1", None, "1")], True, False),
    "pair inclusion: pairs match": (
        ref_pair, [("g1", "a", "1"), ("g1", "b", "2")], [("g1", "b", "2")],
        True, True),
    "pair inclusion: mid matches, score does not": (
        ref_pair, [("g1", "a", "1")], [("g1", "a", "2")], False, True),
    "pair inclusion: NULL later field never matches": (
        ref_pair, [("g1", "a", None)], [("g1", "a", None)], False, False),
    "static empty right: a member": (
        no_target, [("g1", "a", "1")], [], False, True),
    "static empty right: no member": (no_target, [], [], True, True),
}


def step_tables(graph, members, refs) -> dict:
    """What the three step nodes would have produced for these rows."""
    group_ids = {gid: index + 1 for index, gid in enumerate(GROUPS)}

    def child_rows(name, rows):
        assert graph.nodes[name].output_columns == ("mid", "score",
                                                    "__parent")
        return ResultSet(["mid", "score", "__parent", ID_COLUMN],
                         [(mid, score, group_ids[gid], index + 1)
                          for index, (gid, mid, score) in enumerate(rows)])

    return {
        "root/group": ResultSet(["gid", ID_COLUMN],
                                list(group_ids.items())),
        "root/group/members/member": child_rows(
            "root/group/members/member", members),
        "root/group/refs/ref": child_rows("root/group/refs/ref", refs),
    }


@pytest.mark.parametrize("label", VERDICT_CASES)
def test_fused_guard_verdict_is_the_conceptual_guards(label):
    constrain, members, refs, holds, ask = VERDICT_CASES[label]
    spec = specialize(build_ref_aig(constrain))
    graph, _ = build_qdg(spec)
    assert not [n for n in graph.nodes.values() if n.kind == "collect"]
    (guard,) = [n for n in graph.nodes.values() if n.kind == "guard"]
    engine = Engine(graph, {}, {}, Network.mbps(1.0))
    try:
        _, outputs, _ = engine._execute(
            guard, step_tables(graph, members, refs), {})
    finally:
        engine.cleanup()
        engine.mediator.close()
    assert (len(outputs[guard.name]) == 0) is holds
    if ask:
        source = DataSource(REF_SCHEMA)
        source.load_rows("groups", [(gid,) for gid in GROUPS])
        source.load_rows("members", members)
        source.load_rows("refs", refs)
        evaluator = ConceptualEvaluator(spec.aig, [source],
                                        violation_mode="report")
        evaluator.evaluate({})
        assert (not evaluator.violations) is holds
        source.close()


@pytest.mark.parametrize("label, witness", [
    ("key: duplicate within a group", "group row __id=1, duplicated ('a',)"),
    ("pair inclusion: mid matches, score does not",
     "group row __id=1, missing ('a', '2')"),
])
def test_a_violated_guard_names_its_witness(label, witness, caplog,
                                            repro_log_propagation):
    """The first witness — the group row and the duplicated or missing
    value tuple — goes on the guard's span and into its warning; the
    aborted evaluation still lists only the constraint."""
    constrain, members, refs, holds, _ = VERDICT_CASES[label]
    assert not holds
    source = DataSource(REF_SCHEMA)
    source.load_rows("groups", [(gid,) for gid in GROUPS])
    source.load_rows("members", members)
    source.load_rows("refs", refs)
    tracer = Tracer()
    middleware = Middleware(build_ref_aig(constrain), {"S": source},
                            tracer=tracer)
    with caplog.at_level(logging.WARNING, logger="repro.executor"):
        with pytest.raises(EvaluationAborted) as aborted:
            middleware.evaluate({})
    assert aborted.value.violations == middleware.aig.constraints
    assert witness in caplog.text
    (span,) = tracer.spans_by_category("guard")
    assert span.attrs["witness"] == witness
    source.close()


def compound_hospital(violated: bool) -> AIG:
    """σ0 with a key and an inclusion over ``treatment``, which unfolding
    spreads over one branch per level on *both* sides of the inclusion."""
    aig = build_hospital_aig(with_constraints=False)
    aig.key("patient", "treatment", "trId")
    aig.inclusion("patient", "treatment", "trId",
                  "treatment", "tname" if violated else "trId")
    return aig.validate()


def refusal(middleware, root: dict) -> list[str]:
    """The constraints a run is refused for; ``[]`` when it answers."""
    try:
        middleware.evaluate(dict(root))
    except EvaluationAborted as refused:
        return [str(v) for v in refused.violations]
    return []


@pytest.mark.parametrize("violated", [False, True])
def test_fused_guards_over_multi_branch_collections(tiny_sources, violated):
    aig = compound_hospital(violated)
    middleware = Middleware(aig, tiny_sources, unfold_depth=3)
    refused = refusal(middleware, {"date": "d1"})
    guards = [n for n in middleware.prepare(3).graph.nodes.values()
              if n.kind == "guard"]
    assert len(guards) == 2
    for guard in guards:      # one branch per unfolded treatment level
        assert all(len(program.branches) >= 3
                   for program in guard.collections)
    assert sorted(len(g.collections) for g in guards) == [1, 2]
    evaluator = ConceptualEvaluator(
        specialize(aig).aig, list(tiny_sources.values()),
        violation_mode="report")
    evaluator.evaluate({"date": "d1"})
    assert sorted(refused) == sorted({str(v) for v in evaluator.violations})
    assert bool(refused) is violated


@pytest.mark.parametrize("duplicate", [None, "main", "readme"])
def test_fused_guard_over_choice_gated_branches(duplicate):
    """``fs(node.fname -> node)``: every nested node sits behind the
    ``content -> (file | dir)`` choice, so its branch joins the condition
    table of each enclosing choice."""
    rows = [(id_, parent, duplicate if id_ == "n5" and duplicate else fname,
             kind, size) for id_, parent, fname, kind, size in TREE_ROWS]
    aig, source = build_fs_aig(), load_fs(rows)
    middleware = Middleware(aig, {"FS": source}, unfold_depth=3)
    refused = refusal(middleware, {})
    (guard,) = [n for n in middleware.prepare(3).graph.nodes.values()
                if n.kind == "guard"]
    (program,) = guard.collections
    gates = [gate for branch in program.branches for gate in branch.gates]
    assert gates and all(table.startswith("cond:") for table, *_ in gates)
    assert any(name.startswith("cond:") for name in guard.inputs)
    evaluator = ConceptualEvaluator(specialize(aig).aig, [source],
                                    violation_mode="report")
    evaluator.evaluate({})
    assert bool(refused) is bool(evaluator.violations) \
        is (duplicate is not None)


# ----------------------------------------------------------------------
# shared work, counted: collections and indexes built per run
# ----------------------------------------------------------------------
def test_each_collection_and_index_is_built_once_per_run(tiny_sources):
    """A guard or collect node that reads a collection already built this
    run reuses it, and a climb reads one ``__id`` index per table."""
    tracer = Tracer()
    members = tuple((f"m{i}", str(10 + i)) for i in range(8))
    middleware = Middleware(build_group_aig(),
                            group_sources(groups=50, members=members),
                            tracer=tracer)
    middleware.evaluate({"run": "r"})
    guards = [n for n in middleware.last_plan.graph.nodes.values()
              if n.kind == "guard"]
    assert len(guards) == 7
    assert tracer.metrics.counter("collections_built") == 4
    assert tracer.metrics.counter("collection_indexes_built") == 0

    # hospital at depth 8: the collect bill.trIdS and guard 2 read the same
    # treatment chain, climbed through seven tables
    tracer = Tracer()
    middleware = Middleware(build_hospital_aig(), tiny_sources,
                            unfold_depth=8, tracer=tracer)
    middleware.evaluate({"date": "d1"})
    graph = middleware.last_plan.graph
    (collect,) = [n for n in graph.nodes.values() if n.kind == "collect"]
    chain = {table for node in graph.nodes.values()
             for program in node.collections
             for branch in program.branches for table in branch.climb}
    (left, _) = next(node.collections for node in graph.nodes.values()
                     if len(node.collections) == 2)
    assert left.branches == collect.collections[0].branches
    assert len(chain) == 7
    assert tracer.metrics.counter("collection_indexes_built") == 7
    # the treatment chain once, the bill items once
    assert tracer.metrics.counter("collections_built") == 2


# ----------------------------------------------------------------------
# the anchor is joined only for what a query reads
# ----------------------------------------------------------------------
def rendered(node) -> str:
    """A step's SQL with every input bound to its producer's name."""
    from repro.sqlq.render import render_sqlite
    values = {param: "?" for param in node.root_params}
    return render_sqlite(node.query, values,
                         {name: name for name in node.inputs})[0]


def test_an_uncorrelated_members_query_runs_once_beside_a_product():
    middleware = Middleware(build_group_aig(), group_sources(), merging=False)
    graph = middleware.prepare().graph
    product = graph.nodes["root/group/members/member"]
    assert product.kind == "product" and product.source == MEDIATOR_NAME
    assert product.inputs == ("root/group/members/member.q", "root/group")
    assert product.output_columns == ("mid", "score", "__parent")
    step = graph.nodes[product.inputs[0]]
    assert step.kind == "step" and step.source == "S"
    assert not step.ship_to_mediator
    assert "__ctx" not in rendered(step)
    assert rendered(step) == ('SELECT "m"."mid" AS "mid", "m"."score" AS '
                              '"score" FROM "members" AS "m"')
    assert graph.consumers(step.name) == [product]

    # each member row once per group, anchor-major, numbered 1..n
    result = middleware.evaluate({"run": "r"})
    rows = middleware._last_result.cache[product.name].rows
    assert rows == [(mid, score, group, 3 * (group - 1) + index)
                    for group in range(1, 7)
                    for index, (mid, score) in enumerate(
                        (("m1", "10"), ("m2", "20"), ("m3", "30")), 1)]
    conceptual = ConceptualEvaluator(
        middleware.aig, list(middleware.sources.values())).evaluate(
            {"run": "r"})
    from repro.xmlmodel import serialize
    assert serialize(result.document) == serialize(conceptual)


def test_a_projected_root_parameter_stays_a_parameter(hospital_aig,
                                                      tiny_sources):
    """Hospital Q1 projects ``$date as date``; the DB1 visit step binds
    the date itself instead of joining it back from the patient table."""
    graph = Middleware(hospital_aig, tiny_sources).prepare(3).graph
    (step,) = [member for node in graph.nodes.values()
               for member in getattr(node, "members", None) or (node,)
               if member.name.endswith("treatment#2.s1")]
    assert step.source == "DB1"
    assert step.root_params == {"date": "date"}
    sql = rendered(step)
    assert '"i"."date" = ?' in sql
    assert '"__ctx"."date"' not in sql
    # the SSN is still the patient row's: that join stays
    assert '"i"."SSN" = "__ctx"."SSN"' in sql
    assert graph.propagated == 1
    assert not [node for node in graph.nodes.values()
                if node.kind == "product"]


EDGE_DTD = """
<!ELEMENT root (group*)>
<!ELEMENT group (gid, kind, members, tags)>
<!ELEMENT kind (plain | bare)>
<!ELEMENT plain (item*)>
<!ELEMENT bare EMPTY>
<!ELEMENT item (name)>
<!ELEMENT members (member*)>
<!ELEMENT member (mid, subs)>
<!ELEMENT subs (sub*)>
<!ELEMENT sub (name)>
<!ELEMENT tags (tag*)>
<!ELEMENT tag (mid)>
<!ELEMENT gid (#PCDATA)>
<!ELEMENT mid (#PCDATA)>
<!ELEMENT name (#PCDATA)>
"""
EDGE_SCHEMA = SourceSchema("S", (
    relation("groups", "gid", "kind"), relation("items", "name"),
    relation("members", "mid"), relation("subs", "gid", "name"),
    relation("tags", "mid")))


def build_edge_aig() -> AIG:
    """Three queries that read no column of their anchor's table yet must
    join it: one under a choice, one over a set parameter grouped by the
    anchor, one reading a column its producer projects from a higher
    table."""
    from repro.aig import ChoiceBranch, collect, singleton, syn
    aig = AIG(parse_dtd(EDGE_DTD), Catalog([EDGE_SCHEMA]))
    aig.inh("group", "gid", "kind")
    aig.inh("kind", "gid")
    aig.inh("plain", "gid")
    aig.inh("item", "name")
    aig.inh("members", "gid")
    aig.inh("member", "gid", "mid")
    aig.inh("subs", "gid")
    aig.inh("sub", "name")
    aig.inh("tags", sets={"mids": ("mid",)})
    aig.inh("tag", "mid")
    aig.syn("members", sets={"mids": ("mid",)})
    aig.syn("member", sets={"mids": ("mid",)})
    aig.rule("root", inh={"group": query(
        "select g.gid, g.kind from S:groups g")})
    aig.rule("group", inh={
        "gid": assign(val=inh("gid")), "kind": assign(gid=inh("gid")),
        "members": assign(gid=inh("gid")),
        "tags": assign(mids=syn("members", "mids"))})
    aig.rule("kind", condition=query(
        "select g.kind from S:groups g where g.gid = $gid"),
        branches={"plain": ChoiceBranch(inh=assign(gid=inh("gid"))),
                  "bare": ChoiceBranch(inh=assign())})
    # gated: reads nothing of the group, but only where `plain` was picked
    aig.rule("plain", inh={"item": query("select i.name from S:items i")})
    aig.rule("item", inh={"name": assign(val=inh("name"))})
    # projects the group's gid: a higher table's column, not a root value
    aig.rule("members", inh={"member": query(
        "select $gid as gid, m.mid from S:members m")},
        syn=assign(mids=collect("member", "mids")))
    aig.rule("member", inh={"mid": assign(val=inh("mid")),
                            "subs": assign(gid=inh("gid"))},
             syn=assign(mids=singleton(mid=syn("mid", "val"))))
    aig.rule("subs", inh={"sub": query(
        "select s.name from S:subs s where s.gid = $gid")})
    aig.rule("sub", inh={"name": assign(val=inh("name"))})
    # a set parameter grouped by the group row
    aig.rule("tags", inh={"tag": query(
        "select t.mid from S:tags t where t.mid in $mids")})
    aig.rule("tag", inh={"mid": assign(val=inh("mid"))})
    return aig.validate()


def edge_sources() -> dict:
    source = DataSource(EDGE_SCHEMA)
    source.load_rows("groups", [("g0", "1"), ("g1", "2"), ("g2", "1")])
    source.load_rows("items", [("a",), ("b",)])
    source.load_rows("members", [("m1",), ("m2",)])
    source.load_rows("subs", [("g0", "s0"), ("g1", "s1"), ("g1", "s2")])
    source.load_rows("tags", [("m1",), ("m3",)])
    return {"S": source}


@pytest.mark.parametrize("merging", [True, False])
def test_a_query_joins_its_anchor_where_it_must(merging):
    from repro.xmlmodel import serialize
    middleware = Middleware(build_edge_aig(), edge_sources(),
                            merging=merging)
    result = middleware.evaluate({})
    graph = middleware.last_plan.graph
    assert not [node for node in graph.nodes.values()
                if node.kind == "product"]
    assert graph.propagated == 0
    steps = {node.name.rsplit("/", 1)[-1]: node
             for node in graph.nodes.values() for node in
             (getattr(node, "members", None) or (node,))
             if node.kind == "step"}
    # gated: joins the condition table and, through it, the group row
    assert '"__cond0"."__parent" = "__ctx"."__id"' in rendered(steps["item"])
    # grouped by the group row
    assert '"__set_mids"."__group" = "__ctx"."__id"' in rendered(
        steps["tag"])
    # the gid chased to the group table: read from the member row
    assert '"s"."gid" = "__ctx"."gid"' in rendered(steps["sub"])
    assert steps["sub"].inputs == ("root/group/members/member",)
    conceptual = ConceptualEvaluator(
        middleware.aig, list(middleware.sources.values())).evaluate({})
    assert serialize(result.document) == serialize(conceptual)

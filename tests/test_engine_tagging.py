"""Unit tests for runtime internals: engine mechanics and the tagging phase."""

import pytest

from repro.errors import PlanError
from repro.compilation import specialize
from repro.optimizer import CostModel, build_qdg, merge, schedule
from repro.optimizer.merge import merge_pair, MergedNode
from repro.relational import (DataSource, Network, ResultSet,
                              SourceSchema, StatisticsCatalog)
from repro.relational.schema import relation
from repro.relational.source import MEDIATOR_NAME
from repro.runtime import Middleware, unfold_aig
from repro.runtime.engine import Engine, ID_COLUMN, _with_ids
from repro.runtime.tagging import _Table, build_document
from repro.xmlmodel import conforms_to


def build_pipeline(hospital_aig, sources, merging=False, depth=3):
    stats = StatisticsCatalog.from_sources(list(sources.values()))
    spec = specialize(unfold_aig(hospital_aig, depth), stats)
    graph, tagging_plan = build_qdg(spec, stats)
    model = CostModel(stats)
    network = Network.mbps(1.0)
    if merging:
        graph, plan, _, _ = merge(graph, model, network)
    else:
        estimates = model.estimate_graph(graph)
        plan = schedule(graph, estimates, network)
    return graph, plan, tagging_plan, network


class TestEngine:
    def test_with_ids_appends_unique_ids(self):
        result = _with_ids(ResultSet(["a"], [("x",), ("y",)]))
        assert result.columns == ["a", ID_COLUMN]
        assert result.column(ID_COLUMN) == [1, 2]

    def test_with_ids_idempotent(self):
        once = _with_ids(ResultSet(["a"], [("x",)]))
        assert _with_ids(once) is once

    def test_cache_holds_every_node_output(self, hospital_aig, tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        for name in graph.nodes:
            assert name in result.cache

    def test_merged_member_slices_cached_separately(self, hospital_aig,
                                                    tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(
            hospital_aig, tiny_sources, merging=True)
        merged_names = [name for name, node in graph.nodes.items()
                        if isinstance(node, MergedNode)]
        if not merged_names:
            pytest.skip("merge found no beneficial pair on this graph")
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        for name in merged_names:
            for member in graph.nodes[name].members:
                assert member.name in result.cache
                assert ID_COLUMN in result.cache[member.name].columns

    def test_timings_and_bytes_recorded(self, hospital_aig, tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        assert result.queries_executed == len(graph)
        assert result.response_time > 0
        assert all(t.eval_seconds >= 0 for t in result.timings.values())

    def test_bad_plan_rejected(self, hospital_aig, tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        broken = {source: [] for source in plan}
        with pytest.raises(PlanError):
            Engine(graph, broken, tiny_sources, network).run({"date": "d1"})

    def test_overhead_affects_clock_not_wall(self, hospital_aig,
                                             tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        cheap = Engine(graph, plan, tiny_sources, network,
                       query_overhead=0.0).run({"date": "d1"})
        costly = Engine(graph, plan, tiny_sources, network,
                        query_overhead=2.0).run({"date": "d1"})
        assert costly.response_time > cheap.response_time + 1.0

    def test_mediator_nodes_run_without_shipping(self, hospital_aig,
                                                 tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        mediator_nodes = [t for t in result.timings.values()
                          if t.source == MEDIATOR_NAME]
        assert mediator_nodes  # collect + guard nodes


class TestShipOnce:
    def test_shared_registry_creates_table_once(self):
        source = DataSource(SourceSchema("P", (relation("r", "a"),)))
        engine = Engine.__new__(Engine)   # only _materialize_inputs needed
        cache = {"n": ResultSet(["a"], [(1,), (2,)])}
        shipped = {}
        first, rows_first = engine._materialize_inputs(
            ["n"], source, cache, shipped)
        second, rows_second = engine._materialize_inputs(
            ["n"], source, cache, shipped)
        assert first == second                   # same physical table reused
        assert rows_first == rows_second == 2    # modeled charge per consumer
        assert source._temp_counter == 1
        source.close()


class TestTaggingTable:
    def test_grouping_by_parent(self):
        result = ResultSet(["v", "__parent", "__id"],
                           [("b", 1, 10), ("a", 1, 11), ("c", 2, 12)])
        table = _Table(result, ["v"])
        assert [row[0] for row in table.rows_for(1)] == ["a", "b"]
        assert [row[0] for row in table.rows_for(2)] == ["c"]
        assert table.rows_for(99) == []

    def test_no_parent_column_single_group(self):
        result = ResultSet(["v", "__id"], [("x", 1), ("y", 2)])
        table = _Table(result, ["v"])
        assert len(table.rows_for(None)) == 2

    def test_sort_none_first(self):
        result = ResultSet(["v", "__id"], [("b", 1), (None, 2), ("a", 3)])
        table = _Table(result, ["v"])
        assert [row[0] for row in table.rows_for(None)] == [None, "a", "b"]

    def test_value_accessor(self):
        result = ResultSet(["v", "w", "__id"], [("x", "y", 1)])
        table = _Table(result, [])
        row = table.rows_for(None)[0]
        assert row[table.index_of("w")] == "y"


class TestTaggingDocument:
    def test_rebuild_from_cache(self, hospital_aig, tiny_sources):
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        document = build_document(tagging_plan, result.cache, {"date": "d1"})
        # tags still carry unfolding suffixes at this stage
        assert document.tag.startswith("report")
        from repro.runtime import strip_unfolding
        strip_unfolding(document)
        assert conforms_to(document, hospital_aig.dtd)

    def test_missing_table_reported(self, hospital_aig, tiny_sources):
        from repro.errors import EvaluationError
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        cache = dict(result.cache)
        victim = next(iter(tagging_plan.table_of.values()))
        del cache[victim]
        with pytest.raises(EvaluationError):
            build_document(tagging_plan, cache, {"date": "d1"})

    def test_tagging_is_pure(self, hospital_aig, tiny_sources):
        """Tagging twice from the same cache yields equal documents."""
        graph, plan, tagging_plan, network = build_pipeline(hospital_aig,
                                                            tiny_sources)
        engine = Engine(graph, plan, tiny_sources, network)
        result = engine.run({"date": "d1"})
        first = build_document(tagging_plan, result.cache, {"date": "d1"})
        second = build_document(tagging_plan, result.cache, {"date": "d1"})
        assert first == second


# ---------------------------------------------------------------------------
# Merged statements: windows only where a sibling inlines, split in C passes
# ---------------------------------------------------------------------------

EIGHT_MEMBERS = tuple((f"m{i}", str(10 + i)) for i in range(8))


def groups_middleware(groups, **kwargs):
    from tests.test_mediator_resident import build_group_aig, group_sources
    return Middleware(build_group_aig(),
                      group_sources(groups, EIGHT_MEMBERS), **kwargs)


def tiny_hospital_middleware(**kwargs):
    from repro.hospital import build_hospital_aig, make_sources
    from tests.conftest import load_tiny_hospital
    sources = make_sources()
    load_tiny_hospital(sources)
    return Middleware(build_hospital_aig(), sources, **kwargs)


GROUPS_ROOT = {"run": "1"}
TINY_ROOTS = ({"date": "d1"}, {"date": "d2"})


def spy_merged(monkeypatch, transform=None):
    """Record ``(node, sql, result)`` for every merged statement; a
    ``transform`` replaces the fetched result before the split sees it."""
    seen = []
    run = Engine._execute_merged

    def spy(self, node, source, *args, **kwargs):
        execute = source.execute

        def capture(sql, params=(), **options):
            result = execute(sql, params, **options)
            if transform is not None:
                result = transform(result)
            seen.append((node, sql, result))
            return result

        source.execute = capture
        try:
            return run(self, node, source, *args, **kwargs)
        finally:
            del source.execute

    monkeypatch.setattr(Engine, "_execute_merged", spy)
    return seen


def inlined_members(node) -> set:
    names = {member.name for member in node.members}
    return {name for member in node.members for name in member.inputs
            if name in names}


def slices(middleware) -> dict:
    """Every member slice of the last run's merged nodes."""
    cache = middleware._last_result.cache
    return {member.name: cache[member.name]
            for node in middleware.last_plan.graph.nodes.values()
            for member in getattr(node, "members", ())}


def document_bytes(middleware, root) -> str:
    from repro.xmlmodel import serialize
    return serialize(middleware.evaluate(root).document)


def round_robin(result):
    """The fetched rows with the members interleaved, last member first;
    each member keeps its own order."""
    from itertools import zip_longest
    by_tag: dict = {}
    for row in result.rows:
        by_tag.setdefault(row[0], []).append(row)
    rows = [row for turn in zip_longest(*reversed(by_tag.values()))
            for row in turn if row is not None]
    return ResultSet(result.columns, rows)


class TestMergedStatement:
    def test_groups_statement_has_one_window(self, monkeypatch):
        seen = spy_merged(monkeypatch)
        groups_middleware(50).evaluate(GROUPS_ROOT)
        ((node, sql, _),) = seen
        assert len(node.members) == 2
        assert sql.count("ROW_NUMBER") == 1
        # the discriminator is the member's index, no name is quoted in
        for member in node.members:
            assert f"'{member.name}'" not in sql

    def test_hospital_statements_window_each_inlined_member(self,
                                                            monkeypatch):
        seen = spy_merged(monkeypatch)
        tiny_hospital_middleware().evaluate(TINY_ROOTS[0])
        assert seen
        for node, sql, _ in seen:
            assert sql.count("ROW_NUMBER") == len(inlined_members(node))
        assert any(len(inlined_members(node)) < len(node.members)
                   for node, _, _ in seen)

    def test_tags_are_member_indexes(self, monkeypatch):
        seen = spy_merged(monkeypatch)
        groups_middleware(50).evaluate(GROUPS_ROOT)
        ((node, _, result),) = seen
        assert {row[0] for row in result.rows} == {0, 1}

    def test_unreferenced_member_ids_count_from_one(self):
        for middleware, root in ((groups_middleware(50), GROUPS_ROOT),
                                 (tiny_hospital_middleware(),
                                  TINY_ROOTS[0])):
            middleware.evaluate(root)
            cache = middleware._last_result.cache
            checked = 0
            for node in middleware.last_plan.graph.nodes.values():
                members = getattr(node, "members", ())
                for member in members:
                    if member.name in inlined_members(node):
                        continue
                    result = cache[member.name]
                    assert result.columns[-1] == ID_COLUMN
                    assert result.column(ID_COLUMN) == list(
                        range(1, len(result) + 1))
                    checked += 1
            assert checked

    @pytest.mark.parametrize("seed, shape", [
        (1, "independent"),
        (22, "one-column unreferenced member"),
        (16, "unreferenced condition member"),
        (35, "inlined condition member"),
    ])
    def test_fuzz_merges_give_the_unmerged_slices(self, seed, shape):
        from repro.fuzz.generator import generate_scenario
        from repro.fuzz.spec import build_scenario
        spec = generate_scenario(seed)
        runs = {}
        for merging in (True, False):
            aig, sources = build_scenario(spec)
            middleware = Middleware(aig, sources, violation_mode="report",
                                    merging=merging)
            middleware.evaluate(dict(spec.root_values))
            runs[merging] = middleware
        merged = [node for node in runs[True].last_plan.graph.nodes.values()
                  if getattr(node, "members", None)]
        members = [(member, node) for node in merged
                   for member in node.members]
        inlined = set().union(*map(inlined_members, merged))
        if shape == "independent":
            assert not inlined
        elif shape == "one-column unreferenced member":
            assert any(len(member.output_columns) == 1
                       and member.name not in inlined
                       for member, _ in members)
        else:
            windowed = shape.startswith("inlined")
            assert any(member.kind == "condition"
                       and (member.name in inlined) == windowed
                       for member, _ in members)
        unmerged = runs[False]._last_result.cache
        for name, result in slices(runs[True]).items():
            assert result.columns == unmerged[name].columns, name
            assert result.rows == unmerged[name].rows, name

    def test_merged_documents_equal_unmerged(self):
        assert (document_bytes(groups_middleware(200), GROUPS_ROOT)
                == document_bytes(groups_middleware(200, merging=False),
                                  GROUPS_ROOT))
        merged = tiny_hospital_middleware()
        unmerged = tiny_hospital_middleware(merging=False)
        for root in TINY_ROOTS:
            assert document_bytes(merged, root) == document_bytes(unmerged,
                                                                  root)
        assert merged.last_plan.merged and not unmerged.last_plan.merged

    @pytest.mark.parametrize("case", ["groups", "hospital"])
    def test_split_does_not_depend_on_union_order(self, case, monkeypatch):
        if case == "groups":
            make, roots = (lambda: groups_middleware(50)), (GROUPS_ROOT,)
        else:
            make, roots = tiny_hospital_middleware, TINY_ROOTS
        expected = []
        for root in roots:
            middleware = make()
            expected.append((document_bytes(middleware, root),
                             slices(middleware)))
        seen = spy_merged(monkeypatch, transform=round_robin)
        for root, (xml, member_slices) in zip(roots, expected):
            middleware = make()
            assert document_bytes(middleware, root) == xml
            shuffled = slices(middleware)
            assert shuffled.keys() == member_slices.keys()
            for name, result in shuffled.items():
                assert result.columns == member_slices[name].columns
                assert result.rows == member_slices[name].rows
        # the interleaving really reordered the fetched rows
        tags = [[row[0] for row in result.rows] for _, _, result in seen]
        assert any(order != sorted(order) for order in tags)

    def test_measured_rows_count_only_member_slices(self):
        middleware = groups_middleware(50)
        middleware.evaluate(GROUPS_ROOT)
        (node,) = [node for node in middleware.last_plan.graph.nodes.values()
                   if getattr(node, "members", None)]
        member_slices = slices(middleware)
        (entry,) = [entry for entry in
                    middleware.calibration_report().nodes
                    if entry.name == node.name]
        assert entry.measured_rows == sum(map(len, member_slices.values()))
        assert entry.measured_rows == 50 + 50 * 8
        assert entry.measured_bytes == sum(
            result.width_bytes() for result in member_slices.values())

    def test_a_skipped_merged_node_has_the_executed_shape(self):
        from repro.runtime.executor import _empty_outputs
        middleware = groups_middleware(50)
        middleware.evaluate(GROUPS_ROOT)
        cache = middleware._last_result.cache
        (node,) = [node for node in middleware.last_plan.graph.nodes.values()
                   if getattr(node, "members", None)]
        empty = _empty_outputs(node)
        assert empty.keys() == {node.name} | {m.name for m in node.members}
        for name, result in empty.items():
            assert result.columns == cache[name].columns
        assert empty[node.name].rows == cache[node.name].rows

    def test_split_calls_do_not_grow_with_rows(self):
        """Python calls (``call`` and ``c_call`` profile events) made
        inside ``_execute_merged``: the same at 50 and 200 groups (450 and
        1 800 fetched rows)."""
        import gc
        import sys
        target = Engine._execute_merged.__code__

        def events_at(groups):
            middleware = groups_middleware(groups)
            middleware.evaluate(GROUPS_ROOT)     # cold: plan, statistics
            counts = []
            inside = False

            def profiler(frame, event, arg):
                nonlocal inside
                if frame.f_code is target and event in ("call", "return"):
                    inside = event == "call"
                    if inside:
                        counts.append(0)
                elif inside and event in ("call", "c_call"):
                    counts[-1] += 1

            # a collection would run its callbacks inside the window
            gc.disable()
            sys.setprofile(profiler)
            try:
                middleware.evaluate(GROUPS_ROOT)
            finally:
                sys.setprofile(None)
                gc.enable()
            (count,) = counts
            return count

        small, large = events_at(50), events_at(200)
        assert small == large

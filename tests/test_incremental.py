"""Incremental re-evaluation tests (docs/INCREMENTAL.md).

Version-stamped result caching must never change the answer.  A warm
re-evaluation replays cached node results (zero queries on the sources)
and tags a fresh document from them, yet the output stays byte-identical
to a cold run — across worker counts, violation modes, root-attribute
changes, and injected faults.  A failed run must never commit partial
results into the cache.
"""

import logging

import pytest

from repro.aig import AIG, assign, inh, query, singleton
from repro.aig.functions import Const
from repro.dtd import parse_dtd
from repro.errors import (EvaluationAborted, EvaluationError,
                          SourceUnavailableError)
from repro.hospital import build_hospital_aig, make_sources
from repro.datagen import make_loaded_sources
from repro.relational import Catalog, DataSource, Network, ResultSet
from repro.relational.statistics import StatisticsCatalog
from repro.resilience import FaultInjector
from repro.runtime import Middleware
from repro.runtime.incremental import (BINDINGS_PER_NODE,
                                      compute_fingerprints, plan_increment)
from repro.xmlmodel import serialize
from tests.conftest import load_tiny_hospital, pending_groups
from tests.test_mediator_resident import (HDR_SCHEMA, conceptual,
                                          hdr_middleware)

ITEMS_DTD = """
<!ELEMENT root (items, all)>
<!ELEMENT items (item*)>
<!ELEMENT all (item*)>
<!ELEMENT item (#PCDATA)>
"""


def _middleware(sources, **kwargs):
    kwargs.setdefault("incremental", True)
    kwargs.setdefault("unfold_depth", 8)
    return Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                      **kwargs)


def _cold_document(sources, date, **kwargs):
    """Serialize a from-scratch evaluation over the sources as they are."""
    kwargs.setdefault("incremental", False)
    report = _middleware(sources, **kwargs).evaluate({"date": date})
    return serialize(report.document)


class TestVersionCounters:
    def test_load_rows_bumps_the_loaded_relation(self):
        sources = make_sources()
        before = sources["DB1"].table_version("patient")
        sources["DB1"].load_rows("patient", [("s9", "Zoe", "p9")])
        assert sources["DB1"].table_version("patient") == before + 1
        assert sources["DB1"].table_version("visitInfo") == 1

    def test_write_bumps_only_the_matched_table(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        billing = sources["DB3"].table_version("billing")
        sources["DB3"].execute("UPDATE billing SET price='1' WHERE trId='t1'")
        assert sources["DB3"].table_version("billing") == billing + 1

    def test_select_does_not_bump(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        before = sources["DB3"].table_versions()
        sources["DB3"].execute("SELECT * FROM billing")
        assert sources["DB3"].table_versions() == before

    def test_temp_table_shipment_does_not_bump(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        before = sources["DB3"].table_versions()
        sources["DB3"].create_temp_table(["a"], [(1,), (2,)])
        assert sources["DB3"].table_versions() == before

    def test_unattributable_write_bumps_everything(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        before = sources["DB1"].table_versions()
        sources["DB1"].execute_script("CREATE TABLE scratch(x)")
        after = sources["DB1"].table_versions()
        assert all(after[name] == before[name] + 1 for name in before)

    def test_statistics_catalog_exposes_versions(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        stats = StatisticsCatalog.from_sources(list(sources.values()))
        assert stats.table_version("DB1", "patient") == \
            sources["DB1"].table_version("patient")
        sources["DB1"].load_rows("patient", [("s9", "Zoe", "p9")])
        # live read, not a snapshot taken at registration time
        assert stats.table_version("DB1", "patient") == \
            sources["DB1"].table_version("patient")
        assert stats.table_version("nowhere", "patient") == 0


class TestWarmReuse:
    def test_no_delta_rerun_executes_zero_queries(self):
        sources, dataset = make_loaded_sources("tiny", seed=31)
        middleware = _middleware(sources)
        date = dataset.busiest_date()
        cold = middleware.evaluate({"date": date})
        warm = middleware.evaluate({"date": date})
        assert warm.queries_executed == 0
        assert warm.tainted_nodes == 0
        assert warm.reused_nodes == cold.node_count
        assert serialize(warm.document) == serialize(cold.document)

    def test_cold_incremental_run_matches_plain_run(self):
        sources, dataset = make_loaded_sources("tiny", seed=31)
        date = dataset.busiest_date()
        plain = _middleware(sources, incremental=False).evaluate(
            {"date": date})
        cached = _middleware(sources).evaluate({"date": date})
        assert serialize(cached.document) == serialize(plain.document)
        assert cached.queries_executed == plain.queries_executed


class TestDeltaReevaluation:
    def test_data_delta_reexecutes_only_the_tainted_cone(self):
        sources, dataset = make_loaded_sources("tiny", seed=32)
        middleware = _middleware(sources)
        date = dataset.busiest_date()
        cold = middleware.evaluate({"date": date})
        sources["DB3"].execute(
            "UPDATE billing SET price = price + 1 WHERE rowid % 10 = 0")
        warm = middleware.evaluate({"date": date})
        assert 0 < warm.queries_executed < cold.queries_executed
        assert warm.reused_nodes > 0
        assert warm.tainted_nodes == cold.node_count - warm.reused_nodes
        assert serialize(warm.document) == _cold_document(sources, date)

    def test_root_attribute_delta_is_correct(self):
        sources, dataset = make_loaded_sources("tiny", seed=33)
        dates = sorted({row[2] for row in dataset.visit_info})[:2]
        middleware = _middleware(sources)
        middleware.evaluate({"date": dates[0]})
        warm = middleware.evaluate({"date": dates[1]})
        assert warm.tainted_nodes > 0
        assert serialize(warm.document) == _cold_document(sources, dates[1])

    def test_unmerged_delta_splices_clean_subtrees(self):
        # Algorithm Merge couples the hospital cones into shared merged
        # nodes, so the clean cone is largest with merging off.
        sources, dataset = make_loaded_sources("tiny", seed=34)
        middleware = _middleware(sources, merging=False)
        date = dataset.busiest_date()
        middleware.evaluate({"date": date})
        sources["DB3"].execute(
            "UPDATE billing SET price = price + 1 WHERE rowid % 10 = 0")
        warm = middleware.evaluate({"date": date})
        assert warm.reused_nodes > 0
        assert serialize(warm.document) == \
            _cold_document(sources, date, merging=False)


class TestBindingKeyedStore:
    """The store keys an entry by node name *and* root binding: a miss on
    one date after a write replays what the write left clean, whatever
    date ran last."""

    @staticmethod
    def stored(middleware, root: dict) -> dict:
        """node name -> the entry the store holds for ``root``'s binding."""
        graph = middleware.last_plan.graph
        store = middleware._result_caches[middleware.last_plan.depth]
        return plan_increment(graph, store, *compute_fingerprints(
            graph, middleware.sources, root)).reusable

    def test_a_write_between_two_dates_leaves_both_replayable(self):
        sources, dataset = make_loaded_sources("tiny", seed=36)
        dates = sorted({row[2] for row in dataset.visit_info})[:2]
        middleware = _middleware(sources)
        for date in dates:
            middleware.evaluate({"date": date})
        sources["DB3"].execute(
            "UPDATE billing SET price = price + 1 WHERE rowid % 10 = 0")
        for date in dates:
            delta = middleware.evaluate({"date": date})
            assert delta.reused_nodes > 0, date
            assert serialize(delta.document) == _cold_document(sources, date)
        again = middleware.evaluate({"date": dates[0]})
        assert again.queries_executed == 0
        assert serialize(again.document) == _cold_document(sources, dates[0])

    def test_each_node_keeps_its_least_recently_used_bindings(self):
        middleware, _ = hdr_middleware(b=Const("k"), incremental=True)
        middleware.evaluate({"p": "v0", "q": "y"})
        store = middleware._result_caches[middleware.last_plan.depth]
        graph = middleware.last_plan.graph
        guard = next(node.name for node in graph.nodes.values()
                     if node.kind == "guard")
        (step,) = set(graph.nodes) - {guard}
        for index in range(1, BINDINGS_PER_NODE):
            middleware.evaluate({"p": f"v{index}", "q": "y"})
            assert len(store.bindings(guard)) == index + 1
        # v0, the oldest binding, is used again: v1 becomes the eldest
        assert middleware.evaluate({"p": "v0", "q": "y"}).queries_executed \
            == 0
        middleware.evaluate({"p": f"v{BINDINGS_PER_NODE}", "q": "y"})
        held = store.bindings(guard)
        assert len(held) == BINDINGS_PER_NODE
        assert frozenset({("p", "'v1'")}) not in held
        assert held[-2:] == [frozenset({("p", "'v0'")}),
                             frozenset({("p", f"'v{BINDINGS_PER_NODE}'")})]
        # the step reads no root value: one entry serves every root
        assert store.bindings(step) == [frozenset()]
        assert middleware.evaluate({"p": "v1", "q": "z"}).queries_executed \
            == 1
        assert len(store.bindings(guard)) == BINDINGS_PER_NODE

    def test_two_dates_hold_an_equal_string_once(self):
        sources, dataset = make_loaded_sources("tiny", seed=37)
        dates = sorted({row[2] for row in dataset.visit_info})[:2]
        middleware = _middleware(sources)
        for date in dates:
            middleware.evaluate({"date": date})
        first: dict = {}
        for entry in self.stored(middleware, {"date": dates[0]}).values():
            for result in entry.outputs.values():
                for row in result.rows:
                    for value in row:
                        if type(value) is str:
                            first.setdefault(value, value)
        shared = [value for entry in
                  self.stored(middleware, {"date": dates[1]}).values()
                  for result in entry.outputs.values()
                  for row in result.rows for value in row
                  if type(value) is str and len(value) > 1 and value in first]
        assert shared
        assert all(value is first[value] for value in shared)


class TestTaggingCost:
    def test_one_element_construction_per_document_element(self, monkeypatch):
        # Alternating root attributes is the traffic shape the deleted
        # subtree memo lost on: every iteration subtree was deep-copied
        # at every nesting level (~6x the document in constructions).
        # An element is made by XMLElement(...) or by the trusted
        # constructor the tree sink uses; both are counted.  A fragment
        # group that is an element's whole content is made on first read,
        # so the count is taken after a walk that reads every element:
        # each is made exactly once, by the tree sink or by that read.
        from repro.xmlmodel import node
        constructed = []
        real_init, real_new = node.XMLElement.__init__, node.new_element

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            real_init(self, *args, **kwargs)

        def counting_new(*args):
            constructed.append(1)
            return real_new(*args)

        monkeypatch.setattr(node.XMLElement, "__init__", counting_init)
        monkeypatch.setattr(node, "new_element", counting_new)
        sources = make_sources()
        load_tiny_hospital(sources)
        middleware = _middleware(sources)
        held = {}
        for date in ("d1", "d2", "d1", "d2"):
            constructed.clear()
            document = middleware.evaluate({"date": date}).document
            assert len(constructed) == 1    # the root, its content unread
            document.children   # built as the tree sink leaves it
            unread = len(constructed)
            held[date] = len(pending_groups(document))
            elements = sum(1 for _ in document.iter())
            assert len(constructed) == elements > 1
            if held[date]:
                assert unread < elements
            else:
                assert unread == elements
        # d1's ``bill`` elements hold only their ``item`` groups
        assert held == {"d1": 2, "d2": 0}


class TestStreamReuse:
    def test_stream_after_source_write_reuses_and_matches_cold(self):
        sources, dataset = make_loaded_sources("tiny", seed=35)
        date = dataset.busiest_date()
        middleware = _middleware(sources)
        cold = middleware.evaluate_stream({"date": date}, lambda chunk: None,
                                          indent=2)
        sources["DB3"].execute(
            "UPDATE billing SET price = price + 1 WHERE rowid % 10 = 0")
        chunks: list[str] = []
        warm = middleware.evaluate_stream({"date": date}, chunks.append,
                                          indent=2)
        assert 0 < warm.queries_executed < cold.queries_executed
        fresh: list[str] = []
        _middleware(sources, incremental=False).evaluate_stream(
            {"date": date}, fresh.append, indent=2)
        assert "".join(chunks) == "".join(fresh)


    @pytest.mark.parametrize("stream_first", [True, False])
    def test_replayed_results_keep_the_writers_clean_flags(self, monkeypatch,
                                                           stream_first):
        # which columns need no escaping is learnt once per result: a
        # stored result keeps what its run learnt, whether the bytes were
        # written before the store took it (a stream) or after (an unread
        # document)
        learnt = []
        real = ResultSet.clean_columns

        def counting(result, indexes, characters):
            learnt.extend(index for index in indexes
                          if (index, characters) not in result._clean_cache)
            return real(result, indexes, characters)

        monkeypatch.setattr(ResultSet, "clean_columns", counting)
        sources, dataset = make_loaded_sources("tiny", seed=35)
        date = dataset.busiest_date()
        middleware = _middleware(sources)

        def written(stream: bool) -> int:
            if stream:
                middleware.evaluate_stream({"date": date}, lambda chunk: None,
                                           indent=2)
            else:
                serialize(middleware.evaluate({"date": date}).document,
                          indent=2)
            count = len(learnt)
            learnt.clear()
            return count

        cold = written(stream_first)
        assert cold > 0
        assert written(True) == written(False) == 0
        sources["DB3"].execute(
            "UPDATE billing SET price = price + 1 WHERE rowid % 10 = 0")
        assert 0 < written(not stream_first) < cold
        assert written(stream_first) == 0


class TestViolationModes:
    def test_a_refusal_resurfaces_on_the_warm_run(self):
        # a refused run commits nothing, so the repeat runs every guard
        # again and is refused naming the same constraint
        sources = make_sources()
        load_tiny_hospital(sources)
        sources["DB3"].execute_script("DELETE FROM billing WHERE trId='t4'")
        middleware = _middleware(sources)
        refusals = []
        for _ in range(2):
            with pytest.raises(EvaluationAborted) as refused:
                middleware.evaluate({"date": "d1"})
            refusals.append([str(v) for v in refused.value.violations])
        assert refusals[0] == refusals[1] == [
            str(middleware.aig.constraints[1])]
        assert len(middleware._result_caches[8]) == 0

    def test_abort_mode_failure_does_not_poison_the_cache(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        middleware = _middleware(sources)
        middleware.evaluate({"date": "d1"})
        # introduce a guard violation: the aborted run must not commit
        sources["DB3"].execute_script("DELETE FROM billing WHERE trId='t4'")
        with pytest.raises(EvaluationAborted):
            middleware.evaluate({"date": "d1"})
        # a date that avoids the violation still answers correctly
        report = middleware.evaluate({"date": "d2"})
        assert serialize(report.document) == _cold_document(sources, "d2")


class TestFaultInterplay:
    def test_transient_fault_during_delta_run_recovers_identically(self):
        """The delta run that meets the fault is refused; the next one,
        fault cleared, writes the cold post-delta document."""
        sources = make_sources()
        load_tiny_hospital(sources)
        middleware = _middleware(sources)
        middleware.evaluate({"date": "d1"})
        sources["DB3"].execute(
            "UPDATE billing SET price='999' WHERE trId='t1'")
        injector = FaultInjector.from_spec("DB3:error@1").install(sources)
        try:
            with pytest.raises(SourceUnavailableError, match="'DB3'"):
                middleware.evaluate({"date": "d1"})
        finally:
            injector.uninstall(sources)
        assert injector.fired, "fault never fired — spec index is stale"
        recovered = middleware.evaluate({"date": "d1"})
        assert serialize(recovered.document) == _cold_document(sources, "d1")

    def test_hard_failure_leaves_cache_usable(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        middleware = _middleware(sources)
        middleware.evaluate({"date": "d1"})
        sources["DB3"].execute(
            "UPDATE billing SET price='999' WHERE trId='t1'")
        # fault the source that IS in the tainted cone — clean sources are
        # never contacted on a delta run, so a fault there would not fire
        injector = FaultInjector.from_spec("DB3:down@1").install(sources)
        try:
            with pytest.raises(EvaluationError):
                middleware.evaluate({"date": "d1"})
        finally:
            injector.uninstall(sources)
        # the failed run committed nothing: the next run re-executes the
        # tainted cone and produces the correct post-delta document
        report = middleware.evaluate({"date": "d1"})
        assert serialize(report.document) == _cold_document(sources, "d1")


class TestInvalidation:
    def test_invalidate_plans_drops_result_caches_and_mediator_tables(self):
        sources, dataset = make_loaded_sources("tiny", seed=35)
        middleware = _middleware(sources)
        date = dataset.busiest_date()
        cold = middleware.evaluate({"date": date})
        assert middleware._result_caches
        # a run's own cache tables are dropped by engine cleanup; strand
        # one by hand to model a crash between runs
        middleware.mediator.create_temp_table(["x"], [(1,)], "cache_stranded")
        assert "cache_stranded" in middleware.mediator.table_names()
        middleware.invalidate_plans()
        assert middleware._result_caches == {}
        assert middleware.mediator.table_names() == []
        # the next evaluation is cold again — and still correct
        recold = middleware.evaluate({"date": date})
        assert recold.queries_executed == cold.queries_executed
        assert serialize(recold.document) == serialize(cold.document)


    def test_invalidate_plans_after_the_mediator_closed(
            self, caplog, repro_log_propagation):
        sources, dataset = make_loaded_sources("tiny", seed=35)
        middleware = _middleware(sources)
        middleware.evaluate({"date": dataset.busiest_date()})
        assert middleware._result_caches and middleware._prepared
        middleware.mediator.close()
        with caplog.at_level(logging.WARNING, logger="repro.middleware"):
            middleware.invalidate_plans()
        # plans and result caches go anyway; the failed sweep is logged
        assert middleware._result_caches == {}
        assert middleware._prepared == {}
        assert "sweeping the mediator failed" in caplog.text
        # both sweep steps wrap the engine's error and name the source
        with pytest.raises(EvaluationError,
                           match="'Mediator': listing tables failed"):
            middleware.mediator.table_names()
        with pytest.raises(EvaluationError,
                           match="'Mediator': dropping 'cache_1' failed"):
            middleware.mediator.drop_table("cache_1")


class TestProgramFingerprints:
    """A collect or guard node is fingerprinted by its collection programs
    and the values of the root attributes they name — read by name, hashed
    as data."""

    @staticmethod
    def tainted(middleware, before: dict, after: dict) -> set:
        """The nodes a change of root attributes re-taints, after a run."""
        middleware.evaluate(dict(before))
        graph = middleware.last_plan.graph
        store = middleware._result_caches[middleware.last_plan.depth]
        return plan_increment(graph, store, *compute_fingerprints(
            graph, middleware.sources, after)).tainted

    def test_a_root_attribute_only_a_guard_reads_taints_its_cone(self):
        middleware, _ = hdr_middleware(incremental=True)
        before, after = {"p": "x", "q": "y"}, {"p": "x2", "q": "y"}
        tainted = self.tainted(middleware, before, after)
        (guard,) = [n for n in middleware.last_plan.graph.nodes.values()
                    if n.kind == "guard"]
        assert tainted == middleware.last_plan.graph.taint_cone(
            [guard.name]) == {guard.name}
        report = middleware.evaluate(dict(after))
        assert (report.queries_executed, report.reused_nodes) == (1, 1)
        assert (serialize(report.document), []) == \
            conceptual(middleware, after)

    def test_a_root_attribute_only_a_collect_reads_taints_its_cone(self):
        aig = AIG(parse_dtd(ITEMS_DTD), Catalog([HDR_SCHEMA]),
                  root_inh=("p",))
        aig.inh("items", sets={"vals": ("x",)})
        aig.rule("root", inh={"items": assign(vals=singleton(x=inh("p"))),
                              "all": assign()})
        aig.rule("items", inh={"item": query(
            "select t.x as val from S:t t where t.x in $vals")})
        aig.rule("all", inh={"item": query("select t.x as val from S:t t")})
        source = DataSource(HDR_SCHEMA)
        source.load_rows("t", [("1",), ("2",)])
        middleware = Middleware(aig.validate(), {"S": source},
                                merging=False, incremental=True)
        tainted = self.tainted(middleware, {"p": "1"}, {"p": "2"})
        graph = middleware.last_plan.graph
        (collect,) = [n for n in graph.nodes.values() if n.kind == "collect"]
        assert collect.collections[0].root_members() == ["p"]
        assert tainted == graph.taint_cone([collect.name])
        assert collect.name in tainted and len(tainted) < len(graph)
        report = middleware.evaluate({"p": "2"})
        assert "<items><item>2</item></items>" in serialize(report.document)
        assert report.reused_nodes == len(graph) - len(tainted)

    def test_a_root_value_that_looks_like_a_slot_is_hashed_as_data(self):
        # the guard reads ``p`` only; ``p``'s value names ``q`` as text
        middleware, _ = hdr_middleware(b=Const("k"), incremental=True)
        before = {"p": "{root:q}", "q": "1"}
        assert self.tainted(middleware, before,
                            {"p": "{root:q}", "q": "2"}) == set()
        assert self.tainted(middleware, before,
                            {"p": "{root:q2}", "q": "1"}) != set()


class TestProductReuse:
    """A product node (a members query that reads nothing of its group,
    paired with every group row in process) is fingerprinted through its
    two producers: a write to either relation re-runs it, and it is
    replayed otherwise."""

    @pytest.mark.parametrize("merging", [True, False])
    @pytest.mark.parametrize("written", [None, "members", "groups"])
    def test_a_write_to_either_input_reruns_the_product(self, merging,
                                                        written):
        from repro.aig import ConceptualEvaluator
        from repro.obs import Tracer
        from tests.test_mediator_resident import (build_group_aig,
                                                  group_sources)
        tracer = Tracer()
        sources = group_sources()
        middleware = Middleware(build_group_aig(), sources, incremental=True,
                                merging=merging, tracer=tracer)
        middleware.evaluate({"run": "r"})
        (product,) = [node.name for node in
                      middleware.last_plan.graph.nodes.values()
                      if node.kind == "product"]
        assert len(tracer.spans_by_category("product")) == 1
        if written == "members":
            sources["S"].load_rows("members", [("x", "m9", "90")])
        elif written == "groups":
            sources["S"].load_rows("groups", [("g9",)])
        report = middleware.evaluate({"run": "r"})
        reran = len(tracer.spans_by_category("product")) == 2
        assert reran is (written is not None)
        assert (product in middleware._last_result.cache_entries) is reran
        conceptual = ConceptualEvaluator(
            middleware.aig, list(sources.values())).evaluate({"run": "r"})
        assert serialize(report.document) == serialize(conceptual)

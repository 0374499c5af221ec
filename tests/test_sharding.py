"""Sharded multi-process evaluation (docs/SHARDING.md).

Covers the partition-eligibility analysis, byte-identity of sharded
documents against the single-process engine, the cross-shard constraint
reconcile pass (key duplicates split across shards, inclusions whose
targets live entirely in another shard, empty shards), spawn-safety of
the worker payloads, and the report/metrics surface.  The split of the
verdict itself (judged in the slice / shipped and merged) is proved
in-process, on seeded random trees, and its type-driven pruning is
pinned by element counts.
"""

import os
import pickle
import random

import pytest

from repro.aig import AIG, assign, inh, query
from repro.constraints import InclusionConstraint, Key, check_constraints
from repro.constraints.reconcile import reconcile, shard_evidence
from repro.dtd import parse_dtd
from repro.dtd.analysis import element_graph
from repro.errors import EvaluationAborted, EvaluationError
from repro.relational.schema import Catalog, SourceSchema, relation
from repro.relational.source import DataSource
from repro.runtime.middleware import Middleware
from repro.runtime.sharding import (
    _locate_splice,
    build_shard_tasks,
    find_partition,
    shutdown_shard_pool,
)
from repro.xmlmodel.node import XMLElement, XMLText
from repro.xmlmodel.serialize import serialize

DTD_TEXT = """
<!ELEMENT root (meta, list)>
<!ELEMENT meta (#PCDATA)>
<!ELEMENT list (entry*)>
<!ELEMENT entry (id, ref, items)>
<!ELEMENT items (item*)>
<!ELEMENT item (trId)>
<!ELEMENT id (#PCDATA)>
<!ELEMENT ref (#PCDATA)>
<!ELEMENT trId (#PCDATA)>
"""

SCHEMA = SourceSchema("S", (relation("rows", "id", "ref"),
                            relation("items", "eid", "trId")))


def build_aig() -> AIG:
    """root -> (meta, list), list -> entry*: the partition production sits
    one level below the root, with a shared sibling before it."""
    aig = AIG(parse_dtd(DTD_TEXT), Catalog([SCHEMA]), root_inh=("title",))
    aig.inh("entry", "id", "ref")
    aig.inh("items", "id")
    aig.inh("item", "trId")
    aig.rule("root", inh={"meta": assign(val=inh("title"))})
    aig.rule("list", inh={"entry": query(
        "select r.id, r.ref from S:rows r")})
    aig.rule("entry", inh={
        "id": assign(val=inh("id")),
        "ref": assign(val=inh("ref")),
        "items": assign(id=inh("id")),
    })
    aig.rule("items", inh={"item": query(
        "select i.trId from S:items i where i.eid = $id")})
    aig.rule("item", inh={"trId": assign(val=inh("trId"))})
    # entry ids unique within the whole list (cross-shard duplicate
    # detection) ...
    aig.key("list", "entry", "id")
    # ... refs resolve against *any* entry's id (global containment) ...
    aig.inclusion("list", "entry", "ref", "entry", "id")
    # ... and per-entry item keys give shard-local contexts whose order
    # paths must not collide after the merge offset.
    aig.key("entry", "item", "trId")
    return aig.validate()


def make_sources(rows, items=()):
    source = DataSource(SCHEMA)
    if rows:
        source.load_rows("rows", list(rows))
    if items:
        source.load_rows("items", list(items))
    return {"S": source}


def run(rows, items=(), shards=1, checked=True, **kwargs):
    """One evaluation of the AIG, declaring its constraints or (not
    ``checked``) none, so that a violating document derives."""
    aig = build_aig()
    middleware = Middleware(aig if checked else aig.without_constraints(),
                            make_sources(rows, items), shards=shards,
                            **kwargs)
    report = middleware.evaluate({"title": "T"})
    return aig, report


def baseline(rows, items=()):
    """The single-process document and the tree checker's verdict."""
    aig, report = run(rows, items, shards=1, checked=False)
    xml = serialize(report.document, indent=2)
    verdict = sorted(str(v) for v in check_constraints(report.document,
                                                       aig.constraints))
    return xml, verdict


def assert_equivalent(rows, items=(), shards=(2, 3, 4)):
    """Per shard count: refused exactly when the baseline verdict is not
    empty, naming its violations string for string (the reconciled,
    located verdict); the same document without the constraints."""
    base_xml, base_verdict = baseline(rows, items)
    for count in shards:
        try:
            run(rows, items, shards=count)
            reconciled = []
        except EvaluationAborted as refused:
            reconciled = sorted(str(v) for v in refused.violations)
        assert reconciled == base_verdict
        aig, report = run(rows, items, shards=count, checked=False)
        assert report.shards == count
        assert serialize(report.document, indent=2) == base_xml
        tree_verdict = sorted(str(v) for v in check_constraints(
            report.document, aig.constraints))
        assert tree_verdict == base_verdict
    return base_verdict


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_shard_pool()


class TestFindPartition:
    def test_hospital_aig_partitions_at_the_root_star(self):
        from repro.hospital import build_hospital_aig
        spec = find_partition(build_hospital_aig())
        assert spec is not None
        assert spec.chain == ("report",)

    def test_chain_through_a_sequence_production(self):
        spec = find_partition(build_aig())
        assert spec is not None
        assert spec.chain == ("root", "list")
        assert spec.star_type == "list"

    def test_star_free_aig_is_not_partitionable(self):
        dtd = parse_dtd("<!ELEMENT root (meta)> <!ELEMENT meta (#PCDATA)>")
        aig = AIG(dtd, Catalog([]), root_inh=("title",))
        aig.rule("root", inh={"meta": assign(val=inh("title"))})
        assert find_partition(aig.validate()) is None

    def test_guarded_aig_is_not_partitionable(self):
        from repro.compilation.specialize import specialize
        compiled = specialize(build_aig())
        assert compiled.guards
        assert find_partition(compiled) is None

    def test_non_partitionable_falls_back_single_process(self):
        dtd = parse_dtd("<!ELEMENT root (meta)> <!ELEMENT meta (#PCDATA)>")
        aig = AIG(dtd, Catalog([]), root_inh=("title",))
        aig.rule("root", inh={"meta": assign(val=inh("title"))})
        middleware = Middleware(aig.validate(), {}, shards=4)
        report = middleware.evaluate({"title": "T"})
        assert report.shards == 1
        assert report.document.find("meta").text_value() == "T"

    def test_shards_must_be_a_positive_int(self):
        aig = build_aig()
        with pytest.raises(EvaluationError):
            Middleware(aig, make_sources([]), shards=0)
        with pytest.raises(EvaluationError):
            Middleware(aig, make_sources([]), shards=True)


class TestShardedEquivalence:
    def test_satisfied_data_is_byte_identical(self):
        rows = [(f"e{i}", f"e{(i + 1) % 6}") for i in range(6)]
        items = [(f"e{i}", f"t{i}") for i in range(6)]
        verdict = assert_equivalent(rows, items)
        assert verdict == []

    def test_key_duplicated_across_two_shards(self):
        # Two rows with the same entry id sort adjacently, so a 2-way
        # split puts one in each shard: no shard sees a duplicate
        # locally — only the reconciled count crosses the threshold.
        rows = [("dup", "dup"), ("dup", "dup")]
        verdict = assert_equivalent(rows, shards=(2,))
        assert len(verdict) == 1
        assert "duplicate" in verdict[0]

    def test_inclusion_targets_entirely_in_another_shard(self):
        # Every ref points at entry "z", which sorts last: at 2 or 3
        # shards all sources sit in earlier shards than their target, so
        # any shard-local containment check would false-positive.
        rows = [("a", "z"), ("b", "z"), ("c", "z"), ("z", "z")]
        verdict = assert_equivalent(rows)
        assert verdict == []

    def test_inclusion_violation_spanning_shards(self):
        rows = [("a", "missing"), ("b", "a"), ("c", "a"), ("d", "a")]
        verdict = assert_equivalent(rows)
        assert len(verdict) == 1
        assert "missing" in verdict[0]

    def test_local_contexts_keep_distinct_order_paths(self):
        # Two entries in different shards each violate the per-entry
        # item key with the *same* value: if the merge offset collapsed
        # their order paths, the reconciled verdict would lose one of
        # the two (identical-string) violations.
        rows = [("a", "a"), ("b", "b")]
        items = [("a", "t1"), ("a", "t1"), ("b", "t1"), ("b", "t1")]
        verdict = assert_equivalent(rows, items, shards=(2,))
        assert len(verdict) == 2
        assert verdict[0] == verdict[1]

    def test_empty_shards(self):
        # 2 rows over 4 shards leaves two key ranges empty.
        rows = [("a", "a"), ("b", "b")]
        base_xml, _ = baseline(rows)
        _, report = run(rows, shards=4)
        assert serialize(report.document, indent=2) == base_xml
        assert sorted(report.shard_rows) == [0, 0, 1, 1]

    def test_empty_driving_query(self):
        assert_equivalent([], shards=(2,))

    def test_abort_mode_raises_with_reconciled_verdict(self):
        rows = [("dup", "dup"), ("dup", "dup")]
        _, base_verdict = baseline(rows)
        with pytest.raises(EvaluationAborted) as excinfo:
            run(rows, shards=2)
        assert sorted(str(v) for v in
                      excinfo.value.violations) == base_verdict

    def test_two_violations_are_located_across_two_shards(self):
        # the hospital partitions at its root star: the reconciled refusal
        # lists the tree checker's verdict over the document
        from tests.test_runtime import TWO_VIOLATIONS_DATE, two_violations
        from repro.hospital import build_hospital_aig
        aig = build_hospital_aig()
        sources = two_violations()
        root = {"date": TWO_VIOLATIONS_DATE}
        with pytest.raises(EvaluationAborted) as refused:
            Middleware(aig, sources, shards=2).evaluate(dict(root))
        document = Middleware(aig.without_constraints(), sources).evaluate(
            dict(root)).document
        expected = check_constraints(document, aig.constraints)
        assert {violation.constraint for violation in expected} == \
            set(aig.constraints)
        assert sorted(map(str, refused.value.violations)) == \
            sorted(map(str, expected))

    def test_abort_mode_passes_clean_data(self):
        rows = [("a", "b"), ("b", "a")]
        _, report = run(rows, shards=2)      # not refused
        assert report.shards == 2


class TestSpawnSafety:
    def test_payloads_pickle_with_feedback_and_incremental(self, tmp_path):
        # The regression: a task must never capture sqlite connections,
        # tracers, or ledgers — even when the parent middleware has all
        # of them enabled.
        from repro.obs import Tracer
        aig = build_aig()
        middleware = Middleware(
            aig, make_sources([("a", "a"), ("b", "b")]),
            shards=2, incremental=True,
            tracer=Tracer(), ledger=str(tmp_path / "ledger.jsonl"))
        built = build_shard_tasks(middleware, {"title": "T"})
        assert built is not None
        _, tasks, total_rows = built
        assert total_rows == 2 and len(tasks) == 2
        for task in tasks:
            payload = pickle.dumps(task)
            clone = pickle.loads(payload)
            assert set(clone.config) == {
                "merging", "unfold_depth", "max_unfold_depth"}

    def test_sharded_run_with_feedback_matches_plain(self, tmp_path):
        from repro.obs import Tracer
        rows = [("a", "b"), ("b", "a")]
        base_xml, _ = baseline(rows)
        aig = build_aig()
        middleware = Middleware(
            aig, make_sources(rows), shards=2,
            incremental=True, tracer=Tracer(),
            ledger=str(tmp_path / "ledger.jsonl"))
        report = middleware.evaluate({"title": "T"})
        assert serialize(report.document, indent=2) == base_xml


class TestReportAndMetrics:
    def test_report_fields(self):
        from repro.obs import Tracer
        rows = [(f"e{i}", f"e{i}") for i in range(5)]
        aig = build_aig()
        tracer = Tracer()
        middleware = Middleware(aig, make_sources(rows), shards=3,
                                tracer=tracer)
        report = middleware.evaluate({"title": "T"})
        assert report.shards == 3
        assert sum(report.shard_rows) == 5
        assert report.ipc_bytes > 0
        assert report.reconcile_seconds >= 0.0
        assert len(report.shard_peak_rss) == 3
        assert all(rss > 0 for rss in report.shard_peak_rss)
        assert middleware._config_dict()["shards"] == 3
        metrics = tracer.metrics.snapshot()
        assert metrics["counters"]["sharded_evaluations"] == 1
        assert metrics["gauges"]["shard_count"] == 3
        assert metrics["gauges"]["shard_ipc_bytes"] == report.ipc_bytes
        assert metrics["gauges"]["shard_rows.0"] == report.shard_rows[0]

    def test_sharded_runs_are_counted_like_single_process_ones(self):
        # ``evaluations`` counts *completed* evaluations and every one of
        # them is observed in the latency histogram (OBSERVABILITY.md).
        from repro.obs import Tracer
        for shards in (1, 2):
            tracer = Tracer()
            _, report = run([("a", "a"), ("b", "b")], shards=shards,
                            tracer=tracer)
            assert report.shards == shards
            metrics = tracer.metrics.snapshot()
            assert metrics["counters"]["evaluations"] == 1
            assert metrics["histograms"][
                "evaluation_latency_seconds"]["count"] == 1
            tracer = Tracer()
            with pytest.raises(EvaluationAborted):
                run([("dup", "dup"), ("dup", "dup")], shards=shards,
                    tracer=tracer)
            counters = tracer.metrics.snapshot()["counters"]
            assert counters.get("evaluations", 0) == 0

    def test_fallback_counts_in_metrics(self):
        from repro.obs import Tracer
        dtd = parse_dtd("<!ELEMENT root (meta)> <!ELEMENT meta (#PCDATA)>")
        aig = AIG(dtd, Catalog([]), root_inh=("title",))
        aig.rule("root", inh={"meta": assign(val=inh("title"))})
        tracer = Tracer()
        middleware = Middleware(aig.validate(), {}, shards=2,
                                tracer=tracer)
        middleware.evaluate({"title": "T"})
        assert tracer.metrics.snapshot()["counters"]["shard_fallbacks"] == 1


# ----------------------------------------------------------------------
# the split itself, in-process: no pool, no engine
# ----------------------------------------------------------------------
STRUCTURE = ("a", "b", "c")     # occur before, inside and after the slice
FIELDS = ("k", "v")
TYPES = ("root", "wrap", "list") + STRUCTURE


def random_subtree(rng, depth, values):
    """A nested ``(tag, children)`` spec; a ``str`` child is text.  Fields
    may be absent, repeated (only the first counts) or hold nested text."""
    children = []
    for name in FIELDS:
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            value = rng.choice(values)
            children.append((name, [value] if rng.random() < 0.8
                             else [value, ("w", [rng.choice("01")])]))
    if depth:
        children += [random_subtree(rng, depth - 1, values)
                     for _ in range(rng.randint(0, 3))]
    rng.shuffle(children)
    return rng.choice(STRUCTURE), children


def random_skeleton(rng, values):
    """The shared part: ``root -> (..., list, ...)``, half of the time
    through a ``wrap`` with siblings of its own.  ``("list", None)`` marks
    the partition element, whose children :func:`build` is given."""
    chain = rng.choice((("root", "list"), ("root", "wrap", "list")))
    spec = ("list", None)
    for tag in reversed(chain[:-1]):
        around = [[random_subtree(rng, rng.randint(0, 2), values)
                   for _ in range(rng.randint(0, 2))] for _ in range(2)]
        spec = (tag, around[0] + [spec] + around[1])
    return chain, spec


def build(spec, entries):
    tag, children = spec
    node = XMLElement(tag)
    for child in entries if children is None else children:
        node.append(XMLText(child) if isinstance(child, str)
                    else build(child, entries))
    return node


def random_constraints(rng):
    def member():   # mostly what a slice holds, now and then the chain
        return rng.choice(STRUCTURE if rng.random() < 0.8 else TYPES)

    constraints = []
    for _ in range(rng.randint(1, 4)):
        width = rng.choice((1, 1, 2))
        if rng.random() < 0.5:
            constraints.append(Key(rng.choice(TYPES), member(),
                                   rng.sample(FIELDS, width)))
        else:
            constraints.append(InclusionConstraint(
                rng.choice(TYPES),
                member(), rng.sample(FIELDS, width),
                member(), rng.sample(FIELDS, width)))
    return constraints


def graph_of(tree):
    """The element graph a DTD of ``tree`` would have."""
    graph = {}
    for node in tree.iter():
        graph.setdefault(node.tag, set()).update(
            child.tag for child in node.child_elements())
    return graph


def split_case(seed):
    """One random document cut into 1-4 shard documents; returns
    ``(reconciled, expected, guard outcomes per shard)``."""
    rng = random.Random(seed)
    # few values: duplicates inside one shard; many: only across shards
    values = rng.choice(("01", "0123", "0123456789"))
    chain, skeleton = random_skeleton(rng, values)
    entries = [random_subtree(rng, rng.choice((0, 0, 1, 2)), values)
               for _ in range(rng.randint(0, 6))]
    constraints = random_constraints(rng)
    merged = build(skeleton, entries)
    graph = graph_of(merged)
    cuts = sorted(rng.randint(0, len(entries))
                  for _ in range(rng.randint(0, 3)))
    bounds = [0] + cuts + [len(entries)]
    evidences, fired = [], []
    for low, high in zip(bounds, bounds[1:]):
        shard = build(skeleton, entries[low:high])
        # what the engine's guards report: a whole-shard-document check
        fired.append(frozenset(constraint for constraint in constraints
                               if check_constraints(shard, [constraint])))
        # sometimes every constraint is a suspect: the unpruned pass
        suspects = (set(constraints) if rng.random() < 0.25
                    else set(fired[-1]))
        evidence = shard_evidence(shard, constraints,
                                  _locate_splice(shard, chain), suspects,
                                  graph)
        evidences.append(pickle.loads(pickle.dumps(evidence)))
    return ([str(v) for v in reconcile(constraints, evidences)],
            [str(v) for v in check_constraints(merged, constraints)],
            fired)


class TestOneScopeEngine:
    def test_reconciled_verdict_is_the_tree_checkers_on_random_splits(self):
        # Ordered lists: same violations, same wording, same order.
        nightly = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"
        cases = 4000 if nightly else 600
        violated = disagreeing = 0
        for seed in range(cases):
            reconciled, expected, fired = split_case(seed)
            assert reconciled == expected, f"seed {seed}"
            violated += bool(expected)
            disagreeing += len(set(fired)) > 1
        assert violated > cases // 4
        # production's case: each shard's guards saw a different document
        assert disagreeing > cases // 20

    def test_the_pass_enters_only_what_the_dtd_says_can_matter(self):
        # A count, not a clock: losing the pruning costs 8x in the worker.
        from tests.test_mediator_resident import (build_group_aig,
                                                  group_sources)
        aig = build_group_aig()
        members = tuple((f"m{i}", str(10 + i)) for i in range(8))
        document = Middleware(
            aig, group_sources(200, members)).evaluate({"run": "1"}).document
        assert sum(1 for _ in document.iter()) == 1 + 200 * 27
        graph = element_graph(aig.dtd)
        # guards clean: only root(group.gid -> group) has a scope open
        # over the slice, so only group and gid elements are entered
        clean = shard_evidence(document, aig.constraints, document, set(),
                               graph)
        assert clean.slice_elements == 200 * 2
        judged = shard_evidence(document, aig.constraints, document,
                                set(aig.constraints), graph)
        assert judged.slice_elements == 200 * 27
        assert reconcile(aig.constraints, [clean]) == []
        assert reconcile(aig.constraints, [judged]) == []

    def test_pruned_and_unpruned_pass_agree_on_the_recursive_hospital(self):
        from repro.datagen import generate, load_dataset
        from repro.hospital import build_hospital_aig, make_sources
        aig = build_hospital_aig()
        dataset = generate("tiny")
        del dataset.billing[::3]    # treatments no bill item matches
        sources = make_sources()
        load_dataset(dataset, sources)
        document = Middleware(aig.without_constraints(), sources).evaluate(
            {"date": dataset.busiest_date()}).document
        graph = element_graph(aig.dtd)
        everything = {tag: set(graph) for tag in graph}

        def contents(evidence):
            return ([[(scope.path, scope.counts, scope.inside,
                       scope.sources, scope.available) for scope in scopes]
                     for scopes in evidence.shared],
                    [[str(violation) for _, violation in found]
                     for found in evidence.local])

        expected = [str(v) for v in check_constraints(document,
                                                      aig.constraints)]
        assert expected
        suspects = set(aig.constraints)
        pruned = shard_evidence(document, aig.constraints, document,
                                suspects, graph)
        unpruned = shard_evidence(document, aig.constraints, document,
                                  suspects, everything)
        assert contents(pruned) == contents(unpruned)
        assert pruned.slice_elements < unpruned.slice_elements \
            == sum(1 for _ in document.iter()) - 1
        assert [str(v) for v in reconcile(
            aig.constraints, [pruned])] == expected
        # both constraints' contexts are patients, none suspected: the
        # slice holds nothing a verdict depends on
        assert shard_evidence(document, aig.constraints, document, set(),
                              graph).slice_elements == 0


class TestOracleAxis:
    def test_oracle_shards_axis_on_a_partitionable_seed(self):
        from repro.fuzz import generate_scenario, run_oracle
        spec = generate_scenario(3, violate=True)
        report = run_oracle(spec, configs=("shards",))
        names = {result.config for result in report.results}
        assert {"shards-2", "shards-3", "shards-4"} <= names
        assert report.ok, [str(d) for d in report.divergences]

    def test_workers_log_at_the_parents_level(self, tmp_path):
        """A spawned worker takes the parent's ``repro`` level: at unfold
        depth 1 the hospital's shard workers re-unroll their recursion,
        which they say under WARNING (bare, through the last-resort
        handler; the parent evaluates nothing itself) and not under
        ERROR."""
        import subprocess
        import sys

        import repro
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
        script = tmp_path / "sharded.py"
        script.write_text(
            "import logging, sys\n"
            "from repro.datagen import make_loaded_sources\n"
            "from repro.hospital import build_hospital_aig\n"
            "from repro.runtime import Middleware\n"
            "if __name__ == '__main__':\n"
            "    logging.getLogger('repro').setLevel(sys.argv[1])\n"
            "    sources, dataset = make_loaded_sources('tiny')\n"
            "    Middleware(build_hospital_aig(), sources, shards=2,\n"
            "               unfold_depth=1).evaluate(\n"
            "        {'date': dataset.busiest_date()})\n")

        def stderr(level):
            run = subprocess.run(
                [sys.executable, str(script), level],
                capture_output=True, text=True, env=env, timeout=300)
            assert run.returncode == 0, run.stdout + run.stderr
            return run.stderr

        assert stderr("ERROR") == ""
        assert any(line.startswith("recursion deeper than unfolding "
                                   "estimate")
                   for line in stderr("WARNING").splitlines())


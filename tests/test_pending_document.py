"""The unread document ``Middleware.evaluate`` returns (docs/INTERNALS.md,
"The tree").

``report.document`` is a root whose ``_kids`` is the run's bound tagging
program (``PendingDocument``): ``serialize`` writes it by the stream path,
the first structural read builds it through a ``TreeSink`` and keeps the
tree, and ``size`` counts it.  ``tests/reference_writer.py`` is the byte
oracle: it reads every node through ``children``, so it writes the built
tree.
"""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.datagen import make_loaded_sources
from repro.datagen.generator import DATES
from repro.errors import EvaluationError
from repro.fuzz import build_scenario, generate_scenario
from repro.hospital import build_hospital_aig
from repro.obs import Tracer
from repro.runtime import Middleware
from repro.runtime.tagging import PendingDocument
from repro.xmlmodel import element, serialize
from tests.reference_writer import reference_serialize
from tests.test_conceptual_evaluator import choice_fixture

sys.path.insert(0, str(Path(__file__).resolve().parents[1]
                       / "benchmarks" / "e2e"))
from workloads import build_group_aig, make_group_sources  # noqa: E402


def unread(document) -> bool:
    return document._kids.__class__ is PendingDocument


def groups():
    return (Middleware(build_group_aig(), make_group_sources(1, 50)),
            {"run": "1"})


def scenarios() -> list:
    """``(middleware, root)`` pairs: hospital ``tiny`` at a fixed and an
    ``"auto"`` unfolding, 50 groups, and fuzz seeds 0-3."""
    sources, _ = make_loaded_sources("tiny")
    made = [(Middleware(build_hospital_aig(), sources, unfold_depth=depth),
             {"date": DATES[1]}) for depth in (4, "auto")]
    made.append(groups())
    for seed in range(4):
        spec = generate_scenario(seed)
        aig, fuzz_sources = build_scenario(spec)
        made.append((Middleware(aig, fuzz_sources, violation_mode="report"),
                     dict(spec.root_values)))
    return made


@pytest.fixture(scope="module")
def middlewares():
    return scenarios()


def streamed(middleware, root, indent) -> str:
    chunks: list[str] = []
    middleware.evaluate_stream(dict(root), chunks.append, indent=indent)
    return "".join(chunks)


class TestUnreadWrite:
    @pytest.mark.parametrize("indent", [None, 0, 2])
    def test_unread_bytes_are_the_built_tree_and_the_stream(
            self, middlewares, indent):
        for middleware, root in middlewares:
            document = middleware.evaluate(dict(root)).document
            assert unread(document)
            written = serialize(document, indent=indent)
            assert unread(document), "a write builds nothing"
            assert written == streamed(middleware, root, indent)
            assert written == reference_serialize(document, indent)
            assert not unread(document)
            assert serialize(document, indent=indent) == written

    def test_a_later_write_to_a_source_changes_nothing(self):
        for incremental in (False, True):
            sources = make_group_sources(1, 20)
            middleware = Middleware(build_group_aig(), sources,
                                    incremental=incremental)
            first = middleware.evaluate({"run": "1"}).document
            second = middleware.evaluate({"run": "1"}).document
            expected = serialize(first, indent=2)
            sources["S"].load_rows("groups", [("g99999",)])
            middleware.invalidate_plans()
            assert unread(second)
            assert serialize(second, indent=2) == expected
            assert reference_serialize(second, 2) == expected
            fresh = middleware.evaluate({"run": "1"}).document
            assert serialize(fresh).count("<group>") == 21

    def test_an_unread_root_nested_in_another_tree(self):
        middleware, root = groups()
        document = middleware.evaluate(dict(root)).document
        expected = streamed(middleware, root, 2)
        outer = element("outer", element("first"))
        outer.append(document)
        assert unread(document)
        written = serialize(outer, indent=2)
        assert written.startswith("<outer>\n  <first/>\n  <root>\n")
        assert written == reference_serialize(outer, 2)
        body = "".join("  " + line + "\n"
                       for line in expected.splitlines())
        assert written == f"<outer>\n  <first/>\n{body}</outer>\n"

    def test_a_renamed_unread_root_writes_its_new_tag(self):
        middleware, root = groups()
        document = middleware.evaluate(dict(root)).document
        document.tag = "renamed"
        written = serialize(document)
        assert written.startswith("<renamed><group>")
        assert written.endswith("</renamed>")
        assert written == reference_serialize(document)


class TestUnreadReaders:
    @staticmethod
    def pair():
        """The groups document unread, and fully read."""
        middleware = Middleware(build_group_aig(), make_group_sources(1, 5))
        pending = middleware.evaluate({"run": "1"}).document
        built = middleware.evaluate({"run": "1"}).document
        assert sum(1 for _ in built.iter()) == 1 + 5 * (3 + 8 * 3)
        return pending, built

    def test_size_counts_without_constructing(self, monkeypatch):
        # the construction counter of test_incremental.TestTaggingCost
        from repro.xmlmodel import node
        pending, built = self.pair()
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
        assert pending.size() == built.size() == 5 * (4 + 8 * 5) + 1
        assert constructed == [] and unread(pending)

    def test_equality_with_a_built_document(self):
        pending, built = self.pair()
        assert pending == built and built == pending
        pending, built = self.pair()
        assert built == pending and pending == built
        built.find("group").find("gid").children[0].value = "changed"
        assert pending != built

    @pytest.mark.parametrize("operation", [
        lambda document: document.append(element("group")),
        lambda document: document.remove(document.children[2]),
        lambda document: document.replace_with_children(
            document.children[0]),
        lambda document: document.children.clear(),
    ])
    def test_mutations_build_the_document_first(self, operation):
        pending, built = self.pair()
        outcomes = []
        for document in (pending, built):
            operation(document)
            assert not unread(document)
            assert all(child.parent is node for node in document.iter()
                       for child in node.children)
            outcomes.append((serialize(document, indent=1),
                             reference_serialize(document, 1),
                             document.size()))
        assert outcomes[0] == outcomes[1]

    def test_every_structural_reader_builds_it(self):
        for read in (lambda d: d.children, lambda d: list(d.iter()),
                     lambda d: d.find("group"), lambda d: d.text_value(),
                     lambda d: d.child_elements(), repr):
            pending, built = self.pair()
            read(pending)
            assert not unread(pending)
            assert serialize(pending) == serialize(built)


class TestErrorsAtEvaluate:
    """A condition that selects no alternative raises at ``evaluate`` and
    before ``evaluate_stream`` hands ``write`` a byte."""

    @staticmethod
    def failing_choice():
        aig, source = choice_fixture()
        source.load_rows("accounts", [(f"a{i:03d}", "1", "x")
                                      for i in range(400)])
        source.load_rows("accounts", [("zz", "3", "x")])
        return Middleware(aig, {"DB": source})

    def test_stream_writes_nothing_before_raising(self):
        chunks: list[str] = []
        with pytest.raises(EvaluationError, match="returned 3, outside"):
            self.failing_choice().evaluate_stream({}, chunks.append)
        assert chunks == []

    def test_evaluate_raises_at_evaluate(self):
        tracer = Tracer()
        with pytest.raises(EvaluationError, match="returned 3, outside"):
            self.failing_choice().evaluate({}, tracer=tracer)
        names = [span.name for span in tracer.spans]
        assert names.count("tagging-dryrun") == 1
        assert "tagging" not in names


class TestRecordedAtFirstProduction:
    """``document_nodes``, ``tagging_fragment_elements`` and the
    ``tagging`` span come from the tagger's counts, recorded once, when
    the document is first written, built or sized."""

    @pytest.mark.parametrize("produce", [
        lambda document: serialize(document),
        lambda document: document.children,
        lambda document: document.size(),
    ])
    def test_one_record_whichever_reader_is_first(self, produce):
        sources, _ = make_loaded_sources("tiny")
        stream_tracer = Tracer()
        Middleware(build_hospital_aig(), sources,
                   tracer=stream_tracer).evaluate_stream(
            {"date": DATES[1]}, lambda chunk: None)
        tracer = Tracer()
        document = Middleware(build_hospital_aig(), sources,
                              tracer=tracer).evaluate(
            {"date": DATES[1]}).document
        gauges = tracer.metrics.snapshot()["gauges"]
        assert "document_nodes" not in gauges
        assert "tagging_fragment_elements" not in gauges
        assert "tagging" not in [span.name for span in tracer.spans]
        produce(document)
        for reader in (serialize, lambda d: d.size(), lambda d: d.children):
            reader(document)
        spans = [span for span in tracer.spans if span.name == "tagging"]
        assert len(spans) == 1
        streamed_span = next(span for span in stream_tracer.spans
                             if span.name == "tagging")
        assert spans[0].attrs == streamed_span.attrs
        assert spans[0].attrs["elements"] == sum(1 for _ in document.iter())
        metrics = tracer.metrics
        assert metrics.gauge("document_nodes") == document.size()
        assert metrics.gauge("tagging_fragment_elements") == \
            stream_tracer.metrics.gauge("tagging_fragment_elements") > 0

    def test_ledger_counts_the_unread_document(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        sources, _ = make_loaded_sources("tiny")
        middleware = Middleware(build_hospital_aig(), sources,
                                ledger=str(path))
        documents = [middleware.evaluate({"date": date}).document
                     for date in DATES[:3]]
        assert all(map(unread, documents))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["run"]["document_bytes"] for record in records] == [
            len(serialize(document).encode("utf-8"))
            for document in documents]
        assert min(record["run"]["document_bytes"] for record in records) > 0


class TestThreads:
    def test_unread_documents_written_beside_an_evaluation(self):
        sources, _ = make_loaded_sources("tiny")
        middleware = Middleware(build_hospital_aig(), sources)
        dates = DATES[:2]
        expected = {date: streamed(middleware, {"date": date}, 2)
                    for date in dates}
        documents = {date: middleware.evaluate({"date": date}).document
                     for date in dates}
        barrier = threading.Barrier(3)
        written, errors = {}, []

        def write(date):
            barrier.wait()
            written[date] = [serialize(documents[date], indent=2)
                             for _ in range(5)]

        def evaluate():
            barrier.wait()
            for _ in range(5):
                for date in dates:
                    serialize(middleware.evaluate({"date": date}).document)

        def guarded(target, *args):
            try:
                target(*args)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=guarded, args=(write, date))
                   for date in dates]
        threads.append(threading.Thread(target=guarded, args=(evaluate,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert errors == []
        for date in dates:
            assert written[date] == [expected[date]] * 5

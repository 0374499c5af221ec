"""The streaming data plane (docs/DATAPLANE.md).

Covers the layers the plane cuts through:

* ``StreamSerializer`` and :func:`serialize`, which drives it over a tree:
  property-tested byte equivalence with the independent reference writer
  (``tests/reference_writer.py``) on arbitrary trees and on trees holding
  unbuilt fragment groups, and full-pipeline equivalence of
  ``evaluate_stream`` with ``serialize(evaluate().document)`` on star,
  recursion-through-sequence (hospital) and recursion-through-choice (fs)
  scenarios;
* ``StreamingConstraintChecker``: verdicts identical to the tree checker,
  both replayed over crafted trees and through the full pipeline;
* tracemalloc bounds: streaming tagging allocates less than the document
  it emits, and materializing peaks at >= 5x the whole streamed path;
* the write path's batches: pieces reach ``write`` joined, at most
  ``WRITE_PIECES`` at a time, pinned as counts, not clocks.
"""

import hashlib
import importlib
import io
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, Const, assign, inh, query
from repro.constraints import (
    InclusionConstraint,
    Key,
    StreamingConstraintChecker,
    check_constraints,
)
from repro.datagen import make_loaded_sources
from repro.datagen.generator import DATES
from repro.dtd import parse_dtd
from repro.dtd.analysis import base_name
from repro.errors import EvaluationAborted
from repro.fuzz import generate_scenario
from repro.fuzz.spec import build_scenario
from repro.hospital import build_hospital_aig, make_sources
from repro.relational import Catalog, DataSource, SourceSchema
from repro.relational.schema import relation
from repro.runtime import Middleware
from repro.runtime.engine import Engine
from repro.runtime.tagging import (NullEventSink, TaggingRun, stream_document,
                                   tagging_program)
from repro.xmlmodel import StreamSerializer, XMLElement, XMLText, serialize
from repro.xmlmodel.node import new_element
from tests.conftest import load_tiny_hospital, pending_groups
from tests.reference_writer import reference_serialize
from tests.test_mediator_resident import build_group_aig, group_sources
from tests.test_recursive_choice import TREE_ROWS, build_fs_aig, load

# the module: the package's ``serialize`` attribute is the function
serialize_module = importlib.import_module("repro.xmlmodel.serialize")


# ---------------------------------------------------------------------------
# StreamSerializer == serialize() on arbitrary trees
# ---------------------------------------------------------------------------

def replay(node, *sinks):
    """Feed a materialized tree through event sinks in document order."""
    if isinstance(node, XMLText):
        for sink in sinks:
            sink.text(node.value)
        return
    for sink in sinks:
        sink.start(node.tag)
    for child in node.children:
        replay(child, *sinks)
    for sink in sinks:
        sink.end()


def stream_bytes(tree, indent):
    buffer = io.StringIO()
    serializer = StreamSerializer(buffer.write, indent=indent)
    replay(tree, serializer)
    return buffer.getvalue()


_tags = st.sampled_from(["a", "b", "c", "node"])
_texts = st.text(
    alphabet=st.sampled_from(list("xy&<>\"' \n")), max_size=6)


def _make_element(children):
    return st.builds(
        lambda tag, kids: XMLElement(tag, kids),
        _tags, st.lists(children, max_size=4))


_trees = st.recursive(
    st.one_of(st.builds(XMLElement, _tags),
              st.builds(XMLText, _texts)),
    lambda inner: _make_element(
        st.one_of(inner, st.builds(XMLText, _texts))),
    max_leaves=20)


class TestStreamSerializer:
    # ``serialize`` drives ``StreamSerializer`` over the tree, so both are
    # compared with ``reference_serialize``, a writer sharing no code with
    # either

    @settings(max_examples=200, deadline=None)
    @given(tree=st.builds(lambda t: XMLElement("root", [t]), _trees),
           indent=st.sampled_from([None, 0, 1, 2, 4]))
    def test_equivalent_to_serialize(self, tree, indent):
        expected = reference_serialize(tree, indent)
        assert serialize(tree, indent=indent) == expected
        assert stream_bytes(tree, indent) == expected

    def test_edge_shapes(self):
        shapes = [
            XMLElement("e"),                                  # empty
            XMLElement("t", [XMLText("")]),                   # empty text
            XMLElement("t", [XMLText("a"), XMLText("&b")]),   # split text
            XMLElement("m", [XMLText("pre"), XMLElement("e"),
                             XMLText("post")]),               # mixed
            XMLElement("n", [XMLElement("n", [XMLElement("n")])]),
        ]
        for tree in shapes:
            for indent in (None, 2):
                assert stream_bytes(tree, indent) == \
                    serialize(tree, indent=indent) == \
                    reference_serialize(tree, indent), tree

    def test_character_count(self):
        tree = XMLElement("r", [XMLElement("a", [XMLText("hi")])])
        buffer = io.StringIO()
        serializer = StreamSerializer(buffer.write, indent=2)
        replay(tree, serializer)
        assert serializer.characters == len(buffer.getvalue())

    @pytest.mark.parametrize("indent", [None, 0, 2])
    @pytest.mark.parametrize("value", ["", None, "a&b<c>d\"e'f", "x"])
    def test_leaf_is_its_events(self, value, indent):
        # ``leaf`` is ``start`` / ``text`` / ``end`` in one piece: the same
        # chunks reach ``write``, alone at the root, committing an undecided
        # parent, and landing before, on and after the flush boundary
        # (``<p>`` is the parent's piece, so leaf n is piece n + 1)
        def events(serializer, tag):
            serializer.start(tag)
            if value is not None:
                serializer.text(value)
            serializer.end()

        def leaf(serializer, tag):
            serializer.leaf(tag, value)

        def chunks(drive, write):
            written: list[str] = []
            drive(StreamSerializer(written.append, indent=indent), write)
            return written

        def beside_text(serializer, write):
            serializer.start("p")
            serializer.text("t")
            write(serializer, "a")
            serializer.end()

        def run_of(count):
            def drive(serializer, write):
                serializer.start("p")
                for _ in range(count):
                    write(serializer, "a")
                serializer.end()
            return drive

        def alone(serializer, write):
            write(serializer, "a")

        boundary = serialize_module.WRITE_PIECES - 1
        drives = [alone, beside_text] + [
            run_of(count) for count in (boundary - 1, boundary, boundary + 1)]
        for drive in drives:
            assert chunks(drive, leaf) == chunks(drive, events)
        # the same shapes as trees, their leaves as ``new_element`` keeps
        # them, written by ``serialize`` and by the reference writer
        lone = new_element("a", None, value)
        mixed = XMLElement("p", [XMLText("t")])
        new_element("a", mixed, value)
        run = new_element("p", None)
        for _ in range(boundary):
            new_element("a", run, value)
        for tree in (lone, mixed, run):
            assert serialize(tree, indent=indent) == \
                reference_serialize(tree, indent)
        assert serialize(lone, indent=indent) == "".join(chunks(alone, leaf))
        assert serialize(run, indent=indent) == \
            "".join(chunks(run_of(boundary), leaf))


def read_at_random(tree: XMLElement, rng: random.Random) -> None:
    """Read ``children`` on a random part of ``tree``: the groups met on
    the way are built, the rest stay pending, and some text leaves get
    their text child."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if rng.random() < 0.5:
            stack.extend(child for child in node.children
                         if isinstance(child, XMLElement))


class TestPendingGroupsWritten:
    """A tree from ``TreeSink`` keeps a fragment group that is an element's
    whole content unbuilt: ``serialize`` hands it to
    ``StreamSerializer.fragments`` as it is and writes a built one event by
    event.  The reference writer reads every group built."""

    @pytest.fixture(scope="class")
    def middlewares(self):
        hospital_sources, _ = make_loaded_sources("tiny")
        made = [(Middleware(build_hospital_aig(), hospital_sources),
                 {"date": DATES[0]}),
                (Middleware(build_group_aig(), group_sources(groups=50)),
                 {"run": "1"})]
        for seed in range(4):
            spec = generate_scenario(seed)
            aig, sources = build_scenario(spec)
            made.append((Middleware(aig, sources), dict(spec.root_values)))
        return made

    @pytest.mark.parametrize("indent", [None, 0, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_partly_read_trees(self, middlewares, seed, indent):
        rng = random.Random(seed)
        for position, (middleware, root) in enumerate(middlewares):
            document = middleware.evaluate(dict(root)).document
            document.children   # built as the tree sink leaves it
            read_at_random(document, rng)
            held = len(pending_groups(document))
            if position < 2:
                assert held, "hospital and groups keep a group unbuilt"
            written = serialize(document, indent=indent)
            assert len(pending_groups(document)) == held
            assert written == reference_serialize(document, indent)
            assert pending_groups(document) == []


# ---------------------------------------------------------------------------
# the write path: pieces reach write joined, in bounded batches
# ---------------------------------------------------------------------------

class TestEventPathBatches:
    """Hospital ``tiny`` on its second date: 283 elements that the tagging
    program writes as single lines and lone fragments, nearly all of them
    outside any sibling group, so the gathering of pieces in the
    serializer it writes into decides the ``write`` calls."""

    #: Python-level calls per element of one ``evaluate_stream`` tagging
    #: pass (bind + write).  Events into the serializer with a frame per
    #: element and a ``write`` per piece measured 8.64; one tag stack and
    #: gathered pieces 5.16; the program writing its own lines through
    #: closures 2.50 (708 calls); a generated writer, a function per star
    #: and choice, 0.61 (173 calls); with the event path's column readers
    #: left unbound and one call a table for its clean columns, 0.54 (152
    #: calls); with that call also giving the column indexes, the sort key
    #: tested without a generator and the rows grouped without
    #: ``ResultSet.__iter__``, 0.35 (98 calls).  15 % headroom.
    CALLS_PER_ELEMENT = 0.40

    @pytest.fixture(scope="class")
    def tiny(self):
        sources, _ = make_loaded_sources("tiny")
        yield Middleware(build_hospital_aig(), sources), sources
        for source in sources.values():
            source.close()

    @staticmethod
    def streamed(middleware, monkeypatch, bound=None):
        """``evaluate_stream`` into ``chunks.append``, with the number of
        pieces each ``write`` joined."""
        chunks: list[str] = []
        joined: list[int] = []
        flush = StreamSerializer._flush

        def counting_flush(serializer):
            # the document's serializer, not one deriving a template
            if serializer._out == chunks.append and serializer._pieces:
                joined.append(len(serializer._pieces))
            flush(serializer)

        monkeypatch.setattr(StreamSerializer, "_flush", counting_flush)
        if bound is not None:
            # both bounds are read when written, not when compiled
            monkeypatch.setattr(serialize_module, "WRITE_PIECES", bound)
            monkeypatch.setattr(serialize_module, "GROUP_WRITE_ROWS", bound)
        report = middleware.evaluate_stream({"date": DATES[1]},
                                            chunks.append, indent=2)
        assert len(joined) == len(chunks)
        return report, chunks, joined

    def test_a_write_per_sixteen_elements_at_most(self, tiny, monkeypatch):
        report, chunks, _ = self.streamed(tiny[0], monkeypatch)
        assert report.elements == 283
        # a write per piece was 258 calls
        assert len(chunks) <= report.elements // 16

    @pytest.mark.parametrize("bound", [None, 1, 7])
    def test_every_chunk_within_the_flush_bound(self, tiny, monkeypatch,
                                                bound):
        middleware = tiny[0]
        expected = serialize(middleware.evaluate(
            {"date": DATES[1]}).document, indent=2)
        report, chunks, joined = self.streamed(middleware, monkeypatch,
                                               bound)
        assert "".join(chunks) == expected
        assert max(joined) <= serialize_module.WRITE_PIECES
        assert report.characters == sum(map(len, chunks)) == len(expected)

    def test_python_calls_per_element(self, tiny):
        middleware, sources = tiny
        root = {"date": DATES[1]}
        # the writer at indent 2 compiled, as by any earlier request
        middleware.evaluate_stream(dict(root), lambda chunk: None, indent=2)
        prepared = middleware.last_plan
        engine = Engine(prepared.graph, prepared.plan, sources,
                        middleware.network, mediator=middleware.mediator,
                        tagging_plan=prepared.tagging_plan)
        calls = 0

        def profiler(frame, event, argument):
            nonlocal calls
            if event == "call":
                calls += 1

        try:
            cache = engine.run(dict(root)).cache
            chunks: list[str] = []
            serializer = StreamSerializer(chunks.append, indent=2)
            previous = sys.getprofile()
            sys.setprofile(profiler)
            try:
                elements = TaggingRun(
                    tagging_program(prepared.tagging_plan, base_name),
                    cache, dict(root)).write(serializer)
            finally:
                sys.setprofile(previous)
        finally:
            engine.cleanup()
        assert elements == 283
        assert calls / elements <= self.CALLS_PER_ELEMENT, \
            f"{calls} Python-level calls for {int(elements)} elements"


# ---------------------------------------------------------------------------
# full-pipeline streaming == materialized tree, bytes and verdicts
# ---------------------------------------------------------------------------

def _assert_stream_matches(aig, sources, root_inh, constraints=None):
    """``evaluate_stream`` writes ``serialize(evaluate().document)``; with
    ``constraints``, the streaming checker fed by the tagging program's
    own pass (a fragment group replayed as events) gives the tree
    checker's verdict over that document."""
    materialized = Middleware(aig, dict(sources))
    result = materialized.evaluate(dict(root_inh))
    found = None
    if constraints:
        checker = StreamingConstraintChecker(constraints)
        result.document._kids.run.stream(checker)   # before it is read
        found = checker.result()
    streaming = Middleware(aig, dict(sources))
    for indent in (None, 2):
        expected = serialize(result.document, indent=indent)
        buffer = io.StringIO()
        stream = streaming.evaluate_stream(
            dict(root_inh), buffer.write, indent=indent)
        assert buffer.getvalue() == expected
        assert stream.elements == sum(1 for _ in result.document.iter())
    if constraints:
        tree_verdict = [str(v) for v in
                        check_constraints(result.document, constraints)]
        assert [str(v) for v in found] == tree_verdict
    return result, found


def _assert_violation_refused(aig, sources, root_inh):
    """``aig`` declaring its constraints refuses the document, before a
    byte of its stream; without them the same document derives, and the
    checker fed by its tagging pass finds what the tree checker finds."""
    written = io.StringIO()
    with pytest.raises(EvaluationAborted) as refused:
        Middleware(aig, dict(sources)).evaluate_stream(dict(root_inh),
                                                       written.write)
    assert written.getvalue() == ""
    _, found = _assert_stream_matches(aig.without_constraints(), sources,
                                      root_inh, aig.constraints)
    # each violated constraint named once
    assert sorted(map(str, refused.value.violations)) == sorted(
        {str(violation.constraint) for violation in found})
    return found


class TestStreamingPipeline:
    def test_hospital_star_and_recursion(self, hospital_aig):
        sources = make_sources()
        load_tiny_hospital(sources)
        _assert_stream_matches(hospital_aig, sources, {"date": "d1"},
                               constraints=hospital_aig.constraints)

    def test_recursion_through_choice(self):
        aig = build_fs_aig()
        _assert_stream_matches(aig, {"FS": load(TREE_ROWS)}, {},
                               constraints=aig.constraints)

    def test_streaming_constraint_violations_match_tree_checker(self):
        aig = build_hospital_aig()
        sources = make_sources()
        load_tiny_hospital(sources)
        # drop t4's billing row -> the t4 treatment has no matching item
        sources["DB3"].execute("DELETE FROM billing WHERE trId = 't4'")
        found = _assert_violation_refused(aig, sources, {"date": "d1"})
        assert found  # the seeded defect is seen

    def test_fragment_groups_beside_the_checker(self):
        # a star of fragments is written as one group, and reaches the
        # checker as the group's replayed events
        from tests.test_mediator_resident import (build_group_aig,
                                                  group_sources)
        aig = build_group_aig()
        members = [(f"m{n % 70}", str(n)) for n in range(100)]
        found = _assert_violation_refused(aig, group_sources(3, members),
                                          {"run": "1"})
        assert len(found) == 3    # one per group

    def test_streaming_key_violation_matches_tree_checker(self):
        aig = build_fs_aig()
        rows = TREE_ROWS + [("n6", "n4", "readme", "1", "3")]  # dup fname
        found = _assert_violation_refused(aig, {"FS": load(rows)}, {})
        assert any("duplicate" in str(v) for v in found)


# ---------------------------------------------------------------------------
# StreamingConstraintChecker unit behaviour on crafted trees
# ---------------------------------------------------------------------------

def _leaf(tag, value):
    return XMLElement(tag, [XMLText(value)])


def _checked(tree, constraints):
    checker = StreamingConstraintChecker(constraints)
    replay(tree, checker)
    streamed = [str(v) for v in checker.result()]
    direct = [str(v) for v in check_constraints(tree, constraints)]
    return streamed, direct


class TestStreamingConstraintChecker:
    KEY = Key("ctx", "item", ("id",))
    INCLUSION = InclusionConstraint("ctx", "ref", ("rid",), "item", ("id",))

    def test_key_violation_identical_to_tree_checker(self):
        tree = XMLElement("ctx", [
            XMLElement("item", [_leaf("id", "7")]),
            XMLElement("item", [_leaf("id", "7")]),
            XMLElement("item", [_leaf("id", "8")]),
        ])
        streamed, direct = _checked(tree, [self.KEY])
        assert streamed == direct and len(streamed) == 1

    def test_inclusion_violation_identical_to_tree_checker(self):
        tree = XMLElement("ctx", [
            XMLElement("item", [_leaf("id", "1")]),
            XMLElement("ref", [_leaf("rid", "1")]),
            XMLElement("ref", [_leaf("rid", "2")]),
        ])
        streamed, direct = _checked(tree, [self.INCLUSION])
        assert streamed == direct and len(streamed) == 1

    def test_nested_contexts_and_missing_fields(self):
        inner = XMLElement("ctx", [
            XMLElement("item", [_leaf("id", "1")]),
            XMLElement("item", [_leaf("id", "1")]),
            XMLElement("item"),                      # field absent: skipped
        ])
        tree = XMLElement("ctx", [
            XMLElement("item", [_leaf("id", "1")]),  # unique at outer level?
            XMLElement("item", [_leaf("id", "1")]),
            inner,
        ])
        streamed, direct = _checked(tree, [self.KEY, self.INCLUSION])
        assert streamed == direct

    def test_incomplete_stream_rejected(self):
        checker = StreamingConstraintChecker([self.KEY])
        checker.start("ctx")
        with pytest.raises(ValueError):
            checker.result()

    def test_satisfied_stream_is_clean(self):
        tree = XMLElement("ctx", [
            XMLElement("item", [_leaf("id", "1")]),
            XMLElement("ref", [_leaf("rid", "1")]),
        ])
        streamed, direct = _checked(tree, [self.KEY, self.INCLUSION])
        assert streamed == direct == []


# ---------------------------------------------------------------------------
# streaming-tagging memory bound
# ---------------------------------------------------------------------------

WIDE_DTD = """
    <!ELEMENT feed (entry*)>
    <!ELEMENT entry (name, body%s)>
"""

#: The constant per-entry subtree of the wide-*catalog* shape: the tree
#: pays a node per leaf and row, the stream one format string per row.
LISTING = ("currency", "unit", "audited", "origin", "grade", "channel")


def build_wide_scenario(rows=400, body_chars=600, listing=()):
    """A feed whose bodies are large (2 of 7 warehouse columns used);
    ``listing`` names constant leaves appended to every entry."""
    schema = SourceSchema("W", (relation(
        "stories", "name", "body", "day", "u0", "u1", "u2", "u3"),))
    dtd = WIDE_DTD % (", listing" if listing else "")
    if listing:
        dtd += f"<!ELEMENT listing ({', '.join(listing)})>"
    aig = AIG(parse_dtd(dtd), Catalog([schema]), root_inh=("day",))
    aig.inh("entry", "name", "body")
    aig.rule("feed", inh={"entry": query(
        "select s.name, s.body from W:stories s where s.day = $day")})
    aig.rule("entry", inh={
        "name": assign(val=inh("name")),
        "body": assign(val=inh("body")),
    })
    if listing:
        aig.rule("listing", inh={tag: assign(val=Const(tag))
                                 for tag in listing})
    source = DataSource(schema)
    source.load_rows("stories", [
        (f"n{i:05d}", f"{i:06d}" * (body_chars // 6), "d1",
         "pad", "pad", "pad", "pad")
        for i in range(rows)])
    return aig.validate(), {"W": source}


class TestPushdown:
    @pytest.mark.parametrize("knob", ["pushdown", "columnar",
                                      "query_overhead", "emulate_overheads",
                                      "scheduling", "stats", "workers",
                                      "cost_feedback"])
    def test_removed_knobs_are_refused(self, knob):
        aig, sources = build_wide_scenario(rows=1, body_chars=6)
        with pytest.raises(TypeError, match=knob):
            Middleware(aig, sources, **{knob: True})

    def test_streaming_tagging_peak_below_document_size(self):
        aig, sources = build_wide_scenario()
        middleware = Middleware(aig, sources)
        prepared = middleware.prepare(None)
        tagging_plan = prepared.tagging_plan
        from repro.runtime.engine import Engine
        engine = Engine(prepared.graph, prepared.plan, sources,
                        middleware.network, mediator=middleware.mediator,
                        tagging_plan=tagging_plan)
        try:
            result = engine.run({"day": "d1"})
            sizer = StreamSerializer(lambda chunk: None, indent=2)
            tracemalloc.start()
            try:
                stream_document(tagging_plan, result.cache, {"day": "d1"},
                                sizer)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            engine.cleanup()
        document_bytes = sizer.characters
        assert document_bytes > 200_000
        # Tagging must not buffer the document: its working set (sort keys,
        # per-parent row groups) stays well under the emitted byte count.
        assert peak < 0.8 * document_bytes, \
            f"streaming tagging peaked at {peak}B for a " \
            f"{document_bytes}B document"

    def test_tree_peak_at_least_5x_streamed_peak(self):
        """Materializing (tree + rendered string) peaks at >= 5x streaming
        into a hashing writer, bytes equal: the floor the retired data-plane
        bench held at 20 000 catalog rows (recorded ratios 5.9-8.5).  A
        tree is materialized by reading it: ``evaluate`` leaves the feed's
        one fragment group unbuilt until a reader asks, and ``serialize``
        alone does not, so that path peaks lower still."""
        aig, sources = build_wide_scenario(rows=2000, body_chars=24,
                                           listing=LISTING)

        def materialized(read=True):
            report = Middleware(aig, sources).evaluate({"day": "d1"})
            if read:
                assert sum(1 for _ in report.document.iter()) > 2000
            return serialize(report.document, indent=2)

        def streamed():
            digest = hashlib.sha256()
            Middleware(aig, sources).evaluate_stream(
                {"day": "d1"},
                lambda chunk: digest.update(chunk.encode("utf-8")), indent=2)
            return digest.hexdigest()

        def traced_peak(run):
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        xml, tree_peak = traced_peak(materialized)
        unread_xml, unread_peak = traced_peak(
            lambda: materialized(read=False))
        stream_sha, stream_peak = traced_peak(streamed)
        assert stream_sha == hashlib.sha256(xml.encode("utf-8")).hexdigest()
        assert unread_xml == xml
        assert tree_peak >= 5 * stream_peak, \
            f"tree path peaked at {tree_peak}B, streamed at {stream_peak}B " \
            f"({tree_peak / stream_peak:.2f}x)"
        assert unread_peak < tree_peak, \
            f"unread tree path peaked at {unread_peak}B, read at {tree_peak}B"

    def test_null_event_sink_accepts_events(self):
        sink = NullEventSink()
        sink.start("a")
        sink.text("x")
        sink.end()


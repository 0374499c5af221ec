"""The compiled tagging program (docs/INTERNALS.md, "Tagging").

``stream_document`` compiles a ``TaggingPlan`` once into a
``TaggingProgram`` and hands every star/choice-free run of siblings to the
sinks as one ``Fragment``, a sibling group at a time.  A sink may take
groups natively (``StreamSerializer``: a template's constant pieces
interleaved with the columns; ``TreeSink``: the fragment's ops run over the
trusted node constructors) or receive them through the shared
``Fragment.replay`` (the streaming checker).  Several sinks get a pass
each.  The program's own writer is held to the same reference in
``tests/test_program_writer.py``.
``tests/reference_writer.py`` writes the ``TreeSink`` tree with every
group built and shares no code with ``StreamSerializer``, so byte equality
of the two is the "fragment path == event path" property
(:func:`tree_bytes` checks ``serialize`` of the tree as tagging left it
against it); ``ValidatedTreeSink`` below is the tree the same events make
through ``XMLElement(...)`` / ``append``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, Const, assign, inh, query
from repro.compilation.occurrences import RootValue, TableColumn
from repro.constraints import StreamingConstraintChecker, check_constraints
from repro.dtd import parse_dtd
from repro.dtd.analysis import base_name
from repro.hospital import build_hospital_aig, make_sources
from repro.obs import Tracer
from repro.relational import Catalog, DataSource, SourceSchema
from repro.relational.schema import relation
from repro.relational.source import ResultSet
from repro.runtime import Middleware
from repro.runtime.engine import Engine
from repro.runtime import tagging
from repro.runtime.tagging import (
    NullEventSink,
    TaggingProgram,
    TreeSink,
    build_document,
    stream_document,
)
from repro.xmlmodel import StreamSerializer, XMLElement, XMLText, serialize
from tests.conftest import load_tiny_hospital
from tests.reference_writer import reference_serialize
from tests.test_mediator_resident import build_group_aig, group_sources
from tests.test_recursive_choice import TREE_ROWS, build_fs_aig, load

# every PCDATA value of ``product`` is a query column; ``listing`` is
# constant, one constant carrying what a %-template must escape and the
# first slot marker ``StreamSerializer.template`` would otherwise pick
CATALOG_DTD = """
    <!ELEMENT catalog (product*)>
    <!ELEMENT product (sku, title, price, listing)>
    <!ELEMENT listing (currency, discount)>
"""
CATALOG_SCHEMA = SourceSchema("WH", (relation(
    "items", "sku", "title", "price", "day"),))
DISCOUNT = "5% off %s \ue000"


def build_catalog_aig() -> AIG:
    aig = AIG(parse_dtd(CATALOG_DTD), Catalog([CATALOG_SCHEMA]),
              root_inh=("day",))
    aig.inh("product", "sku", "title", "price")
    aig.rule("catalog", inh={"product": query(
        "select i.sku, i.title, i.price from WH:items i "
        "where i.day = $day")})
    aig.rule("product", inh={"sku": assign(val=inh("sku")),
                             "title": assign(val=inh("title")),
                             "price": assign(val=inh("price"))})
    aig.rule("listing", inh={"currency": assign(val=Const("USD")),
                             "discount": assign(val=Const(DISCOUNT))})
    return aig.validate()


def catalog_sources(rows: int = 12) -> dict:
    source = DataSource(CATALOG_SCHEMA)
    source.load_rows("items", [(f"sku{i:04d}", f"Widget {i} <&>", str(i), "d1")
                               for i in range(rows)])
    return {"WH": source}


def hospital():
    sources = make_sources()
    load_tiny_hospital(sources)
    return (build_hospital_aig(), sources, {"date": "d1"},
            {"unfold_depth": 4})


def build_card_aig() -> AIG:
    # no star and no choice anywhere: the root itself is a fragment
    aig = AIG(parse_dtd("""
        <!ELEMENT card (name, info)>
        <!ELEMENT info (currency, blank, note)>
        <!ELEMENT blank EMPTY>
    """), Catalog([CATALOG_SCHEMA]), root_inh=("who",))
    aig.rule("card", inh={"name": assign(val=inh("who"))})
    aig.rule("info", inh={"currency": assign(val=Const("USD")),
                          "note": assign(val=Const(DISCOUNT))})
    return aig.validate()


SCENARIOS = {
    "hospital": hospital,     # choices, unfolded recursion, rename
    "groups": lambda: (build_group_aig(), group_sources(), {"run": "1"}, {}),
    "catalog": lambda: (build_catalog_aig(), catalog_sources(), {"day": "d1"},
                        {}),
    "card": lambda: (build_card_aig(), catalog_sources(0), {"who": "a<b"},
                     {}),
}


class Tagged:
    """One scenario evaluated up to (not including) tagging."""

    def __init__(self, name: str):
        aig, sources, self.root, options = SCENARIOS[name]()
        self.aig = aig
        self.middleware = Middleware(aig, sources, **options)
        depth = self.middleware.evaluate(dict(self.root)).unfold_depth
        prepared = self.middleware.prepare(depth)
        self.plan = prepared.tagging_plan
        self.rename = base_name if depth is not None else None
        self.engine = Engine(prepared.graph, prepared.plan, sources,
                             self.middleware.network,
                             mediator=self.middleware.mediator,
                             tagging_plan=self.plan)
        self.cache = dict(self.engine.run(dict(self.root)).cache)

    def stream(self, *sinks):
        return stream_document(self.plan, self.cache, dict(self.root),
                               *sinks, rename=self.rename)

    def tree(self):
        return build_document(self.plan, self.cache, dict(self.root),
                              rename=self.rename)

    def written(self, indent, *beside) -> tuple[str, StreamSerializer, int]:
        chunks: list[str] = []
        serializer = StreamSerializer(chunks.append, indent=indent)
        count = self.stream(serializer, *beside)
        return "".join(chunks), serializer, count


def tree_bytes(document, indent=None) -> str:
    """``serialize(document, indent)``, checked against the reference
    writer over the same tree with every group built."""
    written = serialize(document, indent=indent)
    assert written == reference_serialize(document, indent)
    return written


class ValidatedTreeSink:
    """Events only, every node through the validating constructors."""

    def __init__(self):
        self.root = self._open = None

    def start(self, tag):
        node = XMLElement(tag)
        if self._open is None:
            self.root = node
        else:
            self._open.append(node)
        self._open = node

    def text(self, value):
        self._open.append(XMLText(value))

    def end(self):
        self._open = self._open.parent


def assert_well_formed(document, validated) -> None:
    """``document`` (trusted constructors) is the tree ``validated`` is,
    with every parent link and every PCDATA value what ``append`` and
    ``XMLText(...)`` would have made them."""
    assert document == validated and document.parent is None
    stack = [document]
    while stack:
        node = stack.pop()
        for child in node.children:
            assert child.parent is node
            if isinstance(child, XMLText):
                assert type(child.value) is str
            else:
                assert type(child.tag) is str and child.tag
                stack.append(child)


@pytest.fixture(params=sorted(SCENARIOS))
def tagged(request):
    scenario = Tagged(request.param)
    yield scenario
    scenario.engine.cleanup()


@pytest.fixture(scope="module")
def catalog():
    scenario = Tagged("catalog")
    yield scenario
    scenario.engine.cleanup()


class TestFragmentPathEqualsEventPath:
    @pytest.mark.parametrize("indent", [None, 2])
    def test_serializer_alone(self, tagged, indent):
        document = tagged.tree()
        text, serializer, count = tagged.written(indent)
        assert text == tree_bytes(document, indent)
        assert serializer.characters == len(text)
        assert count == sum(1 for _ in document.iter())
        assert 0 < count.in_fragments <= count
        assert count + count.texts == document.size()

    @pytest.mark.parametrize("indent", [None, 2])
    def test_serializer_beside_checker(self, tagged, indent):
        # two sinks, one native and one on the shared replay
        document = tagged.tree()
        checker = StreamingConstraintChecker(tagged.aig.constraints)
        text, _, _ = tagged.written(indent, checker)
        assert text == tree_bytes(document, indent)
        assert [str(v) for v in checker.result()] == \
            [str(v) for v in check_constraints(document,
                                               tagged.aig.constraints)]

    def test_trusted_tree_is_the_validated_tree(self, tagged):
        trusted, validated = TreeSink(), ValidatedTreeSink()
        tagged.stream(trusted, validated)
        assert_well_formed(trusted.root, validated.root)
        for indent in (None, 0, 2):
            assert tree_bytes(trusted.root, indent) == \
                tagged.written(indent)[0]

    def test_tree_beside_serializer_both_native(self, tagged, monkeypatch):
        # in its own pass each sink takes a fragment in one native call: the
        # tree sink sees ``start`` only for elements outside fragments
        started = []
        real_start = TreeSink.start

        def counting_start(self, tag):
            started.append(tag)
            real_start(self, tag)

        monkeypatch.setattr(TreeSink, "start", counting_start)
        sink = TreeSink()
        text, _, count = tagged.written(2, sink)
        assert text == tree_bytes(sink.root, 2)
        if count.in_fragments == count:
            # "card": the document is one fragment, delivered with no open
            # element — replayed, because only ``start`` sets a root
            assert len(started) == count
        else:
            assert len(started) == count - count.in_fragments

    @pytest.mark.parametrize("indent", [None, 2])
    def test_a_one_fragment_document_is_written_whole(self, indent):
        # "card" reaches the serializer as one lone fragment with no open
        # element: no ``end`` closes the document, the fragment itself must
        # hand its pieces to ``write``
        scenario = Tagged("card")
        try:
            text, serializer, count = scenario.written(indent)
            assert count.in_fragments == count
            assert text == tree_bytes(scenario.tree(), indent)
            assert text and serializer.characters == len(text)
        finally:
            scenario.engine.cleanup()

    def test_replay_is_the_event_path(self, tagged):
        # a serializer stripped of its native method gets the same bytes
        class EventsOnly:
            def __init__(self, inner):
                self.start, self.text, self.end = \
                    inner.start, inner.text, inner.end

        chunks: list[str] = []
        tagged.stream(EventsOnly(StreamSerializer(chunks.append, indent=2)))
        assert "".join(chunks) == tagged.written(2)[0]


ADVERSARIAL = st.one_of(
    st.sampled_from(["%", "%s", "%%", "%(x)s", "\x00", "&", "<", ">", '"',
                     "'", "&amp;", "", " ", "", "a%sb<c>&d"]),
    st.none(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="%s&<>\"'\x00 ab", max_size=6))


class TestAdversarialValues:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(ADVERSARIAL, ADVERSARIAL, ADVERSARIAL),
                         max_size=5),
           indent=st.sampled_from([None, 2]),
           percent_tags=st.booleans())
    def test_values_constants_and_tags(self, catalog, rows, indent,
                                       percent_tags):
        scenario = catalog
        node = scenario.plan.table_of["catalog/product"]
        columns = scenario.cache[node].columns
        assert {"sku", "title", "price", "__id"} <= set(columns)
        cache = {**scenario.cache, node: ResultSet(columns, [
            tuple({"sku": sku, "title": title, "price": price,
                   "__id": number + 1}.get(name) for name in columns)
            for number, (sku, title, price) in enumerate(rows)])}
        rename = (lambda tag: tag + "%d") if percent_tags else None
        document = build_document(scenario.plan, cache, {"day": "d1"},
                                  rename=rename)
        chunks: list[str] = []
        validated = ValidatedTreeSink()
        stream_document(scenario.plan, cache, {"day": "d1"},
                        StreamSerializer(chunks.append, indent=indent),
                        validated, rename=rename)
        assert "".join(chunks) == tree_bytes(document, indent)
        assert_well_formed(document, validated.root)
        assert len(document.children) == len(rows)
        for product in document.children:
            discount = product.children[3].children[1]
            assert discount.text_value() == DISCOUNT


class TestTagsAreCheckedOnce:
    @pytest.mark.parametrize("bad", ["", 1, None])
    def test_bad_tag_refused_at_compile_time_and_by_start(self, catalog,
                                                          bad):
        # a fragment hands its tags to the tree sink unchecked, so the
        # check is where the program is compiled ...
        with pytest.raises(TypeError):
            TaggingProgram(catalog.plan, rename=lambda tag: bad)
        with pytest.raises(TypeError):      # ... for one tag as for all
            TaggingProgram(catalog.plan, rename=lambda tag: (
                bad if tag == "discount" else tag))
        # ... and in the event methods, which any driver can call
        with pytest.raises(TypeError):
            TreeSink().start(bad)

    def test_text_event_takes_str_only(self):
        sink = TreeSink()
        sink.start("a")
        for value in (1, None, b"x"):
            with pytest.raises(TypeError):
                sink.text(value)
        sink.text("x")
        sink.end()
        assert serialize(sink.root) == "<a>x</a>"


class TestProvenanceBeyondTheOwnRow:
    def test_static_iteration_reads_enclosing_row_and_root(self):
        # member's own row is the fast path; the general reader must serve
        # a column of the enclosing group row and a root attribute too
        scenario = Tagged("groups")
        try:
            tree = scenario.plan.tree
            group = tree.by_path["root/group"]
            mid = "root/group/members/member/mid"
            score = "root/group/members/member/score"
            scenario.plan.text_of[mid] = TableColumn(group, "gid")
            scenario.plan.text_of[score] = RootValue("run")
            scenario.plan._programs.clear()
            document = scenario.tree()
            text, _, count = scenario.written(2)
            assert text == tree_bytes(document, 2)
            groups = document.children
            assert len(groups) == 6
            for element in groups:
                gid = element.children[0].text_value()
                members = element.children[1].children
                assert len(members) == 3
                for member in members:
                    assert member.children[0].text_value() == gid
                    assert member.children[1].text_value() == "1"
            assert count.in_fragments == 6 * (1 + 3 * 3)
        finally:
            scenario.engine.cleanup()


class TestCompileOnce:
    def test_one_program_per_prepared_plan(self, monkeypatch):
        # one program per prepared plan, and one writer per indent of it
        compiled, writers = [], []
        real = tagging.TaggingProgram.__init__
        real_step = tagging.TaggingProgram._write_step

        def counting(self, plan, rename=None):
            compiled.append(rename)
            real(self, plan, rename)

        def counting_step(self, item, formats, level):
            if item is self._item:
                writers.append((formats.indent, level))
            return real_step(self, item, formats, level)

        monkeypatch.setattr(tagging.TaggingProgram, "__init__", counting)
        monkeypatch.setattr(tagging.TaggingProgram, "_write_step",
                            counting_step)
        sources = make_sources()
        load_tiny_hospital(sources)
        middleware = Middleware(build_hospital_aig(), sources,
                                unfold_depth=4)
        for _ in range(3):
            for indent in (None, 2):
                serialize(middleware.evaluate({"date": "d1"}).document,
                          indent=indent)
                middleware.evaluate_stream({"date": "d1"},
                                           lambda chunk: None, indent)
        assert compiled == [base_name]
        assert writers == [(None, 0), (2, 0)]
        plan = middleware.prepare(4).tagging_plan
        assert list(plan._programs) == [base_name]
        middleware.invalidate_plans()
        fresh = middleware.prepare(4).tagging_plan
        assert fresh is not plan and not fresh._programs
        middleware.evaluate({"date": "d1"})
        assert compiled == [base_name, base_name]

    def test_fragment_share_is_observable(self):
        tracer = Tracer()
        middleware = Middleware(build_catalog_aig(), catalog_sources(),
                                tracer=tracer)
        report = middleware.evaluate_stream({"day": "d1"},
                                            lambda chunk: None)
        assert report.elements == 1 + 12 * 7
        assert tracer.metrics.gauge("tagging_fragment_elements") == 12 * 7
        span = next(s for s in tracer.spans if s.name == "tagging")
        assert span.attrs["elements"] == report.elements
        assert span.attrs["fragment_elements"] == 12 * 7


class TestOneWritePerRow:
    def test_static_iteration_writes_once_per_row(self):
        rows = 1000
        middleware = Middleware(build_catalog_aig(), catalog_sources(rows))
        writes: list[str] = []
        report = middleware.evaluate_stream({"day": "d1"}, writes.append,
                                            indent=2)
        assert report.elements == 1 + rows * 7
        assert len(writes) <= rows + 4
        assert report.characters == sum(map(len, writes))

    def test_null_sink_takes_fragments(self, catalog):
        assert catalog.stream(NullEventSink()) == 1 + 12 * 7


class TestDryRunOnlyWhereAChoiceCanTruncate:
    """A choice is the only tagging step that raises mid-document —
    ``RecursionTruncated`` where the unfolding cut off the alternative it
    selects, ``EvaluationError`` where its condition selects none — so
    exactly the programs with a choice are dry-run, by ``evaluate`` and
    ``evaluate_stream`` alike, before a byte or a node is made."""

    def test_hospital_is_not_truncatable_at_any_depth(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        middleware = Middleware(build_hospital_aig(), sources)
        for depth in range(1, 9):
            plan = middleware.prepare(depth).tagging_plan
            assert not TaggingProgram(plan, base_name).truncatable, depth

    @pytest.mark.parametrize("depth", [1, 3, 5])
    def test_recursion_through_a_choice_is_truncatable(self, depth):
        middleware = Middleware(build_fs_aig(), {"FS": load(TREE_ROWS)})
        plan = middleware.prepare(depth).tagging_plan
        assert TaggingProgram(plan, base_name).truncatable

    def test_hospital_stream_is_tagged_once(self):
        sources = make_sources()
        load_tiny_hospital(sources)
        expected = serialize(Middleware(build_hospital_aig(), sources,
                                        unfold_depth=4)
                             .evaluate({"date": "d1"}).document, indent=2)
        tracer = Tracer()
        chunks: list[str] = []
        Middleware(build_hospital_aig(), sources, unfold_depth=4,
                   tracer=tracer).evaluate_stream({"date": "d1"},
                                                  chunks.append, indent=2)
        names = [span.name for span in tracer.spans]
        assert not TaggingProgram(
            Middleware(build_hospital_aig(), sources).prepare(4)
            .tagging_plan, base_name).choices
        assert "tagging-dryrun" not in names
        assert names.count("tagging") == 1
        assert "".join(chunks) == expected

    @pytest.mark.parametrize("estimate", [1, 5])
    def test_truncating_choice_reaches_the_writer_once(self, estimate):
        # The data nests three deep.  An odd unfolding cuts ``dir`` off at
        # the choice (truncatable), an even one at the star below it
        # (answered by the probe): from 1 the attempts are 1, 2, 4, 8, and
        # 5 fits at once.  Every attempt has a choice, so each is dry-run,
        # the truncatable ones too; only the attempt that fits writes.
        aig, source = build_fs_aig(), load(TREE_ROWS)
        expected = serialize(Middleware(aig, {"FS": source})
                             .evaluate({}).document, indent=2)
        tracer = Tracer()
        chunks: list[str] = []
        middleware = Middleware(aig, {"FS": source}, unfold_depth=estimate,
                                tracer=tracer)
        middleware.evaluate_stream({}, chunks.append, indent=2)
        assert "".join(chunks) == expected
        names = [span.name for span in tracer.spans]
        assert names.count("tagging") == 1
        attempts = [span.attrs["depth"] for span in tracer.spans
                    if span.name == "evaluate-stream"]
        assert attempts == ([1, 2, 4, 8] if estimate == 1 else [5])
        programs = [TaggingProgram(middleware.prepare(depth).tagging_plan,
                                   base_name) for depth in attempts]
        assert sum(program.truncatable for program in programs) >= 1
        assert names.count("tagging-dryrun") == sum(
            bool(program.choices) for program in programs) == len(attempts)

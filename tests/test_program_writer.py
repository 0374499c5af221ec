"""The tagging program as the writer (docs/INTERNALS.md, "Tagging").

An unread document and ``evaluate_stream`` are written by the compiled
``TaggingProgram`` itself: its lines and fragment templates are fixed per
(occurrence, indent) and appended straight to the serializer's pieces, with
no ``start`` / ``end`` events.  ``tests/reference_writer.py`` shares no code
with it, so each case here compares the program's bytes with the reference
writer over the same document built, at indents ``None``, 0, 2 and 7.
"""

import io
import operator
import re
import tokenize

import pytest

from repro.aig import AIG, Const, assign, inh, query
from repro.dtd import parse_dtd
from repro.dtd.analysis import base_name
from repro.errors import EvaluationError, RecursionTruncated
from repro.fuzz import generate_scenario
from repro.fuzz.spec import build_scenario
from repro.obs import Tracer
from repro.relational import Catalog, DataSource, SourceSchema
from repro.relational import source as source_module
from repro.relational.schema import relation
from repro.runtime import Middleware
from repro.runtime.engine import Engine
from repro.runtime.tagging import (NullEventSink, TaggingProgram,
                                   TaggingRun, TreeSink, tagging_program)
from repro.xmlmodel import StreamSerializer, element, serialize
from repro.xmlmodel.serialize import _SEPARATOR, GROUP_WRITE_ROWS, MAX_INDENT
from tests.reference_writer import reference_serialize
from tests.test_recursive_choice import TREE_ROWS, build_fs_aig, load
from tests.test_tagging_program import (
    CATALOG_SCHEMA,
    DISCOUNT,
    build_card_aig,
    build_catalog_aig,
)

INDENTS = [None, 0, 2, 7, MAX_INDENT]

#: what a ``%``-template or the one-pass column escape could get wrong
HOSTILE = ["%", "%%", "%s", "%(x)s", _SEPARATOR, "a" + _SEPARATOR + "b",
           "&", "<", ">", '"', "'", "&amp;", "<&>\"'%", "", " ", "café"]


def unread(document) -> bool:
    return document._kids.__class__ is not list


def program_bytes(middleware, root, indent) -> str:
    """The program's bytes, two ways that must agree: ``serialize`` of
    the unread document and ``evaluate_stream``."""
    document = middleware.evaluate(dict(root)).document
    written = serialize(document, indent=indent)
    assert unread(document), "a write builds nothing"
    chunks: list[str] = []
    report = middleware.evaluate_stream(dict(root), chunks.append,
                                        indent=indent)
    assert "".join(chunks) == written
    assert report.characters == len(written)
    # the writer counts what the event path counts
    run = document._kids.run
    counted = run.write(StreamSerializer(lambda chunk: None, indent))
    streamed = run.stream(NullEventSink())
    assert int(counted) == int(streamed) == report.elements
    assert (counted.in_fragments, counted.texts) == \
        (streamed.in_fragments, streamed.texts)
    return written


def built_bytes(middleware, root, indent) -> str:
    document = middleware.evaluate(dict(root)).document
    document.children       # built through the tree sink
    return reference_serialize(document, indent)


def catalog(rows) -> Middleware:
    source = DataSource(CATALOG_SCHEMA)
    source.load_rows("items", rows)
    return Middleware(build_catalog_aig(), {"WH": source})


@pytest.mark.parametrize("indent", INDENTS)
class TestProgramEqualsReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_fuzz_scenarios(self, seed, indent):
        spec = generate_scenario(seed)
        aig, sources = build_scenario(spec)
        middleware = Middleware(aig, sources, violation_mode="report")
        root = dict(spec.root_values)
        assert program_bytes(middleware, root, indent) == \
            built_bytes(middleware, root, indent)

    def test_fuzz_grid_has_choices_and_renames(self, indent):
        # the seeds above cover both, not by luck of a later generator
        kinds = set()
        for seed in range(12):
            spec = generate_scenario(seed)
            aig, sources = build_scenario(spec)
            report = Middleware(aig, sources, violation_mode="report") \
                .evaluate(dict(spec.root_values))
            program = report.document._kids.run.program
            if program.choices:
                kinds.add("choice")
            if report.unfold_depth is not None:
                kinds.add("rename")
        assert kinds == {"choice", "rename"}

    def test_an_empty_star_is_one_empty_line(self, indent):
        middleware = catalog([])
        written = program_bytes(middleware, {"day": "d1"}, indent)
        assert written == built_bytes(middleware, {"day": "d1"}, indent)
        assert written.strip() == "<catalog/>"

    def test_hostile_and_non_str_values(self, indent):
        values = HOSTILE + [0, -7, 2.5, None, 2**40]
        rows = [(values[i % len(values)], values[(i * 7 + 3) % len(values)],
                 values[(i * 5 + 1) % len(values)], "d1")
                for i in range(len(values) * 3)]
        middleware = catalog(rows)
        written = program_bytes(middleware, {"day": "d1"}, indent)
        assert written == built_bytes(middleware, {"day": "d1"}, indent)
        assert written.count("<product>") == len(rows)
        assert written.count(DISCOUNT) == len(rows)

    def test_a_root_attribute_slot(self, indent):
        # "card" is one fragment, its slot read from the root attribute
        middleware = Middleware(build_card_aig(),
                                {"WH": DataSource(CATALOG_SCHEMA)})
        for who in HOSTILE:
            written = program_bytes(middleware, {"who": who}, indent)
            assert written == built_bytes(middleware, {"who": who}, indent)

    def test_an_unread_root_below_other_elements(self, indent):
        rows = [(f"s{i}", HOSTILE[i % len(HOSTILE)], str(i), "d1")
                for i in range(5)]
        middleware = catalog(rows)
        document = middleware.evaluate({"day": "d1"}).document
        outer = element("outer", element("first"),
                        element("inner", document))
        assert unread(document)
        written = serialize(outer, indent=indent)
        assert unread(document)
        assert written == reference_serialize(outer, indent)
        alone = program_bytes(middleware, {"day": "d1"}, indent)
        if indent:
            # the same lines, two levels deeper
            pad = " " * (2 * indent)
            assert "".join(pad + line + "\n"
                           for line in alone.splitlines()) in written
        else:
            assert alone in written


# ---------------------------------------------------------------------------
# escaping decided once per (result, column)
# ---------------------------------------------------------------------------

MARKUP = "&<>\"'"
ESCAPED = "&amp;&lt;&gt;&quot;&apos;"
LARGE = 3 * GROUP_WRITE_ROWS


def product_rows(count: int, title=lambda i: f"t{i}", day="d1"):
    return [(f"s{i:04d}", title(i), str(i), day) for i in range(count)]


@pytest.mark.parametrize("indent", INDENTS)
class TestEscapingPerColumn:
    def test_one_marked_row_at_the_end_of_a_large_group(self, indent):
        middleware = catalog(product_rows(
            LARGE, lambda i: MARKUP if i == LARGE - 1 else f"t{i}"))
        written = program_bytes(middleware, {"day": "d1"}, indent)
        assert written == built_bytes(middleware, {"day": "d1"}, indent)
        assert written.count(ESCAPED) == 1
        assert written.rindex("<product>") < written.index(ESCAPED)

    @pytest.mark.parametrize("count", [5, LARGE])
    def test_the_flag_belongs_to_the_result(self, count, indent):
        # one compiled writer, over a clean column and then a marked one
        source = DataSource(CATALOG_SCHEMA)
        source.load_rows("items", product_rows(count) + product_rows(
            count, lambda i: f"t<{i}", "d2"))
        middleware = Middleware(build_catalog_aig(), {"WH": source})
        writers = set()
        for day in ("d1", "d2", "d1"):
            written = program_bytes(middleware, {"day": day}, indent)
            assert written == built_bytes(middleware, {"day": day}, indent)
            assert written.count("&lt;") == (count if day == "d2" else 0)
            document = middleware.evaluate({"day": day}).document
            writers.add(document._kids.run.program.writer(indent))
        assert len(writers) == 1

    @pytest.mark.parametrize("count", [5, LARGE])
    def test_int_float_and_none_columns(self, count, indent):
        middleware = catalog([(i, i + 0.25, None, "d1")
                              for i in range(count)])
        written = program_bytes(middleware, {"day": "d1"}, indent)
        assert written == built_bytes(middleware, {"day": "d1"}, indent)
        assert written.count("<product>") == count
        assert f"{count - 1 + 0.25}" in written

    def test_a_root_attribute_holding_entities(self, indent):
        # in a lone fragment (the card is one), and in a fragment beside a
        # star (an iteration's own members are columns of its rows)
        card = Middleware(build_card_aig(), {"WH": DataSource(CATALOG_SCHEMA)})
        source = DataSource(NAMES_SCHEMA)
        source.load_rows("stock_lines", [("k", "l0", "d1")])
        source.load_rows("sub_rows", [("l0", "9")])
        names = Middleware(build_names_aig(), {"WH": source})
        for middleware, root in ((card, {"who": MARKUP}), (names, {
                "day_key": "d1", "owner_key": MARKUP})):
            written = program_bytes(middleware, root, indent)
            assert written == built_bytes(middleware, root, indent)
            assert ESCAPED in written
            text = writer_source(middleware.evaluate(dict(root)).document,
                                 indent)
            # escaped once a run, where the prologue binds it
            assert re.search(r"^    v\d+ = _pcdata\(.*\.replace\(a4, b4\)$",
                             text, re.M)
            assert not re.search(r"\bv\d+\.replace", text)

    @pytest.mark.parametrize("count", [5, LARGE])
    def test_a_fragment_mixing_clean_and_marked_columns(self, count, indent):
        middleware = catalog(product_rows(count, lambda i: f"t{i} & co"))
        written = program_bytes(middleware, {"day": "d1"}, indent)
        assert written == built_bytes(middleware, {"day": "d1"}, indent)
        assert written.count("&amp;") == count
        table = middleware.evaluate({"day": "d1"}).document._kids.run \
            .tables[0]
        assert table.result.clean_columns(
            [table.index_of(name) for name in ("sku", "title", "price")],
            MARKUP) == [True, False, True]


def test_flags_are_computed_once_per_result(monkeypatch):
    # a write makes one call a table for its flags, and only the first
    # write of a result reads its columns for them
    calls, joined = [], []
    real = source_module.ResultSet.clean_columns

    def counting(result, indexes, characters):
        calls.append(len(indexes))
        return real(result, indexes, characters)

    run = catalog(product_rows(LARGE)).evaluate({"day": "d1"}) \
        .document._kids.run
    monkeypatch.setattr(source_module.ResultSet, "clean_columns", counting)
    monkeypatch.setattr(source_module, "itemgetter", lambda index: (
        joined.append(index) or operator.itemgetter(index)))
    for indent in (2, 2, None):
        run.write(StreamSerializer(lambda chunk: None, indent))
    assert calls == [3, 3, 3]
    assert sorted(joined) == sorted(
        run.tables[0].index_of(name) for name in ("sku", "title", "price"))


def test_a_write_binds_no_column_reader(monkeypatch):
    bound = []
    real = TaggingProgram._columns_reader

    def counting(self, fragment, tables, root_inh):
        bound.append(fragment)
        return real(self, fragment, tables, root_inh)

    monkeypatch.setattr(TaggingProgram, "_columns_reader", counting)
    document = catalog(product_rows(5)).evaluate({"day": "d1"}).document
    run = document._kids.run
    written = serialize(document, indent=2)
    assert bound == []
    # an event pass after the write binds them and builds the same tree
    sink = TreeSink()
    run.stream(sink)
    assert bound == run.program.fragments
    assert reference_serialize(sink.root, 2) == written


# ---------------------------------------------------------------------------
# the generated source: flat at any depth, and no data in its text
# ---------------------------------------------------------------------------

def writer_source(document, indent) -> str:
    """The generated text of the writer that wrote ``document``."""
    return document._kids.run.program.writer(indent).source


def nesting(source: str) -> int:
    return max((len(line) - len(line.lstrip(" "))) // 4
               for line in source.splitlines())


def chain_rows(depth: int) -> list[tuple]:
    """A directory chain ``depth`` deep ending in one file."""
    rows = [("d0", "root", "level0", "2", "")]
    rows += [(f"d{level}", f"d{level - 1}", f"level{level}", "2", "")
             for level in range(1, depth)]
    return rows + [("leaf", f"d{depth - 1}", "deepfile", "1", "7")]


class TestRecursiveChoiceAtMaxDepth:
    @pytest.fixture(scope="class")
    def deep(self):
        # merged, the 64 levels are one statement past SQLite's limit on
        # references to one table
        middleware = Middleware(build_fs_aig(), {"FS": load(chain_rows(30))},
                                unfold_depth=64, merging=False)
        report = middleware.evaluate({})
        assert report.unfold_depth == 64
        return middleware

    @pytest.mark.parametrize("indent", INDENTS)
    def test_equals_the_reference_writer(self, deep, indent):
        assert program_bytes(deep, {}, indent) == built_bytes(deep, {},
                                                              indent)

    def test_nesting_does_not_grow_with_depth(self, deep):
        shallow = Middleware(build_fs_aig(), {"FS": load(TREE_ROWS)},
                             unfold_depth=5)
        sources = [writer_source(middleware.evaluate({}).document, 2)
                   for middleware in (deep, shallow)]
        assert len(sources[0]) > 8 * len(sources[1])
        assert nesting(sources[0]) == nesting(sources[1]) <= 6


NAMES_DTD = """
    <!ELEMENT price-list.v_1 (owner_tag-a.b, items-wrap.w_0)>
    <!ELEMENT items-wrap.w_0 (line-item.x_2*)>
    <!ELEMENT line-item.x_2 (sku-code.y_3, sub-lines.q_9)>
    <!ELEMENT sub-lines.q_9 (sub-line.r_7*)>
    <!ELEMENT sub-line.r_7 (unit_price-z.4, note-c.d_5)>
"""
NAMES_SCHEMA = SourceSchema("WH", (
    relation("stock_lines", "sku_code_col", "line_id_col", "day_col"),
    relation("sub_rows", "line_ref_col", "unit_price_col")))
#: slot values and a constant shaped like Python source
PYTHONIC = ["'); x = 1 #", "{}", "\\", '"""', "%(a)s", "\\n"]


def build_names_aig() -> AIG:
    aig = AIG(parse_dtd(NAMES_DTD), Catalog([NAMES_SCHEMA]),
              root_inh=("day_key", "owner_key"))
    aig.inh("items-wrap.w_0", "day_key")
    aig.inh("line-item.x_2", "sku_code_col", "line_id_col")
    aig.inh("sub-lines.q_9", "line_id_col")
    aig.inh("sub-line.r_7", "unit_price_col")
    aig.rule("price-list.v_1", inh={
        "owner_tag-a.b": assign(val=inh("owner_key")),
        "items-wrap.w_0": assign(day_key=inh("day_key"))})
    aig.rule("items-wrap.w_0", inh={"line-item.x_2": query(
        "select s.sku_code_col, s.line_id_col from WH:stock_lines s "
        "where s.day_col = $day_key")})
    aig.rule("line-item.x_2", inh={
        "sku-code.y_3": assign(val=inh("sku_code_col")),
        "sub-lines.q_9": assign(line_id_col=inh("line_id_col"))})
    aig.rule("sub-lines.q_9", inh={"sub-line.r_7": query(
        "select u.unit_price_col from WH:sub_rows u "
        "where u.line_ref_col = $line_id_col")})
    aig.rule("sub-line.r_7", inh={
        "unit_price-z.4": assign(val=inh("unit_price_col")),
        "note-c.d_5": assign(val=Const(PYTHONIC[0]))})
    return aig.validate()


class TestNothingSplicedIntoTheSource:
    @pytest.mark.parametrize("indent", INDENTS)
    def test_names_and_values_stay_out(self, indent):
        source = DataSource(NAMES_SCHEMA)
        source.load_rows("stock_lines", [
            (value, f"l{i}", "d1") for i, value in enumerate(PYTHONIC)])
        source.load_rows("sub_rows", [
            (f"l{i}", PYTHONIC[(i + j) % len(PYTHONIC)])
            for i in range(len(PYTHONIC)) for j in range(i % 3)])
        middleware = Middleware(build_names_aig(), {"WH": source})
        root = {"day_key": "d1", "owner_key": PYTHONIC[1]}
        written = program_bytes(middleware, root, indent)
        assert written == built_bytes(middleware, root, indent)
        assert "<sub-line.r_7>" in written and "&apos;); x = 1 #" in written
        text = writer_source(middleware.evaluate(dict(root)).document,
                             indent)
        tags = re.findall(r"<!ELEMENT\s+(\S+)", NAMES_DTD)
        columns = [column.name for relation in NAMES_SCHEMA.relations
                   for column in relation.columns]
        for word in [*tags, *columns, *PYTHONIC, "d1", "day_key"]:
            assert word not in text, word
        # names, integer literals and operators: no string, float or
        # other literal enters the text
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        kinds = {token.type for token in tokens}
        assert kinds <= {tokenize.NAME, tokenize.NUMBER, tokenize.OP,
                         tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                         tokenize.DEDENT, tokenize.ENDMARKER}
        assert all(token.string.isdigit() for token in tokenize
                   .generate_tokens(io.StringIO(text).readline)
                   if token.type == tokenize.NUMBER)


# ---------------------------------------------------------------------------
# what a choice raises, written without a dry run
# ---------------------------------------------------------------------------

def fs_run(depth: int, rows) -> TaggingRun:
    """A tagging run of the file-system AIG unfolded ``depth`` times over
    ``rows``, bound straight from an engine run: no dry run."""
    source = load(rows)
    middleware = Middleware(build_fs_aig(with_key=False), {"FS": source})
    prepared = middleware.prepare(depth)
    engine = Engine(prepared.graph, prepared.plan, {"FS": source},
                    middleware.network, mediator=middleware.mediator,
                    tagging_plan=prepared.tagging_plan)
    try:
        cache = engine.run({}).cache
        return TaggingRun(tagging_program(prepared.tagging_plan, base_name),
                          cache, {})
    finally:
        engine.cleanup()


def raised(action) -> tuple[type, str]:
    with pytest.raises((EvaluationError, RecursionTruncated)) as caught:
        action()
    return caught.type, str(caught.value)


class TestChoiceErrorsWritten:
    @pytest.mark.parametrize("condition, message", [
        ({}, "returned no value for an instance at"),
        ([("x",)], "returned non-integer 'x'"),
        ([(None,)], "returned non-integer None"),
        ([("7",)], "returned 7, outside [1, 2]"),
        ([("0",)], "returned 0, outside [1, 2]"),
    ])
    @pytest.mark.parametrize("indent", [None, 2])
    def test_bad_condition(self, condition, message, indent):
        run = fs_run(5, TREE_ROWS)
        for table in run.conditions:
            table.by_parent = ({} if condition == {} else
                               {key: condition for key in table.by_parent})
        streamed = raised(lambda: run.stream(NullEventSink()))
        written = raised(lambda: run.write(
            StreamSerializer(lambda chunk: None, indent)))
        assert written == streamed
        assert written[0] is EvaluationError and message in written[1]

    @pytest.mark.parametrize("indent", [None, 2])
    def test_truncated_alternative(self, indent):
        # the data nests three deep; one unfolding cuts ``dir`` off at the
        # choice
        run = fs_run(1, TREE_ROWS)
        assert run.program.truncatable
        streamed = raised(lambda: run.stream(NullEventSink()))
        written = raised(lambda: run.write(
            StreamSerializer(lambda chunk: None, indent)))
        assert written == streamed
        assert written[0] is RecursionTruncated
        assert "truncated by recursion unfolding" in written[1]


# ---------------------------------------------------------------------------
# one compile span per writer, and one indentation rule
# ---------------------------------------------------------------------------

def test_one_compile_span_per_writer():
    tracer = Tracer()
    source = DataSource(CATALOG_SCHEMA)
    source.load_rows("items", [(f"s{i}", "t", str(i), "d1")
                               for i in range(3)])
    middleware = Middleware(build_catalog_aig(), {"WH": source},
                            tracer=tracer)
    for _ in range(3):
        document = middleware.evaluate({"day": "d1"}).document
        serialize(document, indent=2)
    spans = [span for span in tracer.spans
             if span.name == "tagging-compile"]
    assert len(spans) == 1
    assert spans[0].category == "tagging"
    attrs = spans[0].attrs
    assert (attrs["indent"], attrs["level"]) == (2, 0)
    assert attrs["lines"] == writer_source(document, 2).count("\n") > 0


@pytest.mark.parametrize("indent, error", [
    (-1, ValueError), (MAX_INDENT + 1, ValueError), (10 ** 6, ValueError),
    (True, TypeError), (False, TypeError), (2.0, TypeError),
    ("2", TypeError)])
def test_indent_outside_the_rule_is_refused(indent, error):
    middleware = catalog([("s0", "t", "1", "d1")])
    document = middleware.evaluate({"day": "d1"}).document
    with pytest.raises(error, match="'indent' must be"):
        serialize(document, indent=indent)
    with pytest.raises(error, match="'indent' must be"):
        middleware.evaluate_stream({"day": "d1"}, lambda chunk: None,
                                   indent=indent)
    with pytest.raises(error, match="'indent' must be"):
        StreamSerializer(lambda chunk: None, indent)
    assert unread(document)

"""Column kernels on the row path (docs/INTERNALS.md, "Determinism" and
"Tagging").

A ``ResultSet`` learns the Python types of each column once
(``column_types``); pricing, the sibling sort and the fragment value reader
take a C-level pass over a column where its types allow it, and a sink is
handed a whole sibling group of fragments at a time.  Each kernel is pinned
here against the per-value / per-row rule it replaced, kept in this file as
the reference, and the passes it removed are pinned as counts, not clocks.
"""

import math
import sys
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compilation.occurrences import RootValue, TableColumn
from repro.relational.source import ResultSet
from repro.runtime import Middleware
from repro.runtime.tagging import (
    _CLOSE,
    _LEAF,
    _OPEN,
    _SLOT,
    Fragment,
    _sort_key,
    _Table,
    build_document,
    stream_document,
)
from repro.xmlmodel import StreamSerializer, serialize
from repro.xmlmodel.serialize import GROUP_WRITE_ROWS, _SEPARATOR
from tests.test_dataplane import LISTING, build_wide_scenario
from tests.test_tagging_program import Tagged

TEXT = st.one_of(
    st.sampled_from(["", "a", "b", "10", "9", "café", "日本",
                     "\U0001f600", "\U00010000z", "Z"]),
    st.text(max_size=4))
VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False), TEXT,
    st.binary(max_size=4))


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------
def reference_width(rows) -> int:
    """The per-value rule ``width_bytes`` was before the column kernel."""
    total = 0
    for row in rows:
        for value in row:
            if value is None:
                total += 1
            elif isinstance(value, (int, float)):
                total += 8
            else:
                total += len(str(value))
        total += 2 * len(row)
    return total


class TestPricingRule:
    @pytest.mark.parametrize("value, width", [
        (None, 1), (0, 8), (-7, 8), (10**30, 8), (1.5, 8), (True, 8),
        (False, 8), ("", 0), ("abc", 3), ("日本", 2),
        ("\U0001f600", 1), (b"xy", len("b'xy'")), (b"", len("b''")),
    ])
    def test_one_value_plus_two_for_framing(self, value, width):
        assert ResultSet(["a"], [(value,)]).width_bytes() == width + 2

    def test_columns_add_up(self):
        rows = [("ab", 1, None), ("", 2.5, b"x")]
        assert ResultSet(["a", "b", "c"], rows).width_bytes() == \
            (2 + 0) + (8 + 8) + (1 + len("b'x'")) + 2 * 6

    def test_empty_result_is_free(self):
        assert ResultSet(["a", "b"], []).width_bytes() == 0
        assert ResultSet(["a", "b"], []).column_types() == [set(), set()]

    def test_a_bool_in_an_int_column_is_a_number(self):
        result = ResultSet(["a"], [(1,), (True,), (3,)])
        assert result.column_types() == [{int, bool}]
        assert result.width_bytes() == reference_width(result.rows) == 30

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(1, 4))
    def test_column_kernel_equals_the_per_value_loop(self, data, width):
        rows = data.draw(st.lists(
            st.tuples(*[VALUE] * width), max_size=12))
        result = ResultSet([f"c{i}" for i in range(width)], rows)
        assert result.width_bytes() == reference_width(rows)
        assert result.column_types() == [
            {type(row[i]) for row in rows} for i in range(width)]
        assert result.rows is rows          # priced in place: no copy


# ----------------------------------------------------------------------
# sibling order
# ----------------------------------------------------------------------
def reference_order(rows, indexes):
    return sorted(rows, key=lambda row: [
        (row[i] is not None, str(row[i])) for i in indexes])


SORT_VALUE = st.one_of(
    st.none(), st.integers(-50, 50),
    st.floats(allow_nan=False, allow_infinity=False, width=16), TEXT)


class TestSiblingOrder:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(SORT_VALUE, SORT_VALUE,
                                   st.integers(1, 3)), max_size=20),
           all_text=st.booleans())
    def test_table_order_is_the_none_safe_string_order(self, rows,
                                                       all_text):
        if all_text:
            rows = [("" if a is None else str(a), "" if b is None else str(b),
                     parent) for a, b, parent in rows]
        rows = [row + (number + 1,) for number, row in enumerate(rows)]
        result = ResultSet(["a", "b", "__parent", "__id"], rows)
        table = _Table(result, ["a", "b"])
        for parent in (1, 2, 3):
            assert table.rows_for(parent) == reference_order(
                [row for row in rows if row[2] == parent], [0, 1])

    @settings(max_examples=100, deadline=None)
    @given(column=st.lists(SORT_VALUE, max_size=8))
    def test_typed_key_only_when_every_sort_column_is_all_str(self, column):
        rows = [("x", value) for value in column]
        types = ResultSet(["s", "v"], rows).column_types()
        typed = all(type(value) is str for value in column)
        assert isinstance(_sort_key([0], types), itemgetter)
        assert isinstance(_sort_key([1], types), itemgetter) == typed
        assert isinstance(_sort_key([0, 1], types), itemgetter) == typed

    def test_numbers_sort_as_their_strings(self):
        # the contract a pushed-down ORDER BY would break: 10 < 9, and
        # str(float) is Python's, not SQLite's CAST
        rows = [(9, 1), (10, 2), (1e16, 3), (None, 4), (2.5, 5)]
        table = _Table(ResultSet(["v", "__id"], list(rows)), ["v"])
        assert [row[0] for row in table.rows_for(None)] == \
            [None, 10, 1e16, 2.5, 9]


# ----------------------------------------------------------------------
# the group writer
# ----------------------------------------------------------------------
SLOT_TEXT = st.one_of(
    st.sampled_from(["", _SEPARATOR, "%", "%s", "%%", "&", "<", ">", '"',
                     "'", "&amp;", "a" + _SEPARATOR + "b", "café",
                     "\U0001f600"]),
    st.text(alphabet="%s&<>\"'" + _SEPARATOR + " aé", max_size=5))
GROUP_SIZES = [0, 1, 2, GROUP_WRITE_ROWS - 1, GROUP_WRITE_ROWS,
               GROUP_WRITE_ROWS + 1, 2 * GROUP_WRITE_ROWS + 3]


def crafted_fragment(slots: int) -> Fragment:
    """``<e><k>slot</k>...<c>5% %s</c><empty/></e>`` with ``slots`` slots."""
    fragment = Fragment(0)
    fragment.ops.append((_OPEN, "e", None))
    for slot in range(slots):
        fragment.ops.append((_SLOT, f"k{slot}", slot))
        fragment.sources.append((f"e/k{slot}", None))
    fragment.ops += [(_LEAF, "c", "5% %s"), (_LEAF, "empty", None),
                     (_CLOSE, None, None)]
    return fragment


def under_a_root(indent, feed) -> list[str]:
    chunks: list[str] = []
    serializer = StreamSerializer(chunks.append, indent=indent)
    serializer.start("root")
    feed(serializer)
    serializer.end()
    assert serializer.characters == sum(map(len, chunks))
    return chunks


class TestGroupWriter:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), count=st.sampled_from(GROUP_SIZES),
           slots=st.integers(0, 3), indent=st.sampled_from([None, 2]))
    def test_group_bytes_equal_the_event_replay(self, data, count, slots,
                                                indent):
        fragment = crafted_fragment(slots)
        pool = data.draw(st.lists(SLOT_TEXT, min_size=1, max_size=6))
        picks = data.draw(st.randoms(use_true_random=False))
        columns = [[picks.choice(pool) for _ in range(count)]
                   for _ in range(slots)]
        native = under_a_root(indent, lambda serializer:
                              serializer.fragments(fragment, count, columns))
        replayed = under_a_root(indent, lambda serializer:
                                fragment.replay(serializer, count, columns))
        assert "".join(native) == "".join(replayed)
        if count == 0:
            # nothing written for an empty group, not even the open tag
            assert "".join(native) == "".join(under_a_root(
                indent, lambda serializer: None))
        # root open + close, and at most the fixed number of rows a write
        assert len(native) <= 2 + math.ceil(count / GROUP_WRITE_ROWS)

    @pytest.mark.parametrize("provenance", ["anchor", "root"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), count=st.sampled_from(GROUP_SIZES[:-1]),
           indent=st.sampled_from([None, 2]))
    def test_slots_from_own_row_enclosing_anchor_and_root(
            self, groups, provenance, data, count, indent):
        # member.mid is read from the iterating row, member.score from the
        # enclosing group row or a root attribute, group.gid (a lone
        # fragment) from its own anchor
        plan = groups.plan
        group = plan.tree.by_path["root/group"]
        score = "root/group/members/member/score"
        saved = plan.text_of[score]
        plan.text_of[score] = (TableColumn(group, "gid")
                               if provenance == "anchor"
                               else RootValue("run"))
        plan._programs.clear()
        try:
            value = st.one_of(SLOT_TEXT, st.none(), st.integers(-9, 9),
                              st.floats(allow_nan=False,
                                        allow_infinity=False, width=16))
            pool = data.draw(st.lists(value, min_size=1, max_size=5))
            picks = data.draw(st.randoms(use_true_random=False))
            members = [(picks.choice(pool), picks.choice(pool), 1, n + 1)
                       for n in range(count)]
            members.append((picks.choice(pool), "s", 2, count + 1))
            cache = {**groups.cache,
                     "root/group": ResultSet(
                         ["gid", "__id"],
                         [(picks.choice(pool), 1), (picks.choice(pool), 2)]),
                     "root/group/members/member": ResultSet(
                         ["mid", "score", "__parent", "__id"], members)}
            root = {"run": data.draw(SLOT_TEXT)}
            document = build_document(plan, cache, root)
            chunks: list[str] = []
            stream_document(plan, cache, root,
                            StreamSerializer(chunks.append, indent=indent))
            assert "".join(chunks) == serialize(document, indent=indent)

            class EventsOnly:       # no ``fragments``: Fragment.replay
                def __init__(self, inner):
                    self.start, self.text, self.end = \
                        inner.start, inner.text, inner.end

            events: list[str] = []
            stream_document(plan, cache, root, EventsOnly(
                StreamSerializer(events.append, indent=indent)))
            assert "".join(events) == "".join(chunks)
            first = [g for g in document.children
                     if len(g.children[1].children) == count]
            assert first
        finally:
            plan.text_of[score] = saved
            plan._programs.clear()


@pytest.fixture(scope="module")
def groups():
    scenario = Tagged("groups")
    yield scenario
    scenario.engine.cleanup()


# ----------------------------------------------------------------------
# the passes stay gone: counts, not clocks
# ----------------------------------------------------------------------
class TestPassesStayGone:
    ROWS = 2000
    #: Python-level function calls per row of one ``evaluate_stream`` of
    #: the 2 000-row catalog-shaped document.  The row-at-a-time path
    #: measured 5.22 (10 435 calls: sort key, value reader, ``fragment``
    #: and two ``escape_text`` per row); the column kernels 0.32 (636
    #: calls, nearly all of them per document).  20 % headroom.
    CALLS_PER_ROW = 0.38

    @pytest.fixture(scope="class")
    def streamed(self):
        aig, sources = build_wide_scenario(rows=self.ROWS, body_chars=24,
                                           listing=LISTING)
        middleware = Middleware(aig, sources)
        middleware.evaluate_stream({"day": "d1"}, lambda chunk: None,
                                   indent=2)             # plan warm
        writes: list[str] = []
        calls = 0

        def profiler(frame, event, argument):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            report = middleware.evaluate_stream({"day": "d1"}, writes.append,
                                                indent=2)
        finally:
            sys.setprofile(previous)
        assert report.elements == 1 + self.ROWS * (4 + len(LISTING))
        return calls, writes

    def test_python_calls_per_row(self, streamed):
        calls, _ = streamed
        assert calls / self.ROWS <= self.CALLS_PER_ROW, \
            f"{calls} Python-level calls for {self.ROWS} rows"

    def test_writes_are_bounded_batches(self, streamed):
        _, writes = streamed
        assert len(writes) <= math.ceil(self.ROWS / GROUP_WRITE_ROWS) + 4
        per_row = len("".join(writes)) / self.ROWS
        # bounded above too: no write carries more than a batch of rows
        assert max(map(len, writes)) <= per_row * (GROUP_WRITE_ROWS + 1)

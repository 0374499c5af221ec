"""Tests for the SQL-subset lexer, parser, analyzer, renderer, and planner."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.errors import PlanError, SpecError, SQLSyntaxError
from repro.relational import Catalog, DataSource, SourceSchema
from repro.relational.schema import relation
from repro.sqlq import (
    BaseTable,
    ColumnRef,
    Comparison,
    InSet,
    Literal,
    Param,
    Query,
    SelectItem,
    SetParamTable,
    TempTable,
    aliases_of,
    join_graph,
    left_deep_order,
    parse_query,
    plan_steps,
    render_sqlite,
    resolve_unqualified,
    scalar_params,
    set_params,
    sources_of,
)
from repro.sqlq.analyze import is_multi_source, temp_inputs
from repro.sqlq.lexer import tokenize


def with_extra_select(query, *items):
    """``query`` with ``items`` appended to its select list, minus those
    whose alias it already outputs."""
    existing = set(query.output_names)
    added = tuple(i for i in items if i.alias not in existing)
    return replace(query, select=query.select + added)

Q2_TEXT = """
select t.trId, t.tname
from DB1:visitInfo i, DB2:cover c, DB4:treatment t
where i.SSN = $SSN and i.date = $date and t.trId = i.trId
  and c.trId = i.trId and c.policy = $policy
"""


def hospital_catalog():
    return Catalog([
        SourceSchema("DB1", (relation("patient", "SSN", "pname", "policy"),
                             relation("visitInfo", "SSN", "trId", "date"))),
        SourceSchema("DB2", (relation("cover", "policy", "trId"),)),
        SourceSchema("DB3", (relation("billing", "trId", "price"),)),
        SourceSchema("DB4", (relation("treatment", "trId", "tname"),
                             relation("procedure", "trId1", "trId2"))),
    ])


class TestLexer:
    def test_tokens(self):
        tokens = tokenize("select a.b from DB1:t x where a.b = $v")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "keyword" and kinds[-1] == "eof"
        assert any(t.kind == "param" and t.text == "$v" for t in tokens)

    def test_string_literal_with_quote(self):
        tokens = tokenize("select a from DB1:t where a = 'o''brien'")
        strings = [t for t in tokens if t.kind == "string"]
        assert strings[0].text == "'o''brien'"

    def test_unknown_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("select a from t where a = #")


class TestParser:
    def test_q2_parses(self):
        query = parse_query(Q2_TEXT)
        assert len(query.from_items) == 3
        assert sources_of(query) == {"DB1", "DB2", "DB4"}
        assert scalar_params(query) == {"SSN", "date", "policy"}
        assert query.output_names == ["trId", "tname"]

    def test_in_set_param(self):
        query = parse_query("select trId, price from DB3:billing "
                            "where trId in $trIdS")
        assert set_params(query) == {"trIdS"}
        predicate = query.where[0]
        assert isinstance(predicate, InSet) and predicate.param == "trIdS"

    def test_set_param_as_from_item(self):
        query = parse_query("select b.price from $V v, DB3:billing b "
                            "where b.trId = v.trId")
        assert isinstance(query.from_items[0], SetParamTable)
        assert set_params(query) == {"V"}

    def test_temp_table_reference(self):
        query = parse_query("select p.x from @step1 p")
        assert isinstance(query.from_items[0], TempTable)
        assert temp_inputs(query) == {"step1"}

    def test_distinct(self):
        assert parse_query("select distinct a.x from DB1:t a").distinct

    def test_default_alias_is_relation(self):
        query = parse_query("select billing.price from DB3:billing")
        assert query.from_items[0].alias == "billing"

    def test_as_alias(self):
        query = parse_query("select a.x as y from DB1:t a")
        assert query.output_names == ["y"]

    def test_literals(self):
        query = parse_query("select a.x from DB1:t a "
                            "where a.x = 'v' and a.y = 3 and a.z = 1.5")
        values = [p.right.value for p in query.where]
        assert values == ["v", 3, 1.5]

    def test_duplicate_output_names_auto_suffixed(self):
        query = parse_query("select a.x, b.x from DB1:t a, DB1:t2 b")
        assert query.output_names == ["x", "x_1"]

    def test_literal_select_requires_alias(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("select 1 from DB1:t a")
        query = parse_query("select 1 as one from DB1:t a")
        assert query.output_names == ["one"]

    def test_param_select_item(self):
        query = parse_query("select $policy, a.x from DB1:t a")
        assert query.output_names == ["policy", "x"]

    def test_syntax_errors(self):
        for bad in ["select", "select a.b", "select a.b from",
                    "select a.b from t", "select a.b from DB1:t a where",
                    "select a.b from DB1:t a where a.b"]:
            with pytest.raises(SQLSyntaxError):
                parse_query(bad)

    def test_comparison_operators(self):
        query = parse_query("select a.x from DB1:t a "
                            "where a.x <= 3 and a.y <> 'q' and a.z > 1")
        assert [p.op for p in query.where] == ["<=", "<>", ">"]


class TestQueryModel:
    def test_duplicate_aliases_rejected(self):
        with pytest.raises(SpecError):
            Query((SelectItem(ColumnRef("a", "x"), "x"),),
                  (BaseTable("DB1", "t", "a"), BaseTable("DB1", "u", "a")))

    def test_empty_select_rejected(self):
        with pytest.raises(SpecError):
            Query((), (BaseTable("DB1", "t", "a"),))

    def test_with_extra_select_dedups(self):
        query = parse_query("select a.x from DB1:t a")
        extended = with_extra_select(
            query, SelectItem(ColumnRef("a", "y"), "y"),
            SelectItem(ColumnRef("a", "x"), "x"))
        assert extended.output_names == ["x", "y"]

    def test_str_roundtrips_through_parser(self):
        query = parse_query(Q2_TEXT)
        assert parse_query(str(query)) == query


class TestAnalyze:
    def test_join_graph(self):
        query = parse_query(Q2_TEXT)
        graph = join_graph(query)
        assert graph["i"] == {"t", "c"}
        assert graph["t"] == {"i"}

    def test_is_multi_source(self):
        assert is_multi_source(parse_query(Q2_TEXT))
        assert not is_multi_source(
            parse_query("select billing.price from DB3:billing"))

    def test_aliases_of(self):
        query = parse_query(Q2_TEXT)
        assert set(aliases_of(query)) == {"i", "c", "t"}

    def test_resolve_unqualified(self):
        query = parse_query("select trId, price from DB3:billing "
                            "where trId in $V")
        resolved = resolve_unqualified(query, hospital_catalog(),
                                       set_param_fields={"V": ("trId",)})
        assert resolved.select[0].expr == ColumnRef("billing", "trId")
        assert resolved.where[0].field == "trId"

    def test_resolve_ambiguous_rejected(self):
        query = parse_query("select trId from DB1:visitInfo v, DB2:cover c")
        with pytest.raises(SpecError):
            resolve_unqualified(query, hospital_catalog())

    def test_resolve_unknown_column_rejected(self):
        query = parse_query("select zzz from DB3:billing")
        with pytest.raises(SpecError):
            resolve_unqualified(query, hospital_catalog())

    def test_resolve_unknown_alias_rejected(self):
        query = parse_query("select q.x from DB3:billing b")
        with pytest.raises(SpecError):
            resolve_unqualified(query, hospital_catalog())

    def test_resolve_validates_set_param_field(self):
        query = parse_query("select b.price from DB3:billing b "
                            "where b.trId in $V.zzz")
        with pytest.raises(SpecError):
            resolve_unqualified(query, hospital_catalog(),
                                set_param_fields={"V": ("trId",)})


class TestRender:
    def test_scalar_params_positional(self):
        query = parse_query("select v.trId from DB1:visitInfo v "
                            "where v.SSN = $SSN and v.date = $date")
        sql, params = render_sqlite(query,
                                    scalar_values={"SSN": "s1", "date": "d"})
        assert sql.count("?") == 2 and params == ["s1", "d"]

    def test_unbound_param_rejected(self):
        query = parse_query("select v.trId from DB1:visitInfo v "
                            "where v.SSN = $SSN")
        with pytest.raises(PlanError):
            render_sqlite(query)

    def test_multi_source_local_render_rejected(self):
        with pytest.raises(PlanError):
            render_sqlite(parse_query(Q2_TEXT),
                          scalar_values={"SSN": 1, "date": 1, "policy": 1})

    def test_federated_render_qualifies(self):
        sql, _ = render_sqlite(
            parse_query(Q2_TEXT),
            scalar_values={"SSN": 1, "date": 1, "policy": 1},
            qualify_sources=True)
        assert '"DB1"."visitInfo"' in sql and '"DB2"."cover"' in sql

    def test_in_set_renders_subselect(self):
        query = parse_query("select b.price from DB3:billing b "
                            "where b.trId in $V")
        sql, _ = render_sqlite(query, bindings={"$V": "tmp_v"})
        assert 'IN (SELECT "trId" FROM "tmp_v")' in sql

    def test_missing_binding_rejected(self):
        query = parse_query("select b.price from DB3:billing b "
                            "where b.trId in $V")
        with pytest.raises(PlanError):
            render_sqlite(query)

    def test_ordered_appends_order_by(self):
        query = parse_query("select b.price from DB3:billing b")
        sql, _ = render_sqlite(query, ordered=True)
        assert sql.endswith('ORDER BY "price"')

    def test_rendered_sql_executes(self):
        source = DataSource(SourceSchema("DB3",
                                         (relation("billing", "trId", "price"),)))
        source.load_rows("billing", [("t1", "10"), ("t2", "20")])
        query = parse_query("select b.price from DB3:billing b "
                            "where b.trId = $t")
        sql, params = render_sqlite(query, scalar_values={"t": "t2"})
        assert source.execute(sql, tuple(params)).rows == [("20",)]


class TestPlanner:
    def test_single_source_one_step(self):
        query = parse_query("select b.price from DB3:billing b")
        steps = plan_steps(query, "Q")
        assert len(steps) == 1 and steps[0].query == query

    def test_q2_decomposition_matches_paper(self):
        steps = plan_steps(parse_query(Q2_TEXT), "Q2")
        assert [s.source for s in steps] == ["DB1", "DB2", "DB4"]
        # step 1: visitInfo filtered by scalar params, projecting trId
        assert "visitInfo" in str(steps[0].query)
        # later steps read the previous step's output
        assert temp_inputs(steps[1].query) == {"Q2.s1"}
        assert temp_inputs(steps[2].query) == {"Q2.s2"}
        # final step restores the original output columns
        assert steps[2].query.output_names == ["trId", "tname"]

    def test_steps_are_single_source(self):
        for step in plan_steps(parse_query(Q2_TEXT), "Q2"):
            assert len(sources_of(step.query)) <= 1

    def test_same_source_tables_grouped(self):
        query = parse_query(
            "select p.pname from DB1:patient p, DB1:visitInfo i, DB2:cover c "
            "where p.SSN = i.SSN and i.trId = c.trId and p.SSN = $s")
        steps = plan_steps(query, "Q")
        assert len(steps) == 2
        assert steps[0].source == "DB1"

    def test_left_deep_order_starts_bound(self):
        order = left_deep_order(parse_query(Q2_TEXT))
        assert order[0].alias == "i"  # visitInfo carries both scalar params

    def test_executes_equivalently(self):
        # decomposed execution produces the same rows as federated execution
        from repro.relational import Federation
        db1 = DataSource(SourceSchema("DB1",
                                      (relation("visitInfo", "SSN", "trId", "date"),)))
        db2 = DataSource(SourceSchema("DB2", (relation("cover", "policy", "trId"),)))
        db4 = DataSource(SourceSchema("DB4", (relation("treatment", "trId", "tname"),)))
        db1.load_rows("visitInfo", [("s1", "t1", "d1"), ("s1", "t2", "d1"),
                                    ("s2", "t3", "d1")])
        db2.load_rows("cover", [("p1", "t1"), ("p1", "t2"), ("p2", "t3")])
        db4.load_rows("treatment", [("t1", "chk"), ("t2", "xray"), ("t3", "mri")])
        sources = {"DB1": db1, "DB2": db2, "DB4": db4}
        values = {"SSN": "s1", "date": "d1", "policy": "p1"}

        federated_sql, params = render_sqlite(
            parse_query(Q2_TEXT), scalar_values=values, qualify_sources=True,
            ordered=True)
        federated = Federation(list(sources.values())).execute(
            federated_sql, tuple(params))

        current = None
        for step in plan_steps(parse_query(Q2_TEXT), "Q2"):
            source = sources[step.source]
            bindings = {}
            if current is not None:
                bindings[previous_name] = source.create_temp_table(
                    current.columns, current.rows)
            sql, step_params = render_sqlite(step.query, scalar_values=values,
                                             bindings=bindings, ordered=True)
            current = source.execute(sql, tuple(step_params))
            previous_name = step.name
        assert sorted(current.rows) == sorted(federated.rows)

    @given(st.permutations(["i", "c", "t"]))
    def test_order_is_deterministic(self, _permutation):
        # planner output does not depend on incidental dict ordering
        first = [i.alias for i in left_deep_order(parse_query(Q2_TEXT))]
        second = [i.alias for i in left_deep_order(parse_query(Q2_TEXT))]
        assert first == second

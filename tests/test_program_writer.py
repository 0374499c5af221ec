"""The tagging program as the writer (docs/INTERNALS.md, "Tagging").

An unread document and ``evaluate_stream`` are written by the compiled
``TaggingProgram`` itself: its lines and fragment templates are fixed per
(occurrence, indent) and appended straight to the serializer's pieces, with
no ``start`` / ``end`` events.  ``tests/reference_writer.py`` shares no code
with it, so each case here compares the program's bytes with the reference
writer over the same document built, at indents ``None``, 0, 2 and 7.
"""

import pytest

from repro.fuzz import generate_scenario
from repro.fuzz.spec import build_scenario
from repro.relational import DataSource
from repro.runtime import Middleware
from repro.xmlmodel import element, serialize
from repro.xmlmodel.serialize import _SEPARATOR
from tests.reference_writer import reference_serialize
from tests.test_tagging_program import (
    CATALOG_SCHEMA,
    DISCOUNT,
    build_card_aig,
    build_catalog_aig,
)

INDENTS = [None, 0, 2, 7]

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

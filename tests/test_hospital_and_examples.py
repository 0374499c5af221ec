"""Tests for the hospital domain package and smoke tests for the examples."""

import pathlib
import subprocess
import sys

import pytest

from repro.dtd.analysis import recursive_types
from repro.hospital import (
    HOSPITAL_DTD_TEXT,
    build_hospital_aig,
    hospital_catalog,
    hospital_dtd,
    make_sources,
)

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


class TestHospitalPackage:
    def test_dtd_matches_paper(self):
        dtd = hospital_dtd()
        assert dtd.root == "report"
        assert recursive_types(dtd) == {"treatment", "procedure"}
        assert dtd.string_subelement_types("item") == ["trId", "price"]

    def test_catalog_has_four_sources(self):
        catalog = hospital_catalog()
        assert catalog.source_names == ["DB1", "DB2", "DB3", "DB4"]
        source_name, schema = catalog.resolve("DB4:procedure")
        assert schema.column_names == ["trId1", "trId2"]

    def test_make_sources_fresh_and_empty(self):
        first = make_sources()
        second = make_sources()
        assert first["DB1"] is not second["DB1"]
        assert first["DB1"].row_count("patient") == 0

    def test_aig_attributes_match_figure2(self):
        aig = build_hospital_aig()
        assert aig.inh_schema("report").scalars == ("date",)
        assert aig.inh_schema("patient").scalars == ("date", "SSN", "pname",
                                                     "policy")
        assert aig.inh_schema("treatments").scalars == ("date", "SSN",
                                                        "policy")
        assert aig.syn_schema("treatments").sets == {"trIdS": ("trId",)}
        assert aig.inh_schema("bill").sets == {"trIdS": ("trId",)}

    def test_constraints_match_example(self):
        aig = build_hospital_aig()
        key, ic = aig.constraints
        assert str(key) == "patient(item.trId -> item)"
        assert "treatment.trId ⊆ item.trId" in str(ic)

    def test_without_constraints(self):
        assert build_hospital_aig(with_constraints=False).constraints == []

    def test_q2_is_the_only_multi_source_query(self):
        from repro.compilation.decompose import multi_source_sites
        sites = multi_source_sites(build_hospital_aig())
        assert [s.name for s in sites] == ["treatments.treatment:star"]


@pytest.mark.slow
@pytest.mark.parametrize("script,args", [
    ("quickstart.py", []),
    ("hospital_report.py", ["tiny"]),
    ("constraint_enforcement.py", []),
    ("optimizer_walkthrough.py", ["2"]),
    ("recursive_bom.py", []),
    ("publications_catalog.py", []),
    ("static_analysis.py", []),
])
def test_example_runs(script, args):
    """Every example must execute cleanly from a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must print their results"

"""Schemas of the four hospital databases and the report DTD (Example 1.1).

    DB1: patient(SSN, pname, policy), visitInfo(SSN, trId, date)
    DB2: cover(policy, trId)
    DB3: billing(trId, price)
    DB4: treatment(trId, tname), procedure(trId1, trId2)
"""

from __future__ import annotations

from repro.dtd import DTD, parse_dtd
from repro.relational import Catalog, DataSource, SourceSchema
from repro.relational.schema import relation

HOSPITAL_DTD_TEXT = """
<!ELEMENT report (patient*)>
<!ELEMENT patient (SSN, pname, treatments, bill)>
<!ELEMENT treatments (treatment*)>
<!ELEMENT treatment (trId, tname, procedure)>
<!ELEMENT procedure (treatment*)>
<!ELEMENT bill (item*)>
<!ELEMENT item (trId, price)>
"""

SOURCE_SCHEMAS = [
    SourceSchema("DB1", (
        relation("patient", "SSN", "pname", "policy", key=("SSN",)),
        relation("visitInfo", "SSN", "trId", "date"),
    )),
    SourceSchema("DB2", (
        relation("cover", "policy", "trId", key=("policy", "trId")),
    )),
    SourceSchema("DB3", (
        relation("billing", "trId", "price", key=("trId",)),
    )),
    SourceSchema("DB4", (
        relation("treatment", "trId", "tname", key=("trId",)),
        relation("procedure", "trId1", "trId2", key=("trId1", "trId2")),
    )),
]


def hospital_dtd() -> DTD:
    """The report DTD of Example 1.1."""
    return parse_dtd(HOSPITAL_DTD_TEXT)


def hospital_catalog() -> Catalog:
    """The catalog ``R`` of the four source schemas."""
    return Catalog(SOURCE_SCHEMAS)


def make_sources() -> dict[str, DataSource]:
    """Fresh, empty in-memory instances of DB1..DB4."""
    return {schema.source: DataSource(schema) for schema in SOURCE_SCHEMAS}

"""Bulk loading of generated datasets into the four hospital sources."""

from __future__ import annotations

from repro.relational import DataSource, SourceSchema
from repro.relational.schema import relation
from repro.datagen.generator import HospitalDataset, generate
from repro.hospital.schema import make_sources


def load_dataset(dataset: HospitalDataset,
                 sources: dict[str, DataSource],
                 enforce_billing_key: bool = True) -> None:
    """Load a generated dataset into (fresh) hospital sources.

    With ``enforce_billing_key=False`` the DB3 source is replaced by a
    variant whose ``billing`` table has no primary key, so key-violation
    datasets can be loaded (the XML key is then caught by the AIG guards,
    not by the storage engine).
    """
    if not enforce_billing_key:
        previous = sources.get("DB3")
        if previous is not None:
            previous.close()
        sources["DB3"] = DataSource(
            SourceSchema("DB3", (relation("billing", "trId", "price"),)))
    sources["DB1"].load_rows("patient", dataset.patient)
    sources["DB1"].load_rows("visitInfo", dataset.visit_info)
    sources["DB2"].load_rows("cover", dataset.cover)
    sources["DB3"].load_rows("billing", dataset.billing)
    sources["DB4"].load_rows("treatment", dataset.treatment)
    sources["DB4"].load_rows("procedure", dataset.procedure)


def make_loaded_sources(scale: str = "small", seed: int = 42,
                        **generate_kwargs
                        ) -> tuple[dict[str, DataSource], HospitalDataset]:
    """Convenience: generate + load in one call."""
    dataset = generate(scale, seed, **generate_kwargs)
    sources = make_sources()
    enforce_key = not generate_kwargs.get("violate_key", False)
    load_dataset(dataset, sources, enforce_billing_key=enforce_key)
    return sources, dataset

"""Shared helpers for the benchmark suite.

Heavy artifacts (generated datasets, loaded sources, evaluation grids) are
computed once per session and cached; pytest-benchmark then times the
representative kernels without re-running whole grids per round.
"""

import pathlib

import pytest

from repro.datagen import generate, load_dataset
from repro.hospital import build_hospital_aig, make_sources

_DATASETS = {}
_SOURCES = {}

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: First line of every table that reports the paper's simulated clock.
MODELLED = ("modelled — simulated clock (`Network` + `QUERY_OVERHEAD`), "
            "not wall time")
MEASURED = "measured — wall time on the machine that ran it"


def report(name: str, text: str, wall: bool = False) -> str:
    """Print a result table and persist it under benchmarks/results/.

    ``text`` starts with a newline; the line put before it says what kind
    of number the table holds: the simulated clock of the paper's Section 6
    unless the script measures ``wall`` time."""
    text = f"\n{MEASURED if wall else MODELLED}{text}"
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text


def dataset_for(scale):
    if scale not in _DATASETS:
        _DATASETS[scale] = generate(scale)
    return _DATASETS[scale]


def sources_for(scale):
    if scale not in _SOURCES:
        sources = make_sources()
        load_dataset(dataset_for(scale), sources)
        _SOURCES[scale] = sources
    return _SOURCES[scale]


@pytest.fixture(scope="session")
def hospital_aig():
    return build_hospital_aig()

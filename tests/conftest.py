"""Shared fixtures: the hospital AIG and small hand-made datasets.

Also registers the named Hypothesis profiles (``dev``, ``ci``,
``nightly``) selected via the ``HYPOTHESIS_PROFILE`` environment
variable — see docs/TESTING.md.  ``ci`` disables deadlines (loaded
shared runners make per-example timing meaningless) and derandomizes so
a red CI run is reproducible locally; ``nightly`` burns more examples.
"""

import logging
import os

import pytest
from hypothesis import HealthCheck, settings

from repro.hospital import build_hospital_aig, make_sources

settings.register_profile("dev", settings.default)
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    deadline=None,
    max_examples=1000,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def hospital_aig():
    return build_hospital_aig()


@pytest.fixture
def hospital_aig_plain():
    """σ0 without the XML constraints."""
    return build_hospital_aig(with_constraints=False)


def load_tiny_hospital(sources, with_recursion=True):
    """A hand-checked micro dataset (two patients, one recursive chain)."""
    sources["DB1"].load_rows("patient", [("s1", "Ann", "p1"),
                                         ("s2", "Bob", "p2")])
    sources["DB1"].load_rows("visitInfo", [("s1", "t1", "d1"),
                                           ("s2", "t2", "d1"),
                                           ("s1", "t9", "d2")])
    sources["DB2"].load_rows("cover", [("p1", "t1"), ("p2", "t2")])
    sources["DB4"].load_rows("treatment", [("t1", "chk"), ("t2", "xray"),
                                           ("t3", "bio"), ("t4", "mri"),
                                           ("t9", "ct")])
    if with_recursion:
        sources["DB4"].load_rows("procedure", [("t1", "t3"), ("t3", "t4")])
    sources["DB3"].load_rows("billing", [("t1", "100"), ("t2", "50"),
                                         ("t3", "75"), ("t4", "5")])


def pending_groups(tree) -> list[tuple]:
    """The fragment groups ``(fragment, count, columns)`` that elements of
    ``tree`` still hold unbuilt, found without reading ``children``."""
    held, stack = [], [tree]
    while stack:
        kids = stack.pop()._kids
        if kids.__class__ is tuple:
            held.append(kids)
        elif kids.__class__ is list:
            stack.extend(kid for kid in kids if hasattr(kid, "_kids"))
    return held


def trace_statements(sources: dict) -> list:
    """Every statement the engine runs for ``sources``, as ``(source,
    sql)`` with parameters bound: SQLite's trace callback on each source's
    open connection and on every connection it opens later (its
    statistics reads).  Plan statements, shipments (one entry per
    inserted row), loads and catalog reads all show; transaction control
    (``BEGIN`` / ``COMMIT`` / ``ROLLBACK``) does not."""
    seen = []
    for name, source in sources.items():
        def trace(sql, _name=name):
            if sql not in ("BEGIN", "COMMIT", "ROLLBACK"):
                seen.append((_name, sql))

        def connect(_connect=source._connect, _trace=trace):
            connection = _connect()
            connection.set_trace_callback(_trace)
            return connection
        source.connection.set_trace_callback(trace)
        source._connect = connect
    return seen


@pytest.fixture
def tiny_sources():
    sources = make_sources()
    load_tiny_hospital(sources)
    return sources


@pytest.fixture
def repro_log_propagation():
    """Route ``repro.*`` records to the root logger for caplog.

    The CLI's ``configure_logging`` (exercised by other test modules)
    attaches its own handler and disables propagation; caplog listens on
    the root logger, so re-enable propagation for the test's duration.
    """
    logger = logging.getLogger("repro")
    previous = logger.propagate
    logger.propagate = True
    yield
    logger.propagate = previous

"""Concurrent reuse of one shared Middleware and ledger.

The evaluation service (docs/SERVICE.md) calls ``evaluate`` /
``evaluate_batch`` / ``invalidate_plans`` on shared ``Middleware``
instances from many request threads at once; these tests pin the
invariants that makes safe:

* byte-identical documents vs sequential runs, under every interleaving;
* plan preparation never duplicated (``prepare_count`` grows once per
  distinct depth, not once per caller);
* per-run gauges don't cross-talk when each caller passes its own
  tracer;
* ``RunLedger`` rotation and appends never tear or drop records across
  concurrent writers.
"""

import json
import sys
import threading

import pytest

from repro.datagen import make_loaded_sources
from repro.hospital import build_hospital_aig
from repro.obs import Tracer
from repro.obs.ledger import RunLedger
from repro.relational import Network
from repro.runtime import Middleware
from repro.xmlmodel.serialize import serialize


@pytest.fixture(scope="module")
def world():
    sources, dataset = make_loaded_sources("tiny", seed=13)
    return build_hospital_aig(), sources, dataset


def _run_threads(count, target):
    errors = []

    def wrapped(index):
        try:
            target(index)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    if errors:
        raise errors[0]


class TestConcurrentMiddleware:
    def test_concurrent_evaluate_byte_identical(self, world):
        aig, sources, dataset = world
        dates = sorted({row[2] for row in dataset.visit_info})[:4]
        sequential = Middleware(aig, sources, Network.mbps(1.0),
                                unfold_depth=8)
        expected = {date: serialize(
            sequential.evaluate({"date": date}).document)
            for date in dates}

        shared = Middleware(aig, sources, Network.mbps(1.0),
                            unfold_depth=8, incremental=True)
        results: dict = {}

        def worker(index):
            date = dates[index % len(dates)]
            report = shared.evaluate({"date": date}, tracer=Tracer())
            results.setdefault(index, serialize(report.document))
            results[index] = serialize(report.document)

        _run_threads(12, worker)
        for index, text in results.items():
            assert text == expected[dates[index % len(dates)]]

    def test_no_duplicated_prepares(self, world):
        aig, sources, dataset = world
        date = dataset.busiest_date()
        shared = Middleware(aig, sources, Network.mbps(1.0),
                            unfold_depth=8)
        barrier = threading.Barrier(8)

        def worker(index):
            barrier.wait()
            shared.evaluate({"date": date}, tracer=Tracer())

        _run_threads(8, worker)
        # One depth in play: exactly one
        # optimization pass no matter how many concurrent callers raced
        # the cold cache.
        assert shared.prepare_count == 1

    def test_concurrent_prepare_returns_same_entry(self, world):
        aig, sources, dataset = world
        shared = Middleware(aig, sources, Network.mbps(1.0))
        barrier = threading.Barrier(8)
        entries = []
        lock = threading.Lock()

        def worker(index):
            barrier.wait()
            entry = shared.prepare(4, tracer=Tracer())
            with lock:
                entries.append(entry)

        _run_threads(8, worker)
        assert shared.prepare_count == 1
        assert all(entry is entries[0] for entry in entries)

    def test_racing_prepares_compile_each_depth_once(self, world):
        # more threads than cores, switching every few microseconds: a
        # miss re-probes under the run lock, so no depth compiles twice
        # and no caller gets another caller's plan
        aig, sources, _ = world
        shared = Middleware(aig, sources, Network.mbps(1.0))
        barrier = threading.Barrier(12)
        seen = {depth: set() for depth in (3, 4, 5)}
        lock = threading.Lock()

        def worker(index):
            barrier.wait(timeout=60)
            for step in range(3):
                depth = 3 + (index + step) % 3
                prepared = shared.prepare(depth, tracer=Tracer())
                with lock:
                    seen[depth].add(prepared)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(12, worker)
        finally:
            sys.setswitchinterval(interval)
        assert shared.prepare_count == 3
        assert {depth: [plan.depth for plan in plans]
                for depth, plans in seen.items()} == \
            {3: [3], 4: [4], 5: [5]}

    def test_invalidate_during_concurrent_evaluations(self, world):
        aig, sources, dataset = world
        date = dataset.busiest_date()
        shared = Middleware(aig, sources, Network.mbps(1.0),
                            unfold_depth=8, incremental=True)
        expected = serialize(shared.evaluate({"date": date}).document)

        def worker(index):
            if index % 4 == 3:
                shared.invalidate_plans()
            else:
                report = shared.evaluate({"date": date}, tracer=Tracer())
                assert serialize(report.document) == expected

        _run_threads(12, worker)
        # the instance stays usable and correct afterwards
        assert serialize(
            shared.evaluate({"date": date}).document) == expected

    def test_concurrent_batch_and_evaluate(self, world):
        aig, sources, dataset = world
        dates = sorted({row[2] for row in dataset.visit_info})[:3]
        sequential = Middleware(aig, sources, Network.mbps(1.0),
                                unfold_depth=8)
        expected = {date: serialize(
            sequential.evaluate({"date": date}).document)
            for date in dates}
        shared = Middleware(aig, sources, Network.mbps(1.0),
                            unfold_depth=8)

        def worker(index):
            if index % 2:
                reports = shared.evaluate_batch(
                    [{"date": date} for date in dates], tracer=Tracer())
                for date, report in zip(dates, reports):
                    assert serialize(report.document) == expected[date]
            else:
                date = dates[index % len(dates)]
                report = shared.evaluate({"date": date}, tracer=Tracer())
                assert serialize(report.document) == expected[date]

        _run_threads(6, worker)

    def test_per_request_tracer_gauges_do_not_cross_talk(self, world):
        aig, sources, dataset = world
        date = dataset.busiest_date()
        shared = Middleware(aig, sources, Network.mbps(1.0),
                            unfold_depth=8)
        shared.evaluate({"date": date})  # warm the plan cache
        gauges = {}
        lock = threading.Lock()

        def worker(index):
            tracer = Tracer()
            report = shared.evaluate({"date": date}, tracer=tracer)
            # the document gauge is recorded when the document is made
            serialize(report.document)
            with lock:
                gauges[index] = tracer.metrics.snapshot()["gauges"]

        _run_threads(8, worker)
        for snapshot in gauges.values():
            # every request saw its own run's document gauge, not a
            # neighbour's mid-run clobber
            assert snapshot["document_nodes"] == \
                gauges[0]["document_nodes"]
            assert snapshot["unfold_depth"] == gauges[0]["unfold_depth"]

    def test_prepared_initialized_in_init(self, world):
        aig, sources, dataset = world
        middleware = Middleware(aig, sources, Network.mbps(1.0))
        # regression: _prepared used to be created lazily via hasattr
        assert middleware._prepared == {}
        assert middleware.prepare_count == 0


class TestLedgerConcurrency:
    def test_concurrent_appends_never_tear(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"),
                           max_bytes=4096, backups=3)

        def worker(index):
            for i in range(25):
                ledger.append({"kind": "evaluate", "writer": index,
                               "sequence": i, "pad": "x" * 64})

        _run_threads(8, worker)
        records = ledger.records()
        # every surviving line parses (records() would skip torn ones and
        # log; assert none were torn in the still-present files)
        for path in ledger.files():
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        json.loads(line)
        # rotation keeps at most backups+1 files and drops only whole,
        # oldest files — the newest records always survive
        assert len(ledger.files()) <= 4
        assert all(r["schema"] == 1 for r in records)

    def test_torn_append_healed_on_next_write(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(str(path))
        ledger.append({"kind": "evaluate", "ok": 1})
        # simulate a crash mid-append: trailing garbage, no newline
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "evaluate", "torn')
        ledger.append({"kind": "evaluate", "ok": 2})
        records = ledger.records()
        assert [r["ok"] for r in records if "ok" in r] == [1, 2]

    def test_concurrent_rotation_drops_no_new_records(self, tmp_path):
        # tiny max_bytes forces a rotation roughly every other append;
        # the sum of records across current + backups must cover every
        # append that wasn't in a dropped-oldest file.
        ledger = RunLedger(str(tmp_path / "runs.jsonl"),
                           max_bytes=512, backups=8)
        total = 60

        def worker(index):
            for i in range(total // 4):
                ledger.append({"writer": index, "sequence": i})

        _run_threads(4, worker)
        seen = {(r["writer"], r["sequence"]) for r in ledger.records()
                if "writer" in r}
        # newest records are never dropped: the last append of every
        # writer must be present
        for writer in range(4):
            assert (writer, total // 4 - 1) in seen

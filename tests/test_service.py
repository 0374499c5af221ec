"""The multi-tenant evaluation service (docs/SERVICE.md).

Covers the orchestration core (registry keying, admission quotas,
coalescing) and the full HTTP surface over a real threaded server on an
ephemeral port: tenancy CRUD, evaluation byte-identity vs an in-process
``Middleware.evaluate``, streaming, delta ingestion, 429 shedding, and
the metrics endpoints.
"""

import contextlib
import json
import socket
import threading
import time

import pytest

from repro.datagen import make_loaded_sources
from repro.errors import EvaluationAborted, EvaluationError
from repro.hospital import build_hospital_aig, make_sources
from repro.obs import RunLedger
from repro.relational import Network
from repro.runtime import Middleware
from repro.runtime.incremental import aig_fingerprint
from repro.service import (
    AdmissionController,
    AdmissionRejected,
    EvaluationService,
    RequestCoalescer,
    TenantRegistry,
)
from repro.service.registry import version_vector
from repro.service.server import (MAX_INDENT, STREAM_FRAME_BYTES,
                                  start_background)
from repro.xmlmodel.serialize import serialize
from tests.conftest import load_tiny_hospital, trace_statements


# ----------------------------------------------------------------------
# unit layers
# ----------------------------------------------------------------------
class TestAdmission:
    def test_quota_and_fast_rejection(self):
        controller = AdmissionController(max_inflight=2, max_queued=1)
        controller.admit("t")
        controller.admit("t")
        release = threading.Event()
        queued_in = threading.Event()

        def queued():
            queued_in.set()
            with controller.slot("t"):
                release.wait()

        waiter = threading.Thread(target=queued, daemon=True)
        waiter.start()
        queued_in.wait()
        deadline = time.time() + 2
        while (controller.snapshot().get("t", {}).get("queued", 0) < 1
               and time.time() < deadline):
            time.sleep(0.005)
        # inflight full, queue full -> immediate 429-style rejection
        with pytest.raises(AdmissionRejected):
            controller.admit("t")
        controller.release("t")   # waiter takes the freed slot
        release.set()
        controller.release("t")
        waiter.join(timeout=5)
        assert not waiter.is_alive()

    def test_tenants_isolated(self):
        controller = AdmissionController(max_inflight=1, max_queued=0)
        controller.admit("a")
        controller.admit("b")  # b's quota is its own
        with pytest.raises(AdmissionRejected):
            controller.admit("a")
        controller.release("a")
        controller.release("b")

    def test_release_without_admit_raises(self):
        controller = AdmissionController()
        with pytest.raises(RuntimeError):
            controller.release("ghost")


class TestCoalescer:
    def test_concurrent_identical_keys_share_one_computation(self):
        coalescer = RequestCoalescer()
        calls = []
        barrier = threading.Barrier(6)
        entered = threading.Event()
        hold = threading.Event()

        def compute():
            calls.append(1)
            entered.set()
            hold.wait()
            return "result"

        outcomes = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            result, coalesced = coalescer.run("key", compute)
            with lock:
                outcomes.append((result, coalesced))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        entered.wait()
        time.sleep(0.05)  # let followers park on the flight
        hold.set()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert all(result == "result" for result, _ in outcomes)
        assert sum(coalesced for _, coalesced in outcomes) == 5

    def test_leader_error_propagates_to_followers(self):
        coalescer = RequestCoalescer()
        entered = threading.Event()
        hold = threading.Event()

        def compute():
            entered.set()
            hold.wait()
            raise ValueError("boom")

        failures = []

        def leader():
            with pytest.raises(ValueError):
                coalescer.run("key", compute)

        def follower():
            try:
                coalescer.run("key", compute)
            except ValueError:
                failures.append(1)

        lead = threading.Thread(target=leader)
        lead.start()
        entered.wait()
        follow = threading.Thread(target=follower)
        follow.start()
        time.sleep(0.05)
        hold.set()
        lead.join()
        follow.join()
        assert failures == [1]

    def test_sequential_keys_recompute(self):
        coalescer = RequestCoalescer()
        calls = []
        coalescer.run("key", lambda: calls.append(1))
        coalescer.run("key", lambda: calls.append(1))
        assert len(calls) == 2


class TestRegistry:
    @pytest.fixture(scope="class")
    def world(self):
        sources, dataset = make_loaded_sources("tiny", seed=5)
        return build_hospital_aig(), sources, dataset

    def test_warm_reuse_on_identical_registration(self, world):
        aig, sources, _ = world
        registry = TenantRegistry()
        first = registry.register("t", aig, sources, {"unfold_depth": 4})
        first.middleware.prepare(4)
        again = registry.register("t", aig, sources, {"unfold_depth": 4})
        assert again is first
        assert again.middleware.prepare_count == 1  # plans stayed warm

    def test_identical_registrations_build_one_middleware(self, world,
                                                           monkeypatch):
        from repro.service import registry as registry_module
        built = []

        class Counted(Middleware):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(registry_module, "Middleware", Counted)
        aig, sources, _ = world
        registry = TenantRegistry()
        first = registry.register("t", aig, sources, {"unfold_depth": 4})
        assert registry.register("t", aig, sources,
                                 {"unfold_depth": 4}) is first
        assert len(built) == 1

    def test_other_sources_swap_the_tenant(self, world):
        # same AIG, same config, so the same plan key: only the sources
        # mapping tells the two registrations apart
        aig, first_sources, _ = world
        other_sources, _ = make_loaded_sources("tiny", seed=6)
        registry = TenantRegistry()
        first = registry.register("t", aig, first_sources, {})
        second = registry.register("t", aig, other_sources, {})
        assert second is not first
        assert second.plan_key == first.plan_key
        assert second.sources is other_sources
        assert registry.get("t") is second

    def test_swapped_tenant_serves_no_cached_response(self, world):
        aig, first_sources, dataset = world
        other_sources, _ = make_loaded_sources("tiny", seed=6)
        root = {"date": dataset.busiest_date()}
        service = EvaluationService()
        service.register_tenant("t", aig, first_sources, {})
        first_body, _ = service.evaluate("t", root)
        assert service.evaluate("t", root)[1]["cached"]
        service.register_tenant("t", aig, other_sources, {})
        body, info = service.evaluate("t", root)
        assert not info["cached"]
        expected = Middleware(aig, other_sources).evaluate(root)
        assert body == serialize(expected.document).encode("utf-8")
        assert body != first_body

    def test_describe_reports_the_plan_that_last_ran(self, world):
        aig, sources, dataset = world
        state = TenantRegistry().register("t", aig, sources,
                                          {"unfold_depth": 4})
        assert state.describe()["last_plan"] is None
        report = state.middleware.evaluate(
            {"date": dataset.busiest_date()})
        assert state.describe()["last_plan"] == {
            "unfold_depth": report.unfold_depth,
            "nodes": report.node_count,
            "predicted_cost": round(report.estimated_cost, 6)}

    def test_config_change_swaps_instance(self, world):
        aig, sources, _ = world
        registry = TenantRegistry()
        first = registry.register("t", aig, sources, {"unfold_depth": 4})
        changed = registry.register("t", aig, sources, {"merging": False})
        assert changed is not first
        assert changed.plan_key != first.plan_key

    def test_plan_key_built_from_aig_fingerprint(self, world):
        aig, sources, _ = world
        registry = TenantRegistry()
        state = registry.register("t", aig, sources)
        assert state.fingerprint == aig_fingerprint(aig)
        assert state.plan_key.startswith(state.fingerprint[:16])

    def test_unknown_config_key_rejected(self, world):
        from repro.errors import EvaluationError
        aig, sources, _ = world
        registry = TenantRegistry()
        # a typo, and the knobs that no longer exist
        for config in ({"wrokers": 2}, {"columnar": True},
                       {"pushdown": True}, {"query_overhead": 0.1},
                       {"scheduling": "static"}, {"workers": 4}):
            with pytest.raises(EvaluationError,
                               match=r"unknown middleware config key\(s\)"):
                registry.register("t", aig, sources, config)

    def test_shards_key_rejected(self, world):
        # the stream every evaluation runs on has never sharded
        aig, sources, _ = world
        with pytest.raises(EvaluationError,
                           match=r"unknown middleware config key\(s\): "
                                 r"shards"):
            TenantRegistry().register("t", aig, sources, {"shards": 2})

    def test_version_vector_moves_on_load(self, world):
        aig, sources, _ = world
        before = version_vector(sources)
        source = sources["DB1"]
        relation = source.schema.relations[0].name
        width = len(source.schema.relation_schema(relation).columns)
        source.load_rows(relation, [tuple(
            f"vv-{i}" for i in range(width))])
        assert version_vector(sources) != before


class TestEviction:
    @pytest.fixture(scope="class")
    def world(self):
        sources, dataset = make_loaded_sources("tiny", seed=5)
        return build_hospital_aig(), sources, dataset

    def test_lru_overflow_evicts_least_recently_used(self, world):
        aig, sources, _ = world
        evicted = []
        registry = TenantRegistry(max_tenants=2, on_evict=evicted.append)
        registry.register("a", aig, sources)
        registry.register("b", aig, sources)
        registry.register("c", aig, sources)
        assert evicted == ["a"]
        assert registry.names() == ["b", "c"]
        assert registry.evictions == 1

    def test_get_refreshes_lru_order(self, world):
        aig, sources, _ = world
        evicted = []
        registry = TenantRegistry(max_tenants=2, on_evict=evicted.append)
        registry.register("a", aig, sources)
        registry.register("b", aig, sources)
        registry.get("a")   # a is now the most recently used
        registry.register("c", aig, sources)
        assert evicted == ["b"]
        assert registry.names() == ["a", "c"]

    def test_idle_ttl_sweeps_stale_tenants(self, world):
        aig, sources, _ = world
        evicted = []
        registry = TenantRegistry(idle_ttl=0.05, on_evict=evicted.append)
        registry.register("a", aig, sources)
        registry.register("b", aig, sources)
        time.sleep(0.08)
        # The accessed tenant is protected and refreshed; its stale
        # sibling is swept by the same call.
        state = registry.get("b")
        assert state.name == "b"
        assert evicted == ["a"]
        with pytest.raises(KeyError):
            registry.get("a")

    def test_protected_tenant_never_evicted_by_overflow(self, world):
        aig, sources, _ = world
        registry = TenantRegistry(max_tenants=1)
        registry.register("a", aig, sources)
        state = registry.register("b", aig, sources)
        assert registry.names() == ["b"]
        assert registry.get("b") is state

    def test_invalid_bounds_rejected(self, world):
        from repro.errors import EvaluationError
        with pytest.raises(EvaluationError):
            TenantRegistry(max_tenants=0)
        with pytest.raises(EvaluationError):
            TenantRegistry(idle_ttl=-1.0)

    def test_service_counts_evictions_and_drops_cached_responses(
            self, world):
        aig, _, _ = world
        service = EvaluationService(max_tenants=1)
        sources_a, dataset = make_loaded_sources("tiny", seed=5)
        service.register_tenant("a", aig, sources_a)
        date = dataset.busiest_date()
        service.evaluate("a", {"date": date})
        assert any(key[0] == "a" for key in service._response_cache)
        sources_b, _ = make_loaded_sources("tiny", seed=6)
        service.register_tenant("b", aig, sources_b)
        assert "a" not in service.registry
        assert not any(key[0] == "a" for key in service._response_cache)
        counters = service.metrics.snapshot()["counters"]
        assert counters.get("service_tenant_evictions") == 1

    def test_a_load_drops_the_tenants_cached_responses(self, world):
        aig, _, _ = world
        service = EvaluationService()
        sources, dataset = make_loaded_sources("tiny", seed=5)
        service.register_tenant("a", aig, sources)
        dates = sorted({row[2] for row in dataset.visit_info})[:2]
        for date in dates:
            service.evaluate("a", {"date": date})
        assert service.health()["response_cache_entries"] == 2
        # a trId no treatment references: the documents do not change
        service.load_rows("a", "DB3", "billing", [["ZZ1", "100"]])
        assert service.health()["response_cache_entries"] == 0
        for date in dates:
            _, info = service.evaluate("a", {"date": date})
            assert (info["phase"], info["cached"]) == ("delta", False)


# ----------------------------------------------------------------------
# full service over HTTP
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    """A running service on an ephemeral port with a hospital tenant."""
    service = EvaluationService(max_inflight=4, max_queued=32)
    sources, dataset = make_loaded_sources("tiny", seed=5)
    service.register_tenant("hospital", build_hospital_aig(), sources,
                            {"unfold_depth": 8})
    server, thread = start_background(service)
    yield service, server, dataset
    server.shutdown()
    server.server_close()


def _request(server, method, path, payload=None, headers=None):
    from http.client import HTTPConnection
    conn = HTTPConnection("127.0.0.1", server.server_address[1], timeout=60)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body, headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        conn.close()


def _covered_visit(dataset, date) -> list:
    """A ``visitInfo`` row on ``date``: an existing patient visits a
    treatment their policy covers.  No key/inclusion constraint moves, but
    the document gains a treatment subtree (coverage is what makes the
    visit visible, Example 1.1)."""
    covered = set(map(tuple, dataset.cover))
    existing = {(row[0], row[1]) for row in dataset.visit_info
                if row[2] == date}
    ssn, trid = next(
        (patient_ssn, cover_trid)
        for patient_ssn, _, policy in dataset.patient
        for cover_policy, cover_trid in covered
        if cover_policy == policy
        and (patient_ssn, cover_trid) not in existing)
    return [ssn, trid, date]


def _count_writes(monkeypatch) -> list:
    """Wrap every handler's ``wfile``; returns the list that receives the
    length of each write."""
    from repro.service.server import ServiceRequestHandler
    writes = []

    class CountingWriter:
        def __init__(self, inner):
            self.inner = inner

        def write(self, data):
            writes.append(len(data))
            return self.inner.write(data)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    real_setup = ServiceRequestHandler.setup

    def counting_setup(handler):
        real_setup(handler)
        handler.wfile = CountingWriter(handler.wfile)

    monkeypatch.setattr(ServiceRequestHandler, "setup", counting_setup)
    return writes


@contextlib.contextmanager
def _saturated(controller: AdmissionController, tenant: str):
    """The tenant's quota fully in flight and its queue full of parked
    waiters: the next request that needs a slot sheds with 429."""
    for _ in range(controller.max_inflight):
        controller.admit(tenant)
    hold = threading.Event()
    parked = []

    def parker():
        with controller.slot(tenant):
            hold.wait()

    for _ in range(controller.max_queued):
        thread = threading.Thread(target=parker, daemon=True)
        thread.start()
        parked.append(thread)
    deadline = time.time() + 5
    while (controller.snapshot()[tenant]["queued"]
           < controller.max_queued and time.time() < deadline):
        time.sleep(0.01)
    try:
        yield
    finally:
        hold.set()
        for _ in range(controller.max_inflight):
            controller.release(tenant)
        for thread in parked:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in parked)


def _raw_post(server, payload) -> bytes:
    """``POST /evaluate`` on a socket of its own, read until the server
    closes it: everything the server wrote, status lines included."""
    body = json.dumps(payload).encode("utf-8")
    address = ("127.0.0.1", server.server_address[1])
    with socket.create_connection(address, timeout=60) as conn:
        conn.sendall(b"POST /evaluate HTTP/1.1\r\nHost: test\r\n"
                     b"Connection: close\r\n"
                     b"Content-Length: %d\r\n\r\n%b" % (len(body), body))
        return b"".join(iter(lambda: conn.recv(65536), b""))


def _one_response(reply: bytes) -> tuple[int, dict, bytes]:
    """``(status, lower-cased headers, body)`` of a reply that holds
    exactly one response."""
    assert reply.count(b"HTTP/1.1 ") == 1, reply[:300]
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict((name.strip().lower(), value.strip()) for name, value
                   in (line.split(":", 1) for line in lines[1:]))
    return int(lines[0].split()[1]), headers, body


def _dechunk(body: bytes) -> tuple[bytes, bool]:
    """A chunked body's payload, and whether it ended in the terminator."""
    payload = bytearray()
    while body:
        size, _, body = body.partition(b"\r\n")
        length = int(size, 16)
        if length == 0:
            assert body == b"\r\n", "bytes after the terminator"
            return bytes(payload), True
        payload += body[:length]
        assert body[length:length + 2] == b"\r\n", "malformed frame"
        body = body[length + 2:]
    return bytes(payload), False


class TestHTTPSurface:
    def test_health(self, served):
        _, server, _ = served
        status, _, body = _request(server, "GET", "/health")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert "hospital" in payload["tenants"]
        assert "breakers" not in payload

    def test_one_write_per_plain_response(self, served, monkeypatch):
        # Headers and body as two sends stall a keep-alive connection
        # ~40 ms on Nagle + delayed ACK; every non-chunked response —
        # JSON, XML, error — must leave as a single write.
        _, server, dataset = served
        writes = _count_writes(monkeypatch)
        for method, path, payload in (
                ("GET", "/health", None),
                ("GET", "/no-such-route", None),
                ("POST", "/evaluate",
                 {"tenant": "hospital",
                  "root": {"date": dataset.busiest_date()}})):
            writes.clear()
            _, headers, body = _request(server, method, path, payload)
            assert len(writes) == 1
            assert int(headers["Content-Length"]) == len(body)
            assert writes[0] > len(body)

    def test_evaluate_bytes_identical_to_in_process(self, served):
        _, server, dataset = served
        date = dataset.busiest_date()
        status, headers, body = _request(
            server, "POST", "/evaluate",
            {"tenant": "hospital", "root": {"date": date}})
        assert status == 200
        assert headers["X-Repro-Phase"] in ("cold", "warm", "delta")
        fresh_sources, _ = make_loaded_sources("tiny", seed=5)
        reference = Middleware(build_hospital_aig(), fresh_sources,
                               Network(), unfold_depth=8)
        expected = serialize(
            reference.evaluate({"date": date}).document).encode("utf-8")
        assert body == expected

    def test_second_request_is_warm(self, served):
        _, server, dataset = served
        date = dataset.busiest_date()
        _request(server, "POST", "/evaluate",
                 {"tenant": "hospital", "root": {"date": date}})
        status, headers, _ = _request(
            server, "POST", "/evaluate",
            {"tenant": "hospital", "root": {"date": date}})
        assert status == 200
        assert headers["X-Repro-Phase"] == "warm"

    def test_response_cache_hit_and_version_miss(self, served):
        service, server, dataset = served
        date = dataset.busiest_date()
        _, first_headers, first = _request(
            server, "POST", "/evaluate",
            {"tenant": "hospital", "root": {"date": date}})
        status, headers, body = _request(
            server, "POST", "/evaluate",
            {"tenant": "hospital", "root": {"date": date}})
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"
        assert body == first
        # any load on any base table moves the version vector: the same
        # request can no longer be served from the cache
        covered = set(map(tuple, dataset.cover))
        policy, trid = next(
            (row_policy, treatment_trid)
            for _, _, row_policy in dataset.patient
            for treatment_trid, _ in dataset.treatment
            if (row_policy, treatment_trid) not in covered)
        status, _, _ = _request(
            server, "POST", "/tenants/hospital/load",
            {"source": "DB2", "relation": "cover",
             "rows": [[policy, trid]]})
        assert status == 200
        status, headers, _ = _request(
            server, "POST", "/evaluate",
            {"tenant": "hospital", "root": {"date": date}})
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"

    def test_streaming_matches_materialized(self, served):
        _, server, dataset = served
        date = dataset.busiest_date()
        _, _, materialized = _request(
            server, "POST", "/evaluate",
            {"tenant": "hospital", "root": {"date": date}})
        status, headers, streamed = _request(
            server, "POST", "/evaluate",
            {"tenant": "hospital", "root": {"date": date},
             "stream": True})
        assert status == 200
        assert headers.get("Transfer-Encoding") == "chunked"
        assert streamed == materialized

    @pytest.mark.parametrize("indent", [None, 2])
    def test_streaming_leaves_in_frames(self, served, monkeypatch, indent):
        # ``wfile`` is unbuffered: one send per serializer chunk would be
        # thousands of syscalls per document.  Headers, one frame per
        # STREAM_FRAME_BYTES (plus the remainder), and the terminator.
        _, server, dataset = served
        request = {"tenant": "hospital", "indent": indent,
                   "root": {"date": dataset.busiest_date()}}
        _, _, materialized = _request(server, "POST", "/evaluate", request)
        writes = _count_writes(monkeypatch)
        status, _, streamed = _request(server, "POST", "/evaluate",
                                       {**request, "stream": True})
        assert status == 200
        assert streamed == materialized
        assert len(writes) <= len(streamed) / STREAM_FRAME_BYTES + 3

    def test_include_report_envelope(self, served):
        _, server, dataset = served
        date = dataset.busiest_date()
        status, _, body = _request(
            server, "POST", "/evaluate",
            {"tenant": "hospital", "root": {"date": date},
             "include_report": True})
        assert status == 200
        payload = json.loads(body)
        assert payload["report"]["tenant"] == "hospital"
        assert payload["document"].startswith("<report>")

    def test_delta_ingestion_changes_document(self, served):
        service, server, dataset = served
        date = dataset.busiest_date()
        _, _, before = _request(
            server, "POST", "/evaluate",
            {"tenant": "hospital", "root": {"date": date}})
        status, _, body = _request(
            server, "POST", "/tenants/hospital/load",
            {"source": "DB1", "relation": "visitInfo",
             "rows": [_covered_visit(dataset, date)]})
        assert status == 200
        assert json.loads(body)["rows"] == 1
        status, headers, after = _request(
            server, "POST", "/evaluate",
            {"tenant": "hospital", "root": {"date": date}})
        assert status == 200
        assert headers["X-Repro-Phase"] in ("delta", "cold")
        assert after != before

    def test_unknown_tenant_404(self, served):
        _, server, _ = served
        status, _, _ = _request(server, "POST", "/evaluate",
                                {"tenant": "ghost", "root": {}})
        assert status == 404

    def test_register_and_delete_tenant_over_http(self, served):
        _, server, _ = served
        status, _, body = _request(
            server, "POST", "/tenants",
            {"name": "hospital2",
             "scenario": {"kind": "hospital", "scale": "tiny"},
             "config": {"unfold_depth": 8}})
        assert status == 201
        assert json.loads(body)["name"] == "hospital2"
        status, _, body = _request(server, "GET", "/tenants")
        names = [t["name"] for t in json.loads(body)["tenants"]]
        assert "hospital2" in names
        status, _, _ = _request(server, "DELETE", "/tenants/hospital2")
        assert status == 200
        status, _, _ = _request(server, "DELETE", "/tenants/hospital2")
        assert status == 404

    def test_removed_config_key_is_refused_naming_it(self, served):
        # the registry's unknown-key refusal, as every ReproError: a 422
        _, server, _ = served
        status, _, body = _request(
            server, "POST", "/tenants",
            {"name": "lanes",
             "scenario": {"kind": "hospital", "scale": "tiny"},
             "config": {"workers": 4}})
        assert status == 422
        assert "unknown middleware config key" in body.decode()
        assert "workers" in body.decode()
        status, _, body = _request(server, "GET", "/tenants")
        assert "lanes" not in [t["name"]
                               for t in json.loads(body)["tenants"]]

    @pytest.mark.parametrize("key, value", [
        ("retry_policy", 2),
        ("breaker_policy", {"failure_threshold": 1, "cooldown": 60})],
        ids=["retry_policy", "breaker_policy"])
    def test_retry_and_breaker_keys_are_unknown(self, served, key, value):
        # a failed statement is refused at once: nothing to configure
        _, server, _ = served
        status, _, body = _request(
            server, "POST", "/tenants",
            {"name": "frail",
             "scenario": {"kind": "hospital", "scale": "tiny"},
             "config": {key: value}})
        assert status == 422
        assert f"unknown middleware config key(s): {key}" in body.decode()

    def test_file_naming_config_keys_are_operator_only(self, served,
                                                       tmp_path):
        # a client must not make the server create or append to a file
        _, server, _ = served
        for key in ("ledger", "cost_feedback"):
            path = tmp_path / f"{key}.jsonl"
            status, _, body = _request(
                server, "POST", "/tenants",
                {"name": "writer",
                 "scenario": {"kind": "hospital", "scale": "tiny"},
                 "config": {key: str(path)}})
            assert status == 422
            assert key in body.decode()
            assert not path.exists()
        status, _, body = _request(server, "GET", "/tenants")
        assert "writer" not in [t["name"]
                                for t in json.loads(body)["tenants"]]

    @pytest.mark.parametrize("knob, value", [
        ("unfold_depth", "abc"), ("unfold_depth", 0), ("deadline", "soon"),
        ("merging", "no"), ("incremental", "yes"),
        ("max_unfold_depth", -1)])
    def test_bad_knob_value_is_refused_at_registration(self, served, knob,
                                                       value):
        _, server, _ = served
        status, _, body = _request(
            server, "POST", "/tenants",
            {"name": "knobs",
             "scenario": {"kind": "hospital", "scale": "tiny"},
             "config": {knob: value}})
        assert status == 422
        assert knob in body.decode()
        with pytest.raises(EvaluationError, match=knob):
            Middleware(build_hospital_aig(), make_sources(), **{knob: value})

    def test_violation_mode_is_an_unknown_key(self, served):
        # a violated constraint is a refusal for every tenant: there is no
        # mode to choose, in the service or in process
        _, server, _ = served
        status, _, body = _request(
            server, "POST", "/tenants",
            {"name": "reporting",
             "scenario": {"kind": "hospital", "scale": "tiny"},
             "config": {"violation_mode": "report"}})
        assert status == 422
        assert "violation_mode" in body.decode()
        with pytest.raises(TypeError, match="violation_mode"):
            Middleware(build_hospital_aig(), make_sources(),
                       violation_mode="report")

    def test_invalidate_endpoint(self, served):
        service, server, dataset = served
        date = dataset.busiest_date()
        _request(server, "POST", "/evaluate",
                 {"tenant": "hospital", "root": {"date": date}})
        status, _, _ = _request(server, "POST",
                                "/tenants/hospital/invalidate")
        assert status == 200
        assert service.registry.get("hospital") \
            .middleware._prepared == {}

    def test_metrics_endpoints(self, served):
        _, server, dataset = served
        _request(server, "POST", "/evaluate",
                 {"tenant": "hospital",
                  "root": {"date": dataset.busiest_date()}})
        status, headers, body = _request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "repro_service_requests_total" in text
        assert "repro_service_latency_seconds" in text
        status, _, body = _request(server, "GET", "/metrics.json")
        assert status == 200
        assert json.loads(body)["counters"]["service_requests"] >= 1

    def test_concurrent_identical_requests_coalesce(self, served):
        service, server, dataset = served
        date = dataset.busiest_date()
        # distinct root attributes -> a fresh coalescing key this test
        # owns; invalidate so the first evaluation is slow enough to
        # collect followers
        service.invalidate("hospital")
        before = service.metrics.snapshot()["counters"] \
            .get("service_coalesced_requests", 0)
        barrier = threading.Barrier(8)
        results = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            status, headers, body = _request(
                server, "POST", "/evaluate",
                {"tenant": "hospital", "root": {"date": date}})
            with lock:
                results.append((status, headers["X-Repro-Coalesced"],
                                body))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(status == 200 for status, _, _ in results)
        assert len({body for _, _, body in results}) == 1
        after = service.metrics.snapshot()["counters"] \
            .get("service_coalesced_requests", 0)
        coalesced_flags = sum(int(flag) for _, flag, _ in results)
        assert after - before == coalesced_flags

    def test_admission_shed_returns_429(self, served):
        service, server, dataset = served
        with _saturated(service.admission, "hospital"):
            # a never-evaluated root: the request cannot be served from
            # the response cache, so it must take the leader path and
            # shed at admission
            status, headers, body = _request(
                server, "POST", "/evaluate",
                {"tenant": "hospital", "root": {"date": "2099-01-01"}})
            assert status == 429
            assert headers.get("Retry-After") == "1"
            assert "over capacity" in json.loads(body)["error"]
            rejections = service.metrics.snapshot()["counters"] \
                .get("service_rejections", 0)
            assert rejections >= 1

    def test_malformed_body_400(self, served):
        from http.client import HTTPConnection
        _, server, _ = served
        conn = HTTPConnection("127.0.0.1", server.server_address[1],
                              timeout=30)
        try:
            conn.request("POST", "/evaluate", "{not json",
                         {"Content-Length": "9"})
            response = conn.getresponse()
            assert response.status == 400
            response.read()
        finally:
            conn.close()


class TestDeltaLoadDuringARun:
    """Sources are single-flight: a delta load waits for the tenant's
    running evaluation instead of writing between its statements."""

    def test_load_lands_after_the_running_evaluation(self):
        from repro.resilience import FaultInjector

        def in_process(delta=None) -> bytes:
            sources, _ = make_loaded_sources("tiny", seed=5)
            try:
                if delta is not None:
                    sources["DB1"].load_rows("visitInfo", [tuple(delta)])
                document = Middleware(build_hospital_aig(), sources,
                                      unfold_depth=8).evaluate(root).document
                return serialize(document).encode("utf-8")
            finally:
                for source in sources.values():
                    source.close()

        service = EvaluationService()
        sources, dataset = make_loaded_sources("tiny", seed=5)
        root = {"date": dataset.busiest_date()}
        delta = _covered_visit(dataset, root["date"])
        service.register_tenant("hospital", build_hospital_aig(), sources,
                                {"unfold_depth": 8})
        statements = trace_statements(sources)
        # the run parks on DB1's first statement, before reading visitInfo
        injector = FaultInjector.from_spec("DB1:slow@1:0.5").install(sources)
        parked = threading.Event()
        on_statement = injector.on_statement
        injector.on_statement = lambda name: (
            parked.set() if name == "DB1" else None, on_statement(name))[1]
        replies = []
        with _serving(service) as server:
            running = threading.Thread(target=lambda: replies.append(
                _request(server, "POST", "/evaluate",
                         {"tenant": "hospital", "root": root})))
            running.start()
            assert parked.wait(30)
            status, _, _ = _request(
                server, "POST", "/tenants/hospital/load",
                {"source": "DB1", "relation": "visitInfo", "rows": [delta]})
            running.join(60)
            assert not running.is_alive()
            assert status == 200
            # the run's statements and the load's, nothing else yet
            before_next = list(statements)
            after = _request(server, "POST", "/evaluate",
                             {"tenant": "hospital", "root": root})
        (run_status, _, body), = replies
        assert run_status == 200
        # the load is one statement, after the run's last
        assert [sql for _, sql in before_next
                if "visitInfo" in sql and sql.startswith("INSERT")] == [
            before_next[-1][1]]
        assert body == in_process()
        assert after[2] == in_process(delta) != body


# ----------------------------------------------------------------------
# one evaluation path, two deliveries
# ----------------------------------------------------------------------
def tiny_world(violating: bool = False, non_ascii: bool = False) -> dict:
    """The hand-checked tiny hospital (date ``d1``: two patients and a
    recursive chain).  ``violating`` un-bills t4, which the chain's bill
    items reference; ``non_ascii`` renames a patient and a treatment."""
    sources = make_sources()
    load_tiny_hospital(sources)
    if violating:
        sources["DB3"].execute_script("DELETE FROM billing WHERE trId='t4'")
    if non_ascii:
        sources["DB1"].execute_script(
            "UPDATE patient SET pname='Zoë ☃ <€>' WHERE SSN='s1'")
        sources["DB4"].execute_script(
            "UPDATE treatment SET tname='röntgen ✓' WHERE trId='t2'")
    return sources


@contextlib.contextmanager
def _serving(service: EvaluationService):
    server, _ = start_background(service)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


class TestOneEvaluationPath:
    """A miss is one ``evaluate_stream`` into a buffer: no tree, yet the
    bytes and the report of an in-process ``evaluate`` + ``serialize``."""

    @pytest.mark.parametrize("non_ascii", [False, True])
    def test_buffered_miss_is_the_tree_serialized(self, monkeypatch,
                                                  non_ascii):
        reference = Middleware(build_hospital_aig(),
                               tiny_world(non_ascii=non_ascii),
                               unfold_depth=4)
        document = reference.evaluate({"date": "d1"}).document
        service = EvaluationService()
        service.register_tenant("t", build_hospital_aig(),
                                tiny_world(non_ascii=non_ascii),
                                {"unfold_depth": 4})

        def no_tree(*args, **kwargs):
            raise AssertionError("a service miss built a tree")

        monkeypatch.setattr(Middleware, "evaluate", no_tree)
        monkeypatch.setattr("repro.runtime.tagging.TreeSink", no_tree)
        for indent in (None, 0, 2):
            body, info = service.evaluate("t", {"date": "d1"},
                                          indent=indent)
            assert not info["cached"]
            assert body == serialize(document, indent=indent).encode("utf-8")
            assert info["document_bytes"] == len(body)
            assert body.isascii() is not non_ascii

    @pytest.mark.parametrize("mode", ["abort", "report"])
    def test_info_and_headers_match_in_process_evaluate(self, mode):
        # "abort" serves the clean tiny world; "report" serves one whose
        # data violates a constraint, where the in-process run has no
        # report to give: there every request, warm or not, is the same
        # refusal the in-process run raises
        violating = mode == "report"
        config = {"unfold_depth": 4}
        reference_sources = tiny_world(violating=violating)
        reference = Middleware(build_hospital_aig(), reference_sources,
                               incremental=True, **config)
        service = EvaluationService()
        service.register_tenant("t", build_hospital_aig(),
                                tiny_world(violating=violating), config)
        request = {"tenant": "t", "root": {"date": "d1"}, "indent": 2,
                   "include_report": True}

        def expected() -> tuple[str | None, dict]:
            try:
                report = reference.evaluate({"date": "d1"})
            except EvaluationAborted as refused:
                return None, {"error": f"constraint violation: {refused}"}
            document = serialize(report.document, indent=2)
            return document, {
                "phase": EvaluationService._phase(report),
                "queries_executed": report.queries_executed,
                "reused_nodes": report.reused_nodes,
                "document_bytes": len(document.encode("utf-8"))}

        with _serving(service) as server:
            def served() -> tuple[str | None, dict]:
                status, headers, body = _request(server, "POST",
                                                 "/evaluate", request)
                payload = json.loads(body)
                if status == 409:
                    assert not [name for name in headers
                                if name.startswith("X-Repro")]
                    return None, payload
                assert status == 200
                info = payload["report"]
                assert headers["X-Repro-Phase"] == info["phase"]
                assert headers["X-Repro-Cache"] == \
                    ("hit" if info["cached"] else "miss")
                return payload["document"], info

            def assert_miss() -> tuple[str | None, dict]:
                document, info = served()
                want_document, want = expected()
                assert document == want_document
                assert not info.get("cached")
                assert {key: info[key] for key in want} == want
                return document, info

            assert_miss()                                   # cold
            reference_sources["DB3"].load_rows("billing", [("t77", "9")])
            status, _, _ = _request(
                server, "POST", "/tenants/t/load",
                {"source": "DB3", "relation": "billing",
                 "rows": [["t77", "9"]]})
            assert status == 200
            document, miss = assert_miss()                  # the write's
            hit_document, hit = served()
            _, _, health = _request(server, "GET", "/health")
        assert hit_document == document
        if violating:
            # a refusal is never cached: the repeat refuses again
            assert hit == miss
            assert json.loads(health)["response_cache_entries"] == 0
            return
        assert hit == dict(miss, phase="warm", cached=True,
                           queries_executed=0, response_time=0.0,
                           seconds=hit["seconds"])
        assert miss["phase"] == "delta"
        assert "violations" not in miss


@pytest.fixture(scope="module")
def refusing():
    """A service whose ``clean`` tenant admits one evaluation and queues
    one, beside a tenant that violates a constraint."""
    service = EvaluationService(max_inflight=1, max_queued=1)
    for name, violating in (("clean", False), ("violating", True)):
        service.register_tenant(name, build_hospital_aig(),
                                tiny_world(violating=violating),
                                {"unfold_depth": 4})
    with _serving(service) as server:
        yield service, server


class TestStreamStatus:
    """The status line of a chunked response leaves with its first frame:
    a refusal before it is a response of its own, a failure after it
    truncates the one response."""

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("indent", ["x", -1, True, 1.5, [2]])
    def test_bad_indent_is_400(self, refusing, stream, indent):
        _, server = refusing
        status, _, body = _one_response(_raw_post(server, {
            "tenant": "clean", "root": {"date": "d1"}, "indent": indent,
            "stream": stream}))
        assert status == 400
        assert "'indent' must be null or a non-negative integer" in \
            json.loads(body)["error"]

    @pytest.mark.parametrize("stream", [False, True])
    def test_oversized_indent_is_400_before_any_evaluation(self, refusing,
                                                           stream):
        # each pretty line carries indent x depth spaces: an indent of a
        # million would make a document of gigabytes, and cache it
        _, server = refusing

        def state() -> tuple:
            _, _, health = _request(server, "GET", "/health")
            _, _, metrics = _request(server, "GET", "/metrics.json")
            return (json.loads(health)["response_cache_entries"],
                    json.loads(metrics)["counters"].get(
                        "service_evaluations", 0))

        before = state()
        status, _, body = _one_response(_raw_post(server, {
            "tenant": "clean", "root": {"date": "d1"}, "indent": 1000000,
            "stream": stream}))
        assert status == 400
        assert f"'indent' must be at most {MAX_INDENT}" in \
            json.loads(body)["error"]
        assert state() == before

    @pytest.mark.parametrize("stream", [False, True])
    def test_constraint_abort_is_409(self, refusing, stream):
        # the only answer to a violation, buffered or streamed: one
        # response (no 200 status line went out first) naming what the
        # in-process run names, and nothing cached
        _, server = refusing

        def cached() -> int:
            _, _, health = _request(server, "GET", "/health")
            return json.loads(health)["response_cache_entries"]

        before = cached()
        status, headers, body = _one_response(_raw_post(server, {
            "tenant": "violating", "root": {"date": "d1"},
            "stream": stream}))
        assert status == 409
        assert headers["content-type"] == "application/json"
        with pytest.raises(EvaluationAborted) as refused:
            Middleware(build_hospital_aig(), tiny_world(violating=True),
                       unfold_depth=4).evaluate({"date": "d1"})
        assert json.loads(body)["error"] == \
            f"constraint violation: {refused.value}"
        assert cached() == before

    def test_exhausted_admission_on_stream_is_429(self, refusing):
        service, server = refusing
        with _saturated(service.admission, "clean"):
            status, headers, body = _one_response(_raw_post(server, {
                "tenant": "clean", "root": {"date": "d1"},
                "stream": True}))
        assert status == 429
        assert headers["retry-after"] == "1"
        assert "over capacity" in json.loads(body)["error"]

    def test_stream_is_the_plain_body_terminated(self, refusing):
        _, server = refusing
        request = {"tenant": "clean", "root": {"date": "d1"}, "indent": 2}
        _, _, plain = _one_response(_raw_post(server, request))
        status, headers, body = _one_response(
            _raw_post(server, {**request, "stream": True}))
        assert status == 200
        assert headers["transfer-encoding"] == "chunked"
        assert _dechunk(body) == (plain, True)

    @pytest.mark.parametrize("frames", [0, 1])
    def test_failure_before_or_after_the_first_frame(self, refusing,
                                                     monkeypatch, frames):
        service, server = refusing
        head = "<report>" + "x" * (STREAM_FRAME_BYTES * frames)

        def failing(tenant, root, write, indent=None):
            write(head)
            write("<patient>")
            raise EvaluationError("source DB1 went away")

        monkeypatch.setattr(service, "evaluate_stream", failing)
        status, headers, body = _one_response(_raw_post(server, {
            "tenant": "clean", "root": {"date": "d1"}, "stream": True}))
        if frames == 0:
            # nothing left before the failure: its own status
            assert status == 422
            assert "went away" in json.loads(body)["error"]
            return
        assert status == 200
        assert headers["transfer-encoding"] == "chunked"
        # what was produced arrives, but never the terminator
        assert _dechunk(body) == ((head + "<patient>").encode(), False)


class TestSourceOutage:
    """A source that fails a statement is the service's fault, not the
    request's: 503 with ``Retry-After`` as the one response (no 200 status
    line first), nothing cached, and the first request after the fault
    has cleared gets the whole document."""

    @staticmethod
    def _refused_then_whole(faults: str, stream: bool, config: dict):
        from repro.resilience import FaultInjector
        reference = bytearray()
        Middleware(build_hospital_aig(), tiny_world(),
                   unfold_depth=4).evaluate_stream(
            {"date": "d1"}, lambda chunk: reference.extend(
                chunk.encode("utf-8")))
        service = EvaluationService()
        state = service.register_tenant("t", build_hospital_aig(),
                                        tiny_world(), config)
        request = {"tenant": "t", "root": {"date": "d1"}, "stream": stream}
        with _serving(service) as server:
            def cached_entries() -> int:
                _, _, body = _request(server, "GET", "/health")
                return json.loads(body)["response_cache_entries"]

            before = cached_entries()
            injector = FaultInjector.from_spec(faults).install(
                state.sources)
            try:
                status, headers, body = _one_response(
                    _raw_post(server, request))
            finally:
                injector.uninstall(state.sources)
            assert status == 503
            assert headers["retry-after"]
            assert f"'{faults.split(':')[0]}'" in json.loads(body)["error"]
            assert cached_entries() == before
            status, headers, body = _one_response(_raw_post(server, request))
        assert status == 200
        if stream:
            body, terminated = _dechunk(body)
            assert terminated
        assert body == bytes(reference)

    @pytest.mark.parametrize("stream", [False, True])
    def test_outage_is_503_and_caches_nothing(self, stream):
        self._refused_then_whole("DB3:down@1", stream, {"unfold_depth": 4})

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("faults, deadline", [
        ("DB3:error@1", None), ("DB1:slow@1:0.2", 0.05)])
    def test_every_fault_kind_is_refused(self, faults, deadline, stream):
        """``error`` and a ``slow`` statement cut by the deadline end as
        the outage does (``down`` is the test above)."""
        self._refused_then_whole(faults, stream, {"unfold_depth": 4,
                                                  "deadline": deadline})


class TestServedMissObservability:
    def test_stream_gauges_and_ledger_record(self, tmp_path, monkeypatch):
        from repro.service import server as server_module
        tracers = []

        class Recorded(server_module.Tracer):
            def __init__(self):
                super().__init__()
                tracers.append(self)

        monkeypatch.setattr(server_module, "Tracer", Recorded)
        path = str(tmp_path / "runs.jsonl")
        service = EvaluationService()
        service.register_tenant("t", build_hospital_aig(),
                                tiny_world(non_ascii=True),
                                {"unfold_depth": 4, "ledger": path})
        body, _ = service.evaluate("t", {"date": "d1"}, indent=2)
        (record,) = RunLedger(path).records()
        assert record["kind"] == "stream"
        assert record["run"]["document_bytes"] == len(body)
        (tracer,) = tracers
        gauges = tracer.metrics.snapshot()["gauges"]
        assert "document_nodes" not in gauges
        assert gauges["document_characters"] == len(body.decode("utf-8")) \
            < len(body)
        assert gauges["streamed_elements"] == \
            record["run"]["streamed_elements"] > 0

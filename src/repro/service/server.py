"""The evaluation service's HTTP surface and orchestration core.

:class:`EvaluationService` is the framework-free core — registry +
admission + coalescing + per-request tracing — and is what tests drive
directly; :class:`ServiceHTTPServer`/:func:`make_server` wrap it in a
stdlib ``ThreadingHTTPServer`` (one thread per connection, listen
backlog raised far above the default 5 so hundreds of simultaneous
connects don't see resets).

Endpoints (JSON unless noted):

* ``GET  /health`` — status, tenants, admission gates, cached responses;
* ``GET  /metrics`` — Prometheus text exposition of the service registry;
* ``GET  /metrics.json`` — the same registry as a JSON snapshot;
* ``GET  /tenants`` — registered tenants with plan keys and cache state;
* ``POST /tenants`` — register: ``{"name", "scenario", "config"}`` where
  ``scenario`` is ``{"kind": "hospital", "scale": ...}`` or
  ``{"kind": "spec", "spec": <fuzz ScenarioSpec dict>}``;
* ``POST /evaluate`` — ``{"tenant", "root", "indent" (≤ 16), "stream",
  "include_report"}`` → the serialized XML document.  Every evaluation
  is one ``Middleware.evaluate_stream``, its bytes delivered two ways:
  buffered into the (cached) plain body, or with ``stream`` chunked as
  they are written.  Either is byte-identical to an in-process
  ``Middleware.evaluate`` + ``serialize``, the oracle the tests hold it
  to; with ``include_report`` a JSON envelope adds run statistics;
* ``POST /tenants/<name>/load`` — delta ingestion:
  ``{"source", "relation", "rows"}`` bumps table versions so the next
  evaluation re-runs exactly the tainted cone;
* ``POST /tenants/<name>/invalidate`` — drop the tenant's cached plans
  and result caches;
* ``DELETE /tenants/<name>`` — unregister.

Every evaluation runs under a **per-request tracer**, so concurrent
requests never clobber each other's gauges; latency lands in the
service registry's ``service_latency_seconds`` histogram scoped by
request phase (``cold``/``warm``/``delta``/``stream``), and the
request-scoped ledger records ride on the tenant middleware's ledger
exactly as they do in-process.
"""

from __future__ import annotations

import contextlib
import json
import logging
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    EvaluationAborted,
    EvaluationError,
    ReproError,
    SourceUnavailableError,
)
from repro.obs import Tracer, prometheus_text
from repro.service.admission import AdmissionController, AdmissionRejected
from repro.service.coalesce import RequestCoalescer
from repro.service.registry import TenantRegistry, TenantState
from repro.xmlmodel.serialize import MAX_INDENT, check_indent  # noqa: F401

logger = logging.getLogger("repro.service")

#: a streamed response leaves in HTTP chunk frames of at least this many
#: bytes (the last one excepted), one ``wfile.write`` each
STREAM_FRAME_BYTES = 16 * 1024


def utf8_writer(buffer: bytearray, frame=None):
    """The document writer of both deliveries: ``write(chunk)`` appends
    the chunk's UTF-8 bytes to ``buffer``, and ``frame()`` (optional) is
    called whenever the buffer holds at least :data:`STREAM_FRAME_BYTES`."""
    extend = buffer.extend
    if frame is None:
        return lambda chunk: extend(chunk.encode("utf-8"))

    def write(chunk: str) -> None:
        extend(chunk.encode("utf-8"))
        if len(buffer) >= STREAM_FRAME_BYTES:
            frame()
    return write


class EvaluationService:
    """Registry + admission + coalescing + response cache around shared
    middlewares.

    The response cache is the service-level face of the incremental
    engine's core invariant: same AIG, same root attributes, same source
    versions ⇒ byte-identical document.  The cache key *is* the
    coalescing key (tenant + plan + root + version vector + indent), so
    a hit can never serve stale bytes — any ``load_rows`` bumps a table
    version and misses.  Without it, a warm request arriving just after
    a flight completed would become a fresh leader and re-run a full
    (GIL-holding) evaluation that is guaranteed to produce the bytes the
    service already holds."""

    def __init__(self, max_inflight: int = 8, max_queued: int = 64,
                 response_cache: int = 64,
                 max_tenants: int | None = None,
                 tenant_ttl: float | None = None):
        self.registry = TenantRegistry(max_tenants=max_tenants,
                                       idle_ttl=tenant_ttl,
                                       on_evict=self._on_tenant_evicted,
                                       on_replace=self._drop_cached)
        self.admission = AdmissionController(max_inflight, max_queued)
        self.coalescer = RequestCoalescer()
        self.response_cache_size = response_cache
        self._response_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._cache_lock = threading.Lock()
        from repro.obs.metrics import MetricsRegistry
        self.metrics = MetricsRegistry()
        self.started = time.time()

    def _on_tenant_evicted(self, name: str) -> None:
        """Registry eviction hook (LRU overflow / idle TTL): drop the
        tenant's cached responses and count it in ``/metrics.json``."""
        logger.info("tenant %r evicted from the registry", name)
        self._drop_cached(name)
        self.metrics.add("service_tenant_evictions", 1)

    # -- tenant management ---------------------------------------------
    def register_tenant(self, name: str, aig, sources: dict,
                        config: dict | None = None) -> TenantState:
        state = self.registry.register(name, aig, sources, config)
        self.metrics.add("service_tenant_registrations", 1)
        return state

    def register_scenario(self, name: str, scenario: dict,
                          config: dict | None = None) -> TenantState:
        """Register from a JSON scenario description (``POST /tenants``)."""
        # The key naming a file the server writes is the operator's
        # (``repro serve --ledger``, ``register_tenant``).
        if "ledger" in (config or ()):
            raise EvaluationError(
                "config key ledger names a server-side file and is "
                "operator-only (repro serve --ledger)")
        kind = scenario.get("kind", "spec")
        if kind == "hospital":
            from repro.datagen import make_loaded_sources
            from repro.hospital import build_hospital_aig
            aig = build_hospital_aig()
            sources, _ = make_loaded_sources(scenario.get("scale", "tiny"))
        elif kind == "spec":
            from repro.fuzz.spec import ScenarioSpec, build_scenario
            spec = ScenarioSpec.from_dict(scenario["spec"])
            aig, sources = build_scenario(spec)
        else:
            raise EvaluationError(
                f"unknown scenario kind {kind!r} (expected 'hospital' "
                f"or 'spec')")
        return self.register_tenant(name, aig, sources, config)

    def remove_tenant(self, name: str) -> bool:
        self._drop_cached(name)
        return self.registry.remove(name)

    def _drop_cached(self, tenant: str) -> None:
        """Evict a tenant's response-cache entries (key leads with the
        tenant name)."""
        with self._cache_lock:
            for key in [k for k in self._response_cache
                        if k[0] == tenant]:
                del self._response_cache[key]

    def _cache_get(self, key: tuple):
        if not self.response_cache_size:
            return None
        with self._cache_lock:
            entry = self._response_cache.get(key)
            if entry is not None:
                self._response_cache.move_to_end(key)
            return entry

    def _cache_put(self, key: tuple, entry: tuple) -> None:
        if not self.response_cache_size:
            return
        with self._cache_lock:
            self._response_cache[key] = entry
            self._response_cache.move_to_end(key)
            while len(self._response_cache) > self.response_cache_size:
                self._response_cache.popitem(last=False)

    def load_rows(self, tenant: str, source: str, relation: str,
                  rows: list) -> dict:
        """Delta ingestion: bulk-insert + version bump on a base table.

        Sources are single-flight: the load waits for a running evaluation
        of the tenant (its middleware's run lock), so a document reads the
        relation wholly before or wholly after the write.
        """
        state = self.registry.get(tenant)
        if source not in state.sources:
            raise EvaluationError(f"tenant {tenant!r} has no source "
                                  f"{source!r}")
        with state.middleware.run_lock:
            state.sources[source].load_rows(relation,
                                            [tuple(row) for row in rows])
        # each cached response of the tenant is keyed by the version
        # vector the load moved past: none can be served again
        self._drop_cached(tenant)
        self.metrics.add("service_deltas_ingested", 1)
        return {"tenant": tenant, "source": source, "relation": relation,
                "rows": len(rows),
                "version": state.sources[source].table_version(relation)}

    def invalidate(self, tenant: str) -> dict:
        state = self.registry.get(tenant)
        self._drop_cached(tenant)
        state.middleware.invalidate_plans()
        self.metrics.add("service_invalidations", 1)
        return {"tenant": tenant, "invalidated": True}

    # -- evaluation -----------------------------------------------------
    @staticmethod
    def _phase(report) -> str:
        """cold = nothing reused; warm = pure cache replay; delta =
        partial re-execution of the tainted cone."""
        if report.reused_nodes == 0:
            return "cold"
        if report.queries_executed == 0:
            return "warm"
        return "delta"

    def _evaluate_into(self, state: TenantState, root_inh: dict, write,
                       indent: int | None):
        """One admitted evaluation of ``state``'s document under a
        per-request tracer, its text to ``write``; returns the
        :class:`~repro.runtime.middleware.StreamReport`."""
        with self.admission.slot(state.name):
            tracer = Tracer()
            with tracer.span("service-request", "service",
                             tenant=state.name):
                report = state.middleware.evaluate_stream(
                    dict(root_inh), write, indent=indent, tracer=tracer)
            self.metrics.add("service_evaluations", 1)
        return report

    def evaluate(self, tenant: str, root_inh: dict,
                 indent: int | None = None):
        """One buffered evaluation; returns ``(body_bytes, info)``.

        The body is the bytes ``evaluate_stream`` wrote, gathered into
        one buffer: no tree is built.  Identical concurrent requests
        coalesce onto one evaluation (the coalescing key pins plan, root
        attributes, *and* source versions); every caller — leader or
        follower — receives the same bytes, which are byte-identical to
        an in-process ``serialize(middleware.evaluate(root).document,
        indent)``.

        The coalescer wraps admission, not the other way round: only the
        flight *leader* takes an admission slot, so a thousand identical
        warm requests cost one slot and the followers park on the
        flight's event — admission meters distinct evaluations, which is
        the resource that actually contends (see
        :mod:`repro.service.admission`).  An ``AdmissionRejected`` raised
        by the leader propagates to every follower of that flight.

        Completed flights land in the response cache under the same key,
        so a repeat of a warm request costs neither an admission slot
        nor an evaluation until a ``load_rows`` moves the version vector
        or ``invalidate`` evicts the tenant.
        """
        state = self.registry.get(tenant)
        self.metrics.add("service_requests", 1)
        arrived = time.perf_counter()
        key = state.coalesce_key(root_inh, indent)

        cached = self._cache_get(key)
        if cached is not None:
            body, template = cached
            elapsed = time.perf_counter() - arrived
            self.metrics.add("service_cache_hits", 1)
            self.metrics.observe("service_latency_seconds", elapsed)
            self.metrics.observe("service_latency_seconds.warm", elapsed)
            return body, dict(template, seconds=round(elapsed, 6))

        def compute():
            body = bytearray()
            report = self._evaluate_into(state, root_inh, utf8_writer(body),
                                         indent)
            return bytes(body), self._phase(report), report

        (body, phase, report), coalesced = self.coalescer.run(
            key, compute)
        elapsed = time.perf_counter() - arrived
        if coalesced:
            self.metrics.add("service_coalesced_requests", 1)
        self.metrics.observe("service_latency_seconds", elapsed)
        self.metrics.observe(f"service_latency_seconds.{phase}", elapsed)
        info = {
            "tenant": tenant,
            "phase": phase,
            "coalesced": coalesced,
            "cached": False,
            "seconds": round(elapsed, 6),
            "queries_executed": report.queries_executed,
            "reused_nodes": report.reused_nodes,
            "response_time": round(report.response_time, 6),
            "document_bytes": len(body),
        }
        if not coalesced:
            # a cache hit is a warm answer that executed nothing, so the
            # stored report reflects that rather than the leader's run
            self._cache_put(key, (body, dict(
                info, phase="warm", coalesced=False, cached=True,
                queries_executed=0, response_time=0.0)))
        return body, info

    def evaluate_stream(self, tenant: str, root_inh: dict, write,
                        indent: int | None = None):
        """One streaming evaluation; chunks go straight to ``write``.

        Never coalesced — the bytes belong to exactly one socket — but
        still metered by admission and the latency histogram (scope
        ``stream``).
        """
        state = self.registry.get(tenant)
        self.metrics.add("service_requests", 1)
        arrived = time.perf_counter()
        report = self._evaluate_into(state, root_inh, write, indent)
        elapsed = time.perf_counter() - arrived
        self.metrics.observe("service_latency_seconds", elapsed)
        self.metrics.observe("service_latency_seconds.stream", elapsed)
        return report

    # -- introspection --------------------------------------------------
    def health(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started, 3),
            "tenants": self.registry.names(),
            "admission": self.admission.snapshot(),
            "coalescing_inflight": self.coalescer.inflight(),
            "response_cache_entries": len(self._response_cache),
        }

    def prometheus(self) -> str:
        return prometheus_text(self.metrics)


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded server tuned for high fan-in.

    The stdlib default listen backlog (5) resets connections when
    hundreds of clients connect in the same instant — exactly the
    service's design load — so it is raised to 1024; daemon threads let
    ``shutdown`` finish without joining stragglers.
    """

    daemon_threads = True
    request_queue_size = 1024

    def __init__(self, address, handler_class, service: EvaluationService):
        self.service = service
        super().__init__(address, handler_class)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # -- plumbing -------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("%s %s", self.address_string(), format % args)

    @property
    def service(self) -> EvaluationService:
        return self.server.service

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _send(self, status: int, body: bytes, content_type: str,
              extra_headers: dict | None = None) -> None:
        self._send_head(status, content_type,
                        {"Content-Length": str(len(body)),
                         **(extra_headers or {})}, body)

    def _send_head(self, status: int, content_type: str, headers: dict,
                   first: bytes) -> None:
        """The status line and headers, in one write with ``first`` (the
        whole body, or a chunked body's first frame)."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        for name, value in headers.items():
            self.send_header(name, value)
        # Headers and body leave in one write: end_headers() would send
        # the header block on its own, and a second small send on a
        # keep-alive connection waits out Nagle + delayed ACK (~40 ms).
        self._headers_buffer.append(b"\r\n" + first)
        self.flush_headers()

    def _send_json(self, status: int, payload: dict,
                   extra_headers: dict | None = None) -> None:
        body = (json.dumps(payload, indent=1, sort_keys=True) + "\n")
        self._send(status, body.encode("utf-8"), "application/json",
                   extra_headers)

    def _error(self, status: int, message: str,
               extra_headers: dict | None = None) -> None:
        self._send_json(status, {"error": message}, extra_headers)

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:
        try:
            if self.path == "/health":
                self._send_json(200, self.service.health())
            elif self.path == "/metrics":
                self._send(200,
                           self.service.prometheus().encode("utf-8"),
                           "text/plain; version=0.0.4")
            elif self.path == "/metrics.json":
                self._send_json(200, self.service.metrics.snapshot())
            elif self.path == "/tenants":
                self._send_json(200,
                                {"tenants": self.service.registry
                                 .describe()})
            else:
                self._error(404, f"no route for GET {self.path}")
        except Exception as error:  # pragma: no cover - defensive
            logger.exception("GET %s failed", self.path)
            self._error(500, str(error))

    def do_POST(self) -> None:
        try:
            payload = self._read_json()
        except ValueError as error:
            self._error(400, f"malformed JSON body: {error}")
            return
        try:
            if self.path == "/tenants":
                self._register(payload)
            elif self.path == "/evaluate":
                self._evaluate(payload)
            elif (self.path.startswith("/tenants/")
                    and self.path.endswith("/load")):
                name = self.path[len("/tenants/"):-len("/load")]
                self._send_json(200, self.service.load_rows(
                    name, payload["source"], payload["relation"],
                    payload["rows"]))
            elif (self.path.startswith("/tenants/")
                    and self.path.endswith("/invalidate")):
                name = self.path[len("/tenants/"):-len("/invalidate")]
                self._send_json(200, self.service.invalidate(name))
            else:
                self._error(404, f"no route for POST {self.path}")
        except KeyError as error:
            self._error(404, f"unknown tenant or missing field: {error}")
        except AdmissionRejected as error:
            self.service.metrics.add("service_rejections", 1)
            self._error(429, str(error), {"Retry-After": "1"})
        except EvaluationAborted as error:
            self._error(409, f"constraint violation: {error}")
        except SourceUnavailableError as error:
            # A source that failed a statement is the service's fault,
            # not the request's: retry later.
            self._error(503, str(error), {"Retry-After": "5"})
        except ReproError as error:
            self._error(422, str(error))
        except Exception as error:  # pragma: no cover - defensive
            logger.exception("POST %s failed", self.path)
            self._error(500, str(error))

    def do_DELETE(self) -> None:
        if self.path.startswith("/tenants/"):
            name = self.path[len("/tenants/"):]
            if self.service.remove_tenant(name):
                self._send_json(200, {"tenant": name, "removed": True})
            else:
                self._error(404, f"unknown tenant {name!r}")
        else:
            self._error(404, f"no route for DELETE {self.path}")

    # -- handlers -------------------------------------------------------
    def _register(self, payload: dict) -> None:
        name = payload.get("name")
        scenario = payload.get("scenario")
        if not name or not isinstance(scenario, dict):
            self._error(400, "registration needs 'name' and 'scenario'")
            return
        state = self.service.register_scenario(
            name, scenario, payload.get("config"))
        self._send_json(201, state.describe())

    def _evaluate(self, payload: dict) -> None:
        tenant = (payload.get("tenant")
                  or self.headers.get("X-Repro-Tenant"))
        if not tenant:
            self._error(400, "evaluate needs 'tenant' (body or "
                             "X-Repro-Tenant header)")
            return
        root = payload.get("root", {})
        indent = payload.get("indent")
        try:
            check_indent(indent)
        except (TypeError, ValueError) as error:
            self._error(400, str(error))
            return
        if payload.get("stream"):
            self._evaluate_stream(tenant, root, indent)
            return
        body, info = self.service.evaluate(tenant, root, indent=indent)
        headers = {"X-Repro-Phase": info["phase"],
                   "X-Repro-Coalesced": "1" if info["coalesced"] else "0",
                   "X-Repro-Cache": "hit" if info.get("cached") else
                   "miss"}
        if payload.get("include_report"):
            self._send_json(200, {"document": body.decode("utf-8"),
                                  "report": info}, headers)
        else:
            self._send(200, body, "application/xml", headers)

    def _evaluate_stream(self, tenant: str, root: dict,
                         indent: int | None) -> None:
        # The status line leaves with the first frame (or the terminator),
        # so a refusal before it — unknown tenant, failed source, admission,
        # constraint abort, an error in the first frame's worth of
        # tagging — gets its own status from do_POST.  A failure after it
        # can only truncate: the client sees a missing terminator, never
        # a silently short document or a second response.
        pending = bytearray()
        started = False

        def send(data: bytes) -> None:
            nonlocal started
            if started:
                self.wfile.write(data)
                return
            started = True
            self._send_head(200, "application/xml",
                            {"Transfer-Encoding": "chunked"}, data)

        def framed() -> bytes:
            # ``wfile`` is unbuffered, so serializer chunks are gathered
            # into frames; a frame is never empty (that is the terminator)
            data = (b"%X\r\n%b\r\n" % (len(pending), pending)
                    if pending else b"")
            pending.clear()
            return data

        try:
            self.service.evaluate_stream(
                tenant, root, utf8_writer(pending, lambda: send(framed())),
                indent=indent)
        except Exception as error:
            if not started:
                raise
            logger.warning("stream for tenant %r truncated: %s", tenant,
                           error, exc_info=True)
            self.close_connection = True
            with contextlib.suppress(OSError):
                # what was produced before the truncation
                self.wfile.write(framed())
            return
        send(framed() + b"0\r\n\r\n")


def make_server(service: EvaluationService, host: str = "127.0.0.1",
                port: int = 0) -> ServiceHTTPServer:
    """Bind (port 0 = ephemeral) but do not start serving."""
    return ServiceHTTPServer((host, port), ServiceRequestHandler, service)


def serve_forever(service: EvaluationService, host: str,
                  port: int) -> None:  # pragma: no cover - CLI loop
    server = make_server(service, host, port)
    bound = server.server_address
    logger.info("repro serve listening on http://%s:%d", bound[0],
                bound[1])
    print(f"repro serve: listening on http://{bound[0]}:{bound[1]} "
          f"({len(service.registry)} tenant(s) registered)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()


def start_background(service: EvaluationService, host: str = "127.0.0.1",
                     port: int = 0):
    """Start serving on a daemon thread; returns ``(server, thread)``.

    The test suite and the in-process benchmark use this to run the full
    HTTP stack without a subprocess."""
    server = make_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve", daemon=True)
    thread.start()
    return server, thread

"""End-to-end smoke test for ``python -m repro serve``.

Unlike the in-process service tests, this drives the real deployment
shape: a child process running the CLI entry point, reached only over
TCP.  It checks the full loop a production probe would:

1. spawn ``repro serve`` on an ephemeral port and parse the bound
   address from its stdout;
2. poll ``GET /health`` until the service answers;
3. fire one cold evaluation and a barrier-released wave of identical
   concurrent requests, asserting every response carries the same bytes;
4. scrape ``GET /metrics`` and assert the coalescing/caching counters
   prove the wave shared work instead of re-evaluating per request;
5. exercise delta ingestion (``POST /tenants/hospital/load``) and
   confirm the version bump invalidates the response cache; the two
   dates evaluated before the write then answer as ``delta`` runs (the
   incremental store replays what the write left clean, for each date),
   byte-identical to an in-process ``Middleware.evaluate`` +
   ``serialize`` over the same ``--scale`` data set (with step 5's row);
6. request the document pretty-printed and compact, plain and as a
   chunked stream (``"stream": true``).  Both deliveries share one
   evaluation path, so the plain body is held to the same in-process
   oracle.  De-chunked, the stream
   must equal the plain body byte for byte, in frames of at least
   16 KiB;
7. send a chunked request with a bad ``indent``: it must be refused
   with 400 as the one response on the socket, never a ``200`` header
   followed by a second response;
8. fire a delta load that adds a visible visit in the middle of a burst
   of misses from several clients: the load waits for the evaluation
   running on the tenant, so every body must equal the in-process
   document before the write or the one after it — the latter for every
   request sent after the load returned;
9. terminate the child and require a clean exit.

Usage (CI runs this after the unit suite)::

    PYTHONPATH=src python tools/service_smoke.py [--scale tiny]
                                                 [--clients 16]

Exit status 0 on success; any failure prints the reason and the child's
captured output, then exits 1.
"""

from __future__ import annotations

import argparse
import json
import queue
import re
import socket
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection

from repro.datagen import make_loaded_sources
from repro.hospital import build_hospital_aig
from repro.runtime import Middleware
from repro.service.server import STREAM_FRAME_BYTES
from repro.xmlmodel import serialize

ADDRESS_RE = re.compile(r"listening on http://([0-9.]+):(\d+)")
#: step 5's delta: a cover row no patient's policy matches
DELTA_ROW = ("P99999", "T99999")
#: step 8's burst: every (date, indent) pair is a miss before the write
BURST_DATES = [f"2003-06-{day:02d}" for day in range(4, 10)]
BURST_INDENTS = (None, 2)
#: step 8's delta lands on this date
BURST_DELTA_DATE = "2003-06-06"


def _request(host, port, method, path, payload=None, timeout=60):
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body,
                     {"Content-Type": "application/json"} if body else {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        conn.close()


def _raw_post(host, port, payload, timeout=60) -> bytes:
    """POST /evaluate over a raw socket; returns everything the server
    wrote before closing it, status lines included."""
    body = json.dumps(payload).encode("utf-8")
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(b"POST /evaluate HTTP/1.1\r\nHost: smoke\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Connection: close\r\n"
                     b"Content-Length: %d\r\n\r\n%b" % (len(body), body))
        return b"".join(iter(lambda: conn.recv(65536), b""))


def _stream_request(host, port, payload, timeout=60):
    """POST /evaluate over a raw socket so the chunk frames stay visible;
    returns ``(status, de-chunked body, frame count)``."""
    reply = _raw_post(host, port, payload, timeout)
    head, _, rest = reply.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    assert b"transfer-encoding: chunked" in head.lower(), head
    document, frames = bytearray(), 0
    while True:
        size, _, rest = rest.partition(b"\r\n")
        length = int(size, 16)
        if length == 0:
            assert rest == b"\r\n", "bytes after the chunk terminator"
            return status, bytes(document), frames
        document += rest[:length]
        assert rest[length:length + 2] == b"\r\n", "malformed chunk frame"
        rest = rest[length + 2:]
        frames += 1


def _in_process_documents(scale: str, dates: list) -> dict:
    """``(date, indent) -> bytes`` of an in-process ``Middleware.evaluate``
    + ``serialize`` over the data set ``repro serve --scale`` loads, after
    step 5's delta."""
    sources, _ = make_loaded_sources(scale)
    try:
        sources["DB2"].load_rows("cover", [DELTA_ROW])
        middleware = Middleware(build_hospital_aig(), sources,
                                unfold_depth="auto")
        documents = {}
        for date in dates:
            document = middleware.evaluate({"date": date}).document
            for indent in (2, None):
                documents[date, indent] = serialize(
                    document, indent=indent).encode("utf-8")
        return documents
    finally:
        for source in sources.values():
            source.close()


def _covered_visit(dataset, date: str) -> tuple:
    """A ``visitInfo`` row on ``date`` the document shows: an existing
    patient visits a treatment their policy covers, not yet visited."""
    existing = {(row[0], row[1]) for row in dataset.visit_info
                if row[2] == date}
    return next((ssn, trid, date)
                for ssn, _, policy in dataset.patient
                for cover_policy, trid in sorted(set(dataset.cover))
                if cover_policy == policy and (ssn, trid) not in existing)


def _burst_oracle(scale: str) -> tuple:
    """Step 8's delta row, and ``(date, indent) -> bytes`` of in-process
    documents before and after it is loaded (step 5's row in both)."""
    sources, dataset = make_loaded_sources(scale)
    try:
        sources["DB2"].load_rows("cover", [DELTA_ROW])
        delta = _covered_visit(dataset, BURST_DELTA_DATE)
        documents = []
        for rows in ((), [delta]):
            if rows:
                sources["DB1"].load_rows("visitInfo", rows)
            middleware = Middleware(build_hospital_aig(), sources,
                                    unfold_depth="auto")
            documents.append({
                (date, indent): serialize(
                    middleware.evaluate({"date": date}).document,
                    indent=indent).encode("utf-8")
                for date in BURST_DATES for indent in BURST_INDENTS})
        return delta, documents[0], documents[1]
    finally:
        for source in sources.values():
            source.close()


def _burst_with_load(host, port, delta, clients: int) -> list:
    """``clients`` threads request every ``(date, indent)`` pair; the delta
    load is posted once a third of the replies are in, and every pair is
    requested again after it returned.  Returns ``(key, body, sent after
    the load returned, received before the load was sent)`` per request."""
    keys = [(date, indent) for date in BURST_DATES
            for indent in BURST_INDENTS]
    work = queue.Queue()
    lock = threading.Lock()
    results, errors = [], []
    load_sent = False
    third = threading.Event()

    def client():
        while (item := work.get()) is not None:
            key, after_load = item
            try:
                date, indent = key
                status, _, body = _request(
                    host, port, "POST", "/evaluate",
                    {"tenant": "hospital", "root": {"date": date},
                     "indent": indent})
                assert status == 200, f"burst {key} -> {status}"
            except Exception as error:  # noqa: BLE001 - reported by caller
                errors.append(error)
                third.set()
                continue
            with lock:
                results.append((key, body, after_load, not load_sent))
                if len(results) * 3 >= len(keys):
                    third.set()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for key in keys:
        work.put((key, False))
    third.wait(120)
    with lock:
        load_sent = True
    status, _, body = _request(host, port, "POST", "/tenants/hospital/load",
                               {"source": "DB1", "relation": "visitInfo",
                                "rows": [list(delta)]})
    for key in keys:
        work.put((key, True))
    for thread in threads:
        work.put(None)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    assert status == 200, body
    return results


def _wait_for_health(host, port, deadline_seconds=30.0):
    deadline = time.monotonic() + deadline_seconds
    last_error = None
    while time.monotonic() < deadline:
        try:
            status, _, body = _request(host, port, "GET", "/health",
                                       timeout=5)
            if status == 200 and json.loads(body)["status"] == "ok":
                return
        except OSError as error:
            last_error = error
        time.sleep(0.2)
    raise RuntimeError(f"service never became healthy: {last_error}")


def _concurrent_wave(host, port, payload, clients):
    barrier = threading.Barrier(clients)
    results = [None] * clients
    errors = []

    def client(index):
        try:
            barrier.wait()
            results[index] = _request(host, port, "POST", "/evaluate",
                                      payload)
        except Exception as error:  # noqa: BLE001 - reported by caller
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def run_smoke(scale: str, clients: int) -> None:
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--scale", scale],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        # the CLI prints the bound address once the socket is listening
        host = port = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = child.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"serve exited early (rc={child.poll()})")
            print(f"  serve: {line.rstrip()}")
            match = ADDRESS_RE.search(line)
            if match:
                host, port = match.group(1), int(match.group(2))
                break
        if port is None:
            raise RuntimeError("never saw the listening address")
        _wait_for_health(host, port)
        print(f"- health ok on {host}:{port}")

        # the generator lays every scale's visits across 2003-06-01..10
        # (seed 42 default), so these probe dates always hold data
        payload = {"tenant": "hospital", "root": {"date": "2003-06-02"}}
        status, headers, cold = _request(host, port, "POST", "/evaluate",
                                         payload)
        assert status == 200, f"cold evaluate -> {status}"
        assert cold.startswith(b"<report"), cold[:64]
        print(f"- cold evaluation ok ({len(cold)} bytes, "
              f"phase {headers.get('X-Repro-Phase')})")

        # fresh root attributes -> uncached key: the barrier wave must
        # coalesce onto few evaluations, later hits come from the cache
        wave_payload = {"tenant": "hospital",
                        "root": {"date": "2003-06-03"}}
        results = _concurrent_wave(host, port, wave_payload, clients)
        bodies = {body for _, _, body in results}
        assert all(status == 200 for status, _, _ in results), \
            [status for status, _, _ in results]
        assert len(bodies) == 1, f"{len(bodies)} distinct documents"
        repeat_status, repeat_headers, repeat = _request(
            host, port, "POST", "/evaluate", wave_payload)
        assert repeat_status == 200
        assert repeat == bodies.pop()
        assert repeat_headers.get("X-Repro-Cache") == "hit", \
            repeat_headers.get("X-Repro-Cache")
        print(f"- {clients} concurrent identical requests: "
              "byte-identical, repeat served from cache")

        status, _, metrics = _request(host, port, "GET", "/metrics")
        assert status == 200
        text = metrics.decode("utf-8")
        shared = 0
        for counter in ("repro_service_coalesced_requests_total",
                        "repro_service_cache_hits_total"):
            match = re.search(rf"^{counter} (\d+)", text, re.M)
            shared += int(match.group(1)) if match else 0
        evaluations = int(re.search(
            r"^repro_service_evaluations_total (\d+)", text, re.M)
            .group(1))
        assert shared > 0, "no request ever shared work"
        assert evaluations < clients + 2, \
            f"{evaluations} evaluations for {clients + 2} requests"
        print(f"- metrics ok: {evaluations} evaluation(s), "
              f"{shared} request(s) served by coalescing/cache")

        # delta ingestion must bump the version vector and drop the hit
        status, _, body = _request(
            host, port, "POST", "/tenants/hospital/load",
            {"source": "DB2", "relation": "cover",
             "rows": [list(DELTA_ROW)]})
        assert status == 200, body
        date, wave_date = payload["root"]["date"], \
            wave_payload["root"]["date"]
        oracle = _in_process_documents(scale, [date, wave_date])
        # both dates ran before the write: each miss replays what the
        # write left clean under its own root binding
        for probe in (wave_payload, payload):
            status, headers, body = _request(host, port, "POST",
                                             "/evaluate", probe)
            probe_date = probe["root"]["date"]
            assert status == 200, f"evaluate {probe_date} -> {status}"
            assert headers.get("X-Repro-Cache") == "miss", \
                headers.get("X-Repro-Cache")
            assert headers.get("X-Repro-Phase") == "delta", \
                f"{probe_date} after the write: phase " \
                f"{headers.get('X-Repro-Phase')}, expected delta"
            assert body == oracle[probe_date, None], \
                f"{probe_date} after the write differs from in-process " \
                f"evaluate + serialize"
        print("- delta ingestion invalidated the response cache; "
              f"{wave_date} and {date} answered as delta runs, identical "
              "to in-process evaluate + serialize")

        for indent in (2, None):
            request = {**payload, "indent": indent}
            status, _, plain = _request(host, port, "POST", "/evaluate",
                                        request)
            assert status == 200, f"evaluate indent={indent} -> {status}"
            assert plain == oracle[date, indent], \
                f"plain document differs from in-process evaluate + " \
                f"serialize at indent={indent}"
            status, streamed, frames = _stream_request(
                host, port, {**request, "stream": True})
            assert status == 200, f"stream indent={indent} -> {status}"
            assert streamed == plain, \
                f"streamed document differs at indent={indent}"
            assert frames <= len(streamed) / STREAM_FRAME_BYTES + 1, \
                f"{frames} chunk frames for {len(streamed)} bytes"
            print(f"- indent={indent}: plain {len(plain)} bytes identical "
                  f"to in-process evaluate + serialize; streamed identical "
                  f"to it, {frames} frame(s)")

        reply = _raw_post(host, port, {**payload, "indent": "x",
                                       "stream": True})
        assert reply.startswith(b"HTTP/1.1 400 "), reply[:64]
        assert reply.count(b"HTTP/1.1 ") == 1, \
            "a second response inside the first"
        print("- chunked request with a bad indent: one 400 response")

        delta, before, after = _burst_oracle(scale)
        changed = {key for key in before if before[key] != after[key]}
        assert changed, "the burst's delta changes no document"
        results = _burst_with_load(host, port, delta, min(clients, 4))
        for key, body, after_load, before_load in results:
            assert body in (before[key], after[key]), \
                f"burst {key}: a document neither before nor after the load"
            if after_load:
                assert body == after[key], f"burst {key}: stale after load"
            if before_load:
                assert body == before[key], f"burst {key}: write seen early"
        print(f"- delta load inside a burst of {len(results)} misses: every "
              f"body the document before or after the write "
              f"({sum(body != before[key] for key, body, _, _ in results)} "
              f"after, on {len(changed)} changed document(s))")
    finally:
        child.terminate()
        try:
            child.wait(timeout=15)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait(timeout=15)
    print("service smoke: OK")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="smoke-test `python -m repro serve` end to end")
    parser.add_argument("--scale", default="tiny",
                        help="hospital dataset scale (default tiny)")
    parser.add_argument("--clients", type=int, default=16,
                        help="concurrent clients in the wave "
                             "(default 16)")
    args = parser.parse_args(argv)
    try:
        run_smoke(args.scale, args.clients)
    except Exception as error:  # noqa: BLE001 - tool boundary
        print(f"service smoke: FAILED — {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

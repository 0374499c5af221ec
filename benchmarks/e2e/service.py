"""The ``service-mixed`` workload: ``repro serve`` as a child process, one
HTTP connection, a seeded script of writes, cache misses and cache hits.

One connection on purpose: with two, a hit lands inside or outside another
request's GIL-holding evaluation and its median does not repeat.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro import Middleware, serialize
from repro.datagen import make_loaded_sources
from repro.datagen.generator import DATES
from repro.hospital import build_hospital_aig

from measure import Calibrator
from workloads import (INDENT, Tally, close_sources, median_row, row,
                       whole_rounds)

SRC = Path(__file__).resolve().parents[2] / "src"
ADDRESS_RE = re.compile(r"listening on http://([0-9.]+):(\d+)")
TENANT = "hospital"
HITS_PER_CYCLE = 250
TICK = os.sysconf("SC_CLK_TCK")


class Server:
    """A ``python -m repro serve`` child, reachable only over TCP."""

    def __init__(self, scale: str):
        environment = dict(os.environ, PYTHONPATH=str(SRC))
        self.child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--scale", scale,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=environment)
        self.pid = self.child.pid
        try:
            self.host, self.port = self._read_address()
        except BaseException:
            self.stop()
            raise

    def _read_address(self):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.child.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro serve exited early (rc={self.child.poll()})")
            match = ADDRESS_RE.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("repro serve never printed its address")

    def cpu_seconds(self) -> float:
        """utime + stime of the child from ``/proc/<pid>/stat``."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / TICK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Terminate and wait, so no process outlives the benchmark."""
        if self.child.poll() is None:
            self.child.terminate()
            try:
                self.child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        self.child.stdout.close()


class Client:
    """Minimal HTTP/1.1 over one keep-alive socket.

    The generator shares two cores with the server, so it stays out of
    ``http.client`` (whose header parsing costs more per response than a
    cache hit costs the server)."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.sock = socket.create_connection((host, port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def encode(self, method: str, path: str, payload=None) -> bytes:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        return head.encode() + body

    def send(self, request: bytes):
        """One round trip: ``(status, headers, body, seconds)``."""
        started = time.perf_counter()
        self.sock.sendall(request)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed during the headers")
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(None, 2)[1])
        headers = {}
        for line in lines[1:]:
            key, _, value = line.partition(b":")
            headers[key.strip().lower().decode()] = value.strip().decode()
        length = int(headers.get("content-length", 0))
        parts, received = [rest], len(rest)
        while received < length:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            parts.append(chunk)
            received += len(chunk)
        return (status, headers, b"".join(parts),
                time.perf_counter() - started)

    def request(self, method: str, path: str, payload=None):
        return self.send(self.encode(method, path, payload))

    def close(self) -> None:
        self.sock.close()


def start_server(scale: str):
    """Spawn until ``/health`` answers: ``(server, client, seconds)``."""
    started = time.perf_counter()
    server = Server(scale)
    try:
        deadline = time.monotonic() + 60
        while True:
            try:
                client = Client(server.host, server.port)
                status, _, body, _ = client.request("GET", "/health")
                if status == 200 and json.loads(body)["status"] == "ok":
                    return server, client, time.perf_counter() - started
                client.close()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.02)
    except BaseException:
        server.stop()
        raise


def zipf_dates(rng: random.Random, count: int) -> list[str]:
    """``count`` dates, the k-th most popular drawn with weight 1/k."""
    ranked = DATES[:]
    rng.shuffle(ranked)
    weights = [1.0 / rank for rank in range(1, len(ranked) + 1)]
    return rng.choices(ranked, weights, k=count)


def reference_digests(scale: str) -> dict:
    """sha256 of in-process evaluate + serialize per date, on the data set
    ``repro serve --scale`` loads (``make_loaded_sources(scale)``)."""
    sources, _ = make_loaded_sources(scale)
    try:
        middleware = Middleware(build_hospital_aig(), sources,
                                unfold_depth="auto")
        return {date: hashlib.sha256(serialize(
            middleware.evaluate({"date": date}).document,
            indent=INDENT).encode("utf-8")).hexdigest() for date in DATES}
    finally:
        close_sources(sources)


class Script:
    """Cycles of 1 write, the 10 dates once (all misses) and Zipf reads
    (all hits), replayed over one connection; responses are classed by
    the ``X-Repro-Cache`` header."""

    def __init__(self, server: Server, client: Client, seed: int,
                 tally: Tally, calibrator: Calibrator):
        self.server, self.client, self.seed = server, client, seed
        self.tally, self.calibrator = tally, calibrator
        self.rng = random.Random(seed)
        self.evaluate = {date: client.encode("POST", "/evaluate", {
            "tenant": TENANT, "root": {"date": date}, "indent": INDENT})
            for date in DATES}
        self.bodies: dict = {}
        self.cycles = 0
        self.reset()

    def reset(self) -> None:
        """Forget the samples (not the bodies): what came before was
        warm-up."""
        self.miss, self.miss_raw, self.hit, self.write = [], [], [], []
        self.cpu_per_miss, self.mb_per_s, self.requests_per_s = [], [], []
        self.requests, self.busy = 0, 0.0

    def ask(self, date: str, scripted: str):
        """One ``/evaluate``, classed by what the server says it did:
        ``(class, seconds, body bytes)`` or ``None`` after a failure."""
        self.tally.attempted += 1
        status, headers, body, elapsed = self.client.send(self.evaluate[date])
        self.requests += 1
        if status != 200:
            self.tally.failures.append(f"/evaluate {date}: HTTP {status}")
            return None
        self.bodies.setdefault(date, set()).add(
            hashlib.sha256(body).hexdigest())
        served = headers.get("x-repro-cache")
        if not self.tally.check(served == scripted, f"/evaluate {date}: "
                                f"cache {served}, scripted {scripted}"):
            return None
        return served, elapsed, len(body)

    def cycle(self, hits: int) -> None:
        """1 write, the 10 dates once, ``hits`` Zipf reads.  The client
        calibrates between requests, while the server is idle."""
        self.cycles += 1
        scale_of, busy, requests_before = self.calibrator.scale, 0.0, \
            self.requests
        # a trId no treatment references: documents stay byte-identical
        # while the version vector moves and every cached response dies
        self.tally.attempted += 1
        status, _, _, elapsed = self.client.request(
            "POST", f"/tenants/{TENANT}/load",
            {"source": "DB3", "relation": "billing",
             "rows": [[f"ZZ{self.seed}-{self.cycles}",
                       str(self.rng.randrange(100, 950))]]})
        self.requests += 1
        if status == 200:
            self.write.append(elapsed * scale_of(elapsed))
            busy += self.write[-1]
        else:
            self.tally.failures.append(f"load: HTTP {status}")

        cpu_before, scales = self.server.cpu_seconds(), []
        for date in DATES:
            answer = self.ask(date, "miss")
            if answer is None:
                continue
            _, elapsed, size = answer
            scales.append(scale_of(elapsed))
            self.miss_raw.append(elapsed)
            self.miss.append(elapsed * scales[-1])
            self.mb_per_s.append(size / 1e6 / self.miss[-1])
            busy += self.miss[-1]
        if scales:
            self.cpu_per_miss.append(
                (self.server.cpu_seconds() - cpu_before) / len(DATES)
                * sum(scales) / len(scales))

        answers = [self.ask(date, "hit")
                   for date in zipf_dates(self.rng, hits)]
        block = [answer[1] for answer in answers if answer is not None]
        if block:
            scale = scale_of(sum(block))
            self.hit.extend(elapsed * scale for elapsed in block)
            busy += sum(block) * scale
        self.busy += busy
        if busy:
            self.requests_per_s.append(
                (self.requests - requests_before) / busy)

    def warm_up(self) -> None:
        """One untimed cycle of misses: the first evaluation of each date
        is cheaper than every later one."""
        self.cycle(0)
        self.reset()

    def run(self, seconds: float, hits: int) -> None:
        """As many whole cycles as fit into ``seconds``, at least one."""
        for _ in whole_rounds(seconds):
            self.cycle(hits)


def run_service(seed: int, seconds: float, smoke: bool = False,
                spawns: int = 3) -> dict:
    """The untraced ``service-mixed`` run; also returns what the per-layer
    pass derives its ``service.*`` rows from (``extra``)."""
    scale = "tiny" if smoke else "small"
    tally = Tally()
    calibrator = Calibrator()
    setup, setup_raw, cold, cold_raw = [], [], [], []
    server = client = None
    try:
        for _ in range(1 if smoke else spawns):
            if server is not None:
                client.close()
                server.stop()
                server = None
            tally.attempted += 1
            server, client, seconds_to_health = start_server(scale)
            setup_raw.append(seconds_to_health)
            setup.append(seconds_to_health
                         * calibrator.scale(seconds_to_health))
            tally.attempted += 1
            status, _, _, elapsed = client.request("POST", "/evaluate", {
                "tenant": TENANT, "root": {"date": DATES[0]},
                "indent": INDENT})
            if status == 200:
                cold_raw.append(elapsed)
                cold.append(elapsed * calibrator.scale(elapsed))
            else:
                tally.failures.append(f"first /evaluate: HTTP {status}")
        script = Script(server, client, seed, tally, calibrator)
        script.warm_up()
        _, _, before, _ = client.request("GET", "/metrics.json")
        script.run(seconds, 25 if smoke else HITS_PER_CYCLE)
        _, _, after, _ = client.request("GET", "/metrics.json")
        rss = server.peak_rss_mb()
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()

    expected = reference_digests(scale)
    for date in DATES:
        tally.check(script.bodies.get(date) == {expected[date]},
                    f"{date}: a response body differs from in-process "
                    f"evaluate + serialize")

    rows = {
        "setup_s": median_row(setup, setup_raw),
        "cold_first_doc_s": median_row(cold, cold_raw),
        "doc_latency_p50_s": median_row(script.miss, script.miss_raw),
        "doc_cpu_p50_s": median_row(script.cpu_per_miss),
        "doc_mb_per_s": median_row(script.mb_per_s),
        "requests_per_s": row(script.requests / script.busy
                              if script.busy else None,
                              script.requests_per_s),
        "peak_rss_mb": row(rss),
    }
    before, after = (json.loads(text)["counters"] for text in (before, after))
    counters = {key: after.get(key, 0) - before.get(key, 0)
                for key in ("service_requests", "service_cache_hits",
                            "service_evaluations",
                            "service_coalesced_requests")}
    extra = {"hit": script.hit, "write": script.write, "counters": counters}
    calibrator.close()
    return {"rows": rows, "attempted": tally.attempted,
            "failures": tally.failures, "extra": extra,
            "env": calibrator.stamp()}

"""Persistent run ledger: one append-only JSONL record per evaluation.

Spans and metrics are per-run and in-memory; the ledger is the durable
complement — every ``Middleware`` evaluation (materialized or streaming)
appends one self-contained JSON object describing what ran and what it
measured, so cost drift, cache behaviour, and latency are analyzable
*across* runs and process restarts.

Record schema (top-level keys, all sorted on disk):

* ``schema`` — record format version (:data:`SCHEMA_VERSION`);
* ``kind`` — ``"evaluate"`` or ``"stream"``;
* ``timestamp`` — Unix seconds at append time;
* ``plan_fingerprint`` — structural SHA-256 of the executed QDG
  (:func:`repro.runtime.incremental.plan_fingerprint`), identical across
  re-runs of the same plan — the join key for cross-run analysis;
* ``config`` — the middleware knobs that shaped the run (merging, unfold
  depth, violation mode, incremental, deadline, retries, shards); records
  written by older versions carry more keys, which readers ignore;
* ``plan`` — estimated cost, simulated response time, node count;
* ``run`` — measured wall seconds, queries executed, bytes shipped,
  cache reuse (reused/tainted node counts), document bytes, violation
  count, peak RSS in bytes when the platform reports it;
* ``nodes`` — per executed QDG node: structural fingerprint, source,
  kind, measured eval/overhead seconds, completion, output rows/bytes,
  and whether it was replayed from the incremental cache;
* ``metrics`` — this run's delta of the tracer's counters (and final
  gauges), e.g. retry/breaker/incremental activity — empty when
  tracing is off;
* ``constraints`` — violation verdicts (name, kind, count per finding).

Rotation is size-bounded: when appending would push the file past
``max_bytes``, the file shifts to ``<path>.1`` (existing backups shift
up, the oldest beyond ``backups`` is dropped) and a fresh file starts.
The reader is corruption-tolerant: a torn or truncated line (e.g. a
crash mid-append) is skipped with a warning, never fatal.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time

from repro.runtime.incremental import plan_fingerprint, structural_fingerprint

logger = logging.getLogger("repro.obs.ledger")

#: Bump when the record layout changes incompatibly.
SCHEMA_VERSION = 1

#: Default rotation threshold (bytes) and retained backup count.
DEFAULT_MAX_BYTES = 8 * 1024 * 1024
DEFAULT_BACKUPS = 3


class RunLedger:
    """Append-only JSONL ledger with size-bounded rotation."""

    def __init__(self, path: str,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 backups: int = DEFAULT_BACKUPS):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes!r}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups!r}")
        self.path = path
        self.max_bytes = max_bytes
        self.backups = backups
        # Serializes size-check → rotate → append across threads sharing
        # this instance; without it two writers can both decide to rotate
        # and the second os.replace chain drops the records the first
        # just wrote into the fresh file.
        self._lock = threading.Lock()

    # -- writing --------------------------------------------------------
    def append(self, record: dict) -> dict:
        """Serialize ``record`` (sorted keys) and append one line.

        Rotates first when the line would push the current file past
        ``max_bytes``.  Returns the record (with ``schema`` and
        ``timestamp`` filled in if absent).

        Thread-safe: the size-check/rotate/write sequence runs under an
        instance lock, and the line lands in a single ``os.write`` on an
        ``O_APPEND`` descriptor — so concurrent writers (including other
        processes appending to the same path) interleave whole records,
        never bytes.
        """
        record.setdefault("schema", SCHEMA_VERSION)
        record.setdefault("timestamp", round(time.time(), 3))
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            try:
                size = os.path.getsize(self.path)
            except OSError:
                size = 0
            if size and size + len(data) > self.max_bytes:
                self._rotate()
                size = 0
            if size:
                # Heal a torn previous append (crash mid-write left no
                # trailing newline): start this record on its own line so
                # only the torn record is lost, not this one too.
                with open(self.path, "rb") as handle:
                    handle.seek(-1, os.SEEK_END)
                    torn = handle.read(1) != b"\n"
                if torn:
                    data = b"\n" + data
            fd = os.open(self.path,
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, data)
            finally:
                os.close(fd)
        return record

    def _rotate(self) -> None:
        # Caller holds self._lock.
        if self.backups == 0:
            os.remove(self.path)
            return
        oldest = f"{self.path}.{self.backups}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.backups - 1, 0, -1):
            src = f"{self.path}.{index}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")

    # -- reading --------------------------------------------------------
    def files(self) -> list[str]:
        """All ledger files, oldest first (rotated backups then current)."""
        paths = [f"{self.path}.{index}"
                 for index in range(self.backups, 0, -1)]
        paths.append(self.path)
        return [path for path in paths if os.path.exists(path)]

    def records(self, include_rotated: bool = True) -> list[dict]:
        """Parsed records, oldest first; corrupt lines skipped."""
        out: list[dict] = []
        paths = self.files() if include_rotated else (
            [self.path] if os.path.exists(self.path) else [])
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                for number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        parsed = json.loads(line)
                    except ValueError:
                        logger.warning("ledger %s:%d: skipping corrupt "
                                       "line (%d bytes)", path, number,
                                       len(line))
                        continue
                    if isinstance(parsed, dict):
                        out.append(parsed)
        return out

    def __iter__(self):
        return iter(self.records())

    def __len__(self) -> int:
        return len(self.records())


# ----------------------------------------------------------------------
# record assembly
# ----------------------------------------------------------------------
def _peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, or None if unavailable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalize heuristically to bytes.
    return peak * 1024 if peak < 1 << 34 else peak


def metrics_delta(before: dict, after: dict) -> dict:
    """Per-run view of two metrics snapshots: counter deltas (non-zero
    only), final gauge values, and final histogram digests."""
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = round(delta, 6) if isinstance(delta, float) \
                else delta
    return {"counters": counters,
            "gauges": dict(after.get("gauges", {})),
            "histograms": dict(after.get("histograms", {}))}


def build_run_record(kind: str, graph, timings: dict, config: dict,
                     plan_info: dict, run_info: dict,
                     metrics: dict | None = None,
                     constraints: list | None = None) -> dict:
    """Assemble one ledger record from an evaluation's artifacts.

    ``graph`` is the executed (possibly merged) QDG; ``timings`` the
    engine's per-node :class:`~repro.runtime.engine.NodeTiming` map.
    ``config``/``plan_info``/``run_info`` are pre-built dicts (the
    middleware knows its own knobs); ``metrics`` is a
    :func:`metrics_delta` result.
    """
    nodes = []
    for name in sorted(timings):
        timing = timings[name]
        node = graph.nodes.get(name)
        entry = {
            "name": name,
            "source": timing.source,
            "kind": node.kind if node is not None else "?",
            "fingerprint": (structural_fingerprint(node)
                            if node is not None else None),
            "eval_seconds": round(timing.eval_seconds, 6),
            "overhead_seconds": round(timing.overhead_seconds, 6),
            "completion": round(timing.completion, 6),
            "output_rows": timing.output_rows,
            "output_bytes": timing.output_bytes,
            "cached": timing.cached,
        }
        nodes.append(entry)
    run_info = dict(run_info)
    run_info["peak_rss_bytes"] = _peak_rss_bytes()
    record = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "plan_fingerprint": plan_fingerprint(graph),
        "config": dict(config),
        "plan": dict(plan_info),
        "run": run_info,
        "nodes": nodes,
        "metrics": metrics if metrics is not None else
            {"counters": {}, "gauges": {}, "histograms": {}},
        "constraints": list(constraints or []),
    }
    return record

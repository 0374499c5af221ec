"""Small measurement helpers shared by the untraced and traced passes."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import signal
import sqlite3
import statistics
import sys
import time


def summarize(values) -> dict:
    """Median, quartiles and sample count of a list of numbers."""
    values = [float(v) for v in values]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (the definition repro.obs.Histogram uses)."""
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, round(fraction * len(ordered)) - 1))
    return ordered[index]


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_ratio(iterations: int = 2_000_000) -> float:
    """Wall / process_time of a pure-Python spin loop: 1.0 on an idle core,
    above it when the hypervisor or a neighbour takes the core away."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    total = 0
    for index in range(iterations):
        total += index
    cpu = time.process_time() - cpu0
    return (time.perf_counter() - wall0) / cpu if cpu else 1.0


def env_stamp() -> dict:
    """Where a result row was measured."""
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "steal_ratio": round(steal_ratio(), 4),
    }


def child_pids() -> list[int]:
    """Direct children of this process that have not been waited for."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while we were looking
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_child_processes() -> list[int]:
    """Leave no process behind: called on every path out of a run.

    A spawn pool (``Middleware(shards=N)`` in the traced pass) starts
    ``multiprocessing``'s resource tracker, which outlives
    ``shutdown_shard_pool()`` and ends only *after* its parent has exited;
    it is asked to stop here and waited for.  Whatever child is still there
    afterwards is killed and waited for.  Returns the pids that had to be
    killed (none on a clean run)."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe and waits for it to end
    killed = []
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return killed


class DigestWriter:
    """Stream consumer that hashes UTF-8 bytes and keeps nothing."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.bytes = 0

    def write(self, chunk: str) -> None:
        data = chunk.encode("utf-8")
        self._hash.update(data)
        self.bytes += len(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Calibrator:
    """Turns wall seconds into seconds at one reference machine speed.

    This box's speed drifts by tens of percent over seconds to minutes (a
    shared microVM; ``process_time`` drifts with it), so raw timings of the
    same code spread by up to 0.35 of their median from run to run.  A
    fixed chunk of interpreter + sqlite3 work that touches no code of the
    program is therefore run in short bursts between the timed operations,
    and every sample is multiplied by ``REFERENCE_S / (mean chunk time in
    the bursts just before and just after it)``.  A change to the program
    moves a sample and not the chunks, so regressions and gains read the
    same as in raw seconds; the box's drift moves both and cancels.
    Measured here: ten-run spreads fell from 0.17-0.35 to 0.04-0.09.
    """

    #: What one chunk takes on this box when it is fast: the unit anchor,
    #: so calibrated values read like seconds on the unloaded box.
    REFERENCE_S = 0.020
    #: Chunk time spent per second of timed operation.
    SHARE = 0.15
    CHUNK_ROWS = 12_000

    def __init__(self):
        self.connection = sqlite3.connect(":memory:")
        self.connection.execute("create table t (a integer, b text, c text)")
        self.chunks: list[float] = []
        self.last = self.burst(0.0)

    def chunk(self) -> float:
        """Tuples, strings, a dict of lists, a join and three SQL
        statements; the collector is off so the program's heap size cannot
        slow the chunk down."""
        connection = self.connection
        gc.disable()
        try:
            started = time.perf_counter()
            rows = [(i, f"v{i:06d}", str(i % 97))
                    for i in range(self.CHUNK_ROWS)]
            index: dict = {}
            for item in rows:
                index.setdefault(item[2], []).append(item)
            parts = []
            for key in sorted(index):
                for item in index[key]:
                    parts.append(f"<a>{item[1]}</a>")
            "".join(parts)
            connection.executemany("insert into t values (?,?,?)", rows)
            connection.execute("select c, count(*), max(b) from t "
                               "group by c order by c").fetchall()
            connection.execute("delete from t")
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        self.chunks.append(elapsed)
        return elapsed

    def burst(self, budget: float) -> list[float]:
        """At least two chunks, more until ``budget`` seconds are spent."""
        times = [self.chunk(), self.chunk()]
        while sum(times) < budget:
            times.append(self.chunk())
        return times

    def scale(self, elapsed: float) -> float:
        """The factor for an operation that just took ``elapsed`` seconds:
        runs its trailing burst and compares the chunks on both sides of
        the operation with the reference."""
        burst = self.burst(self.SHARE * elapsed)
        around = self.last + burst
        self.last = burst
        return self.REFERENCE_S * len(around) / sum(around)

    def stamp(self) -> dict:
        return {"calibration_chunk_s": statistics.median(self.chunks),
                "calibration_chunks": len(self.chunks)}

    def close(self) -> None:
        self.connection.close()

"""Cost feedback: measured per-node costs fed back into the cost model.

The Section 5.2 cost model estimates ``eval_cost(Q)`` and ``size(Q)``
from table statistics; :mod:`repro.obs.calibrate` shows how far those
estimates drift from what the engine measures.  This module closes the
loop: a :class:`CostFeedbackStore` remembers, per **structural node
fingerprint** (:func:`repro.runtime.incremental.structural_fingerprint`
— version- and value-independent, so the same plan node keys identically
across runs), an exponentially-weighted average of the measured rows,
bytes, and seconds.  A :class:`~repro.optimizer.cost.CostModel`
constructed with ``feedback=store`` replaces its model-derived estimate
with the measured one whenever the store has seen that exact node — so
the *second* compile of the same AIG plans with real numbers and the
calibrate q-error collapses toward 1.0.

The store is flag-gated through ``Middleware(cost_feedback=...)`` and
optionally persists as a JSON file (atomic replace, sorted keys), so
learned costs survive process restarts — the substrate the ROADMAP's
search-based plan optimization stands on.

Seconds are stored as the node's full clock contribution (measured
evaluation plus the applied deployment overhead), matching what the
``comp_time`` recursion consumes and what calibrate measures against.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading

from repro.runtime.incremental import structural_fingerprint

logger = logging.getLogger("repro.obs.feedback")

#: Default exponential-weighting factor: the newest measurement carries
#: this much weight (0.4 tracks drifting sources within a few runs while
#: smoothing one-off hiccups).
DEFAULT_ALPHA = 0.4


class CostFeedbackStore:
    """EWMA of measured per-node costs, keyed by structural fingerprint.

    ``generation`` increments on every absorbed run; the middleware keys
    its prepared-plan cache on it, so a plan is re-optimized exactly when
    new measurements arrived and never otherwise.
    """

    def __init__(self, path: str | None = None,
                 alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.path = path
        self.alpha = alpha
        self.generation = 0
        self._lock = threading.Lock()
        # fingerprint -> {"rows", "bytes", "seconds", "samples"}
        self._entries: dict[str, dict] = {}
        if path is not None and os.path.exists(path):
            self._load(path)

    # -- persistence ----------------------------------------------------
    def _load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            entries = payload.get("entries", {})
            if not isinstance(entries, dict):
                raise ValueError("entries must be an object")
        except (OSError, ValueError) as error:
            logger.warning("cost-feedback store %s unreadable (%s); "
                           "starting empty", path, error)
            return
        self._entries = {str(key): dict(value)
                         for key, value in entries.items()}

    def save(self, path: str | None = None) -> str:
        """Atomically write the store as sorted-key JSON; returns the path.

        The snapshot is deep-copied *under the lock* — a concurrent
        ``observe_run`` mutating an entry while ``json.dump`` walks it
        would otherwise tear the written values — and lands in a unique
        temp file in the destination directory, so two concurrent savers
        can never truncate each other's half-written file through a
        shared ``.tmp`` name; whichever ``os.replace`` runs last wins
        whole.
        """
        path = path or self.path
        if path is None:
            raise ValueError("no path given and store has none")
        with self._lock:
            payload = {"alpha": self.alpha,
                       "entries": {key: dict(entry)
                                   for key, entry in self._entries.items()}}
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp",
            dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # -- writers --------------------------------------------------------
    def observe(self, fingerprint: str, rows: float, bytes_: float,
                seconds: float) -> None:
        """Fold one measured (rows, bytes, seconds) into the EWMA."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self._entries[fingerprint] = {
                    "rows": float(rows), "bytes": float(bytes_),
                    "seconds": float(seconds), "samples": 1}
            else:
                a = self.alpha
                entry["rows"] += a * (rows - entry["rows"])
                entry["bytes"] += a * (bytes_ - entry["bytes"])
                entry["seconds"] += a * (seconds - entry["seconds"])
                entry["samples"] = entry.get("samples", 0) + 1

    def observe_run(self, graph, timings: dict) -> int:
        """Absorb one evaluation's measured node timings.

        ``timings`` maps executed node name ->
        :class:`~repro.runtime.engine.NodeTiming`.  Cache-replayed nodes
        (``timing.cached``) carry no new measurement and are skipped.
        Returns the number of nodes absorbed; bumps ``generation`` when
        any were.
        """
        absorbed = 0
        for name, timing in timings.items():
            node = graph.nodes.get(name)
            if node is None:
                continue
            if timing.cached:
                continue  # incremental cache replay: nothing measured
            self.observe(structural_fingerprint(node),
                         rows=timing.output_rows,
                         bytes_=timing.output_bytes,
                         seconds=(timing.eval_seconds
                                  + timing.overhead_seconds))
            absorbed += 1
        if absorbed:
            with self._lock:
                self.generation += 1
            if self.path is not None:
                self.save()
        return absorbed

    # -- readers --------------------------------------------------------
    def lookup(self, fingerprint: str) -> dict | None:
        """The EWMA entry for a fingerprint, or ``None`` if never seen."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            return dict(entry) if entry is not None else None

    def correction(self, node) -> dict | None:
        """Measured costs for a QDG node (the cost model's hook)."""
        return self.lookup(structural_fingerprint(node))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CostFeedbackStore(entries={len(self)}, "
                f"generation={self.generation}, path={self.path!r})")

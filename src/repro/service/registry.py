"""Per-tenant middleware registry for the evaluation service.

A *tenant* is one (AIG, sources, middleware-config) triple — e.g. the
hospital scenario at scale ``small`` with incremental re-evaluation on.
The registry keeps one :class:`~repro.runtime.Middleware` per tenant,
keyed by the **plan key**: the structural
:func:`~repro.runtime.incremental.aig_fingerprint` of the AIG joined
with a hash of the middleware knobs.  Re-registering a tenant with a
structurally identical AIG and the same config therefore reuses the
existing instance — prepared plans, incremental caches, pooled
connections, breaker state, and cost-feedback generations all stay warm
— while a changed grammar or config swaps in a fresh instance.

The plan key also feeds the request coalescer
(:mod:`repro.service.coalesce`): together with the root attributes and
the :func:`version_vector` of every base relation it identifies a
request whose bytes are fully determined, which is exactly when two
concurrent requests may share one evaluation.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time

from repro.errors import EvaluationError
from repro.runtime.incremental import aig_fingerprint
from repro.runtime.middleware import Middleware

#: Middleware knobs a tenant may set at registration; anything else in
#: the config payload is rejected so typos fail loudly, not silently.
ALLOWED_CONFIG = (
    "merging", "unfold_depth", "max_unfold_depth",
    "violation_mode", "incremental", "deadline", "retry_policy",
    "breaker_policy", "cost_feedback", "ledger",
)

#: Service default: incremental on (warm requests replay caches).
DEFAULT_CONFIG = {"incremental": True}


def config_key(config: dict) -> str:
    """Stable hash of a middleware config (JSON-canonical, sorted)."""
    encoded = json.dumps(
        {key: repr(value) for key, value in config.items()},
        sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def version_vector(sources: dict) -> tuple:
    """Sorted ``(source, relation, version)`` snapshot of every base
    relation — the data-identity half of a coalescing key.  Any load on
    any base table changes the vector, so a delta can never be served a
    pre-delta coalesced result."""
    vector = []
    for name in sorted(sources):
        for relation, version in sorted(
                sources[name].table_versions().items()):
            vector.append((name, relation, version))
    return tuple(vector)


class TenantState:
    """One registered tenant: its scenario, middleware, and identity."""

    def __init__(self, name: str, aig, sources: dict, config: dict,
                 fingerprint: str, plan_key: str):
        self.name = name
        self.aig = aig
        self.sources = sources
        self.config = dict(config)
        self.fingerprint = fingerprint
        self.plan_key = plan_key
        merged = dict(DEFAULT_CONFIG)
        merged.update(self.config)
        self.middleware = Middleware(aig, sources, **merged)
        # Registration is where a tenant's sources are first touched: the
        # plan is prepared here so the first request does not inherit the
        # statistics reads.
        self.middleware.prepare(self.middleware._initial_depth())

    def coalesce_key(self, root_inh: dict, indent: int | None) -> tuple:
        """Identity of one request's bytes: tenant + plan + inputs +
        data state.

        The tenant name leads the key: two tenants can share a plan key
        (identical AIG and config) and even a version vector (same load
        history) while holding different rows, so neither coalescing nor
        the response cache may ever bridge tenants."""
        return (self.name,
                self.plan_key,
                tuple(sorted((str(k), str(v))
                             for k, v in root_inh.items())),
                version_vector(self.sources),
                indent)

    def describe(self) -> dict:
        """JSON-safe summary for ``GET /tenants``."""
        middleware = self.middleware
        plan = middleware.last_plan
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "plan_key": self.plan_key,
            "sources": sorted(self.sources),
            "last_plan": None if plan is None else {
                "unfold_depth": plan.depth, "nodes": len(plan.graph),
                "predicted_cost": round(plan.cost, 6)},
            "prepare_count": middleware.prepare_count,
            "incremental": middleware.incremental,
            "breakers": (middleware.breakers.states()
                         if middleware.breakers is not None else {}),
        }


class TenantRegistry:
    """Thread-safe name -> :class:`TenantState` map with warm reuse.

    Optionally bounded (docs/SERVICE.md): ``max_tenants`` evicts the
    least-recently-used tenant on register overflow, ``idle_ttl`` sweeps
    tenants whose last access (register or get) is older than the TTL.
    Both sweeps run opportunistically on every register/get — no
    background thread — and report each eviction through ``on_evict``
    (called *outside* the registry lock, so the service layer can drop
    response-cache entries and bump counters without deadlocking).
    """

    def __init__(self, max_tenants: int | None = None,
                 idle_ttl: float | None = None,
                 on_evict=None):
        if max_tenants is not None and max_tenants < 1:
            raise EvaluationError(
                f"max_tenants must be a positive integer, "
                f"got {max_tenants!r}")
        if idle_ttl is not None and idle_ttl <= 0:
            raise EvaluationError(
                f"idle_ttl must be a positive number of seconds, "
                f"got {idle_ttl!r}")
        self.max_tenants = max_tenants
        self.idle_ttl = idle_ttl
        self.on_evict = on_evict
        self.evictions = 0
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantState] = {}
        #: name -> monotonic last-access stamp (register or get).
        self._last_access: dict[str, float] = {}

    def _sweep_locked(self, protect: str | None = None) -> list[str]:
        """Evict expired and over-limit tenants; returns evicted names.

        Must run under ``self._lock``.  ``protect`` (the name being
        registered or fetched) is never evicted by the LRU overflow
        pass — the caller is about to use it.
        """
        evicted: list[str] = []
        if self.idle_ttl is not None:
            deadline = time.monotonic() - self.idle_ttl
            for name, stamp in list(self._last_access.items()):
                if stamp < deadline and name != protect:
                    self._tenants.pop(name, None)
                    self._last_access.pop(name, None)
                    evicted.append(name)
        if self.max_tenants is not None:
            while len(self._tenants) > self.max_tenants:
                oldest = min(
                    (name for name in self._last_access
                     if name != protect),
                    key=self._last_access.__getitem__, default=None)
                if oldest is None:
                    break
                self._tenants.pop(oldest, None)
                self._last_access.pop(oldest, None)
                evicted.append(oldest)
        self.evictions += len(evicted)
        return evicted

    def _notify(self, evicted: list[str]) -> None:
        if self.on_evict is not None:
            for name in evicted:
                self.on_evict(name)

    def register(self, name: str, aig, sources: dict,
                 config: dict | None = None) -> TenantState:
        """Create (or warm-reuse) a tenant.

        When ``name`` is already registered with a structurally identical
        AIG and the same config — same plan key — the existing state is
        returned untouched: its prepared plans and caches stay warm.  A
        different plan key replaces the tenant with a fresh instance.
        """
        config = dict(config or {})
        unknown = sorted(set(config) - set(ALLOWED_CONFIG))
        if unknown:
            raise EvaluationError(
                f"unknown middleware config key(s): {', '.join(unknown)}")
        fingerprint = aig_fingerprint(aig)
        plan_key = f"{fingerprint[:16]}:{config_key(config)[:16]}"
        # The plan key needs no Middleware, so a warm re-register builds
        # nothing; a miss builds outside the lock and looks again.
        state = self._reuse(name, plan_key)
        if state is None:
            candidate = TenantState(name, aig, sources, config,
                                    fingerprint, plan_key)
            state = self._reuse(name, plan_key, candidate)
        return state

    def _reuse(self, name: str, plan_key: str,
               candidate: TenantState | None = None) -> TenantState | None:
        """The registered ``name`` if its plan key is ``plan_key``; else
        ``candidate`` takes its place (``None``: nothing to install)."""
        with self._lock:
            existing = self._tenants.get(name)
            if existing is not None and existing.plan_key == plan_key:
                state = existing
            elif candidate is None:
                return None
            else:
                state = self._tenants[name] = candidate
            self._last_access[name] = time.monotonic()
            evicted = self._sweep_locked(protect=name)
        self._notify(evicted)
        return state

    def get(self, name: str) -> TenantState:
        with self._lock:
            evicted = self._sweep_locked(protect=name)
            state = self._tenants.get(name)
            if state is not None:
                self._last_access[name] = time.monotonic()
        self._notify(evicted)
        if state is None:
            raise KeyError(name)
        return state

    def remove(self, name: str) -> bool:
        with self._lock:
            self._last_access.pop(name, None)
            return self._tenants.pop(name, None) is not None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def describe(self) -> list[dict]:
        with self._lock:
            states = list(self._tenants.values())
        return [state.describe() for state in
                sorted(states, key=lambda s: s.name)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tenants

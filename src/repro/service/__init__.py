"""Multi-tenant evaluation service (docs/SERVICE.md).

The paper's middleware evaluates one attribute integration grammar per
invocation; the ROADMAP north star is a long-lived service absorbing
heavy traffic.  This package is that service: a threaded HTTP front end
(``repro serve``) over the existing :class:`~repro.runtime.Middleware`,
keeping compiled plans, incremental result caches and source
connections warm across requests.

Layers, bottom-up:

* :mod:`repro.service.registry` — per-tenant state.  Each tenant owns an
  AIG + sources; ``Middleware`` instances are keyed by the structural
  :func:`~repro.runtime.incremental.aig_fingerprint` plus a config hash,
  so re-registering an unchanged scenario over the same sources reuses
  the warm instance (and its prepared plans) instead of rebuilding.
* :mod:`repro.service.admission` — per-tenant in-flight quotas and
  bounded queueing with fast 429-style rejection once the queue is full.
* :mod:`repro.service.coalesce` — single-flight request coalescing:
  identical warm requests (same plan key + root attributes + source
  version vector) share one evaluation; followers get the leader's
  bytes.
* :mod:`repro.service.server` — the HTTP surface: ``/evaluate``
  (materialized or chunked-streaming), tenant CRUD, delta ingestion,
  ``/health``, and ``/metrics`` (Prometheus text exposition of the
  service's :class:`~repro.obs.metrics.MetricsRegistry`).
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionRejected,
)
from repro.service.coalesce import RequestCoalescer
from repro.service.registry import TenantRegistry, TenantState
from repro.service.server import (
    EvaluationService,
    ServiceHTTPServer,
    make_server,
)

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "EvaluationService",
    "RequestCoalescer",
    "ServiceHTTPServer",
    "TenantRegistry",
    "TenantState",
    "make_server",
]

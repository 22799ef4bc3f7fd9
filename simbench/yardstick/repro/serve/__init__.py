"""Simulation-as-a-service: an async HTTP front-end on ``repro.orchestrate``.

The paper's evaluation methodology is a family of topology × routing ×
load campaigns; this package serves that methodology to many concurrent
clients instead of one CLI invocation at a time (ROADMAP:
"Simulation-as-a-service").  Stdlib only — ``asyncio`` plus hand-rolled
HTTP/1.1 over asyncio streams:

- :mod:`~repro.serve.models` — request validation against the ``Job``
  schema, per-request :class:`JobRecord` lifecycle, typed HTTP errors;
- :mod:`~repro.serve.http` — HTTP/1.1 parse/respond/stream primitives;
- :mod:`~repro.serve.router` — path-template routing (404 vs 405);
- :mod:`~repro.serve.tenants` — per-``X-Tenant`` quotas and usage;
- :mod:`~repro.serve.coalesce` — one in-flight execution per job
  content hash, shared by all identical concurrent requests;
- :mod:`~repro.serve.metrics` — counters and p50/p99 latency windows
  for ``GET /v1/stats``;
- :mod:`~repro.serve.queue` — the tenant-fair queue state machine with
  drain persistence;
- :mod:`~repro.serve.server` — the asyncio app: endpoints, worker
  pool with autoscaling, graceful SIGTERM drain, store GC.

Start one with ``python -m repro serve`` (see docs/USAGE.md, "Run the
toolkit as a service").
"""

from repro.serve.coalesce import Coalescer, Execution
from repro.serve.metrics import LatencyWindow, ServeMetrics
from repro.serve.models import (
    DEFAULT_TENANT,
    TENANT_HEADER,
    JobRecord,
    QuotaExceeded,
    ServeError,
    ValidationError,
    job_from_request,
    tenant_from_headers,
)
from repro.serve.queue import JobQueue
from repro.serve.router import MethodNotAllowed, NotFound, Router
from repro.serve.server import Autoscaler, ServeApp, parse_workers, serve
from repro.serve.tenants import TenantQuota, TenantRegistry, TenantState

__all__ = [
    "Coalescer",
    "Execution",
    "LatencyWindow",
    "ServeMetrics",
    "DEFAULT_TENANT",
    "TENANT_HEADER",
    "JobRecord",
    "QuotaExceeded",
    "ServeError",
    "ValidationError",
    "job_from_request",
    "tenant_from_headers",
    "JobQueue",
    "MethodNotAllowed",
    "NotFound",
    "Router",
    "Autoscaler",
    "ServeApp",
    "parse_workers",
    "serve",
    "TenantQuota",
    "TenantRegistry",
    "TenantState",
]

"""Wire-level models for the service front-end.

Everything the HTTP layer exchanges with clients is defined here as
plain data: the typed error that maps onto an HTTP status code, the
validation of request bodies against the existing
:class:`repro.orchestrate.Job` schema (the service adds *no* second job
schema — a body is valid iff it builds a ``Job``), and the
:class:`JobRecord` that tracks one accepted request through
``queued → running → done | failed``.

Records are deliberately decoupled from executions: N coalesced
requests are N records attached to one
:class:`~repro.serve.coalesce.Execution`.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.orchestrate.job import Job, sim_config_dict
from repro.sim.config import SimConfig

__all__ = [
    "ServeError",
    "ValidationError",
    "QuotaExceeded",
    "JobRecord",
    "QueuedState",
    "job_from_request",
    "tenant_from_headers",
    "DEFAULT_TENANT",
    "TENANT_HEADER",
    "is_content_hash",
]

#: Requests without an ``X-Tenant`` header share this bucket.
DEFAULT_TENANT = "public"

#: Header naming the quota bucket a request is accounted against.
TENANT_HEADER = "x-tenant"

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")
_HASH_RE = re.compile(r"^[0-9a-f]{64}$")

_VALID_KINDS = ("sweep", "exchange", "workload", "probe")


class ServeError(Exception):
    """An error with an HTTP status; the handler layer renders it as JSON."""

    status = 500

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        if status is not None:
            self.status = status


class ValidationError(ServeError):
    status = 400


class QuotaExceeded(ServeError):
    status = 429


def is_content_hash(text: str) -> bool:
    """True iff *text* is a well-formed content hash (guards path lookups)."""
    return bool(_HASH_RE.match(text))


def tenant_from_headers(headers: Dict[str, str]) -> str:
    """The quota bucket for a request; malformed names are rejected."""
    tenant = headers.get(TENANT_HEADER, DEFAULT_TENANT).strip() or DEFAULT_TENANT
    if not _TENANT_RE.match(tenant):
        raise ValidationError(
            f"invalid {TENANT_HEADER} value {tenant!r} "
            "(1-64 chars from [A-Za-z0-9._-])"
        )
    return tenant


# --------------------------------------------------------------------------
# Request body -> Job validation.
# --------------------------------------------------------------------------

#: Job field -> accepted JSON types.  bool is excluded from the numeric
#: fields explicitly (json booleans are ints in Python).
_FIELD_TYPES: Dict[str, tuple] = {
    "kind": (str,),
    "topology": (str,),
    "routing": (str,),
    "routing_kwargs": (dict,),
    "pattern": (str,),
    "pattern_kwargs": (dict,),
    "load": (int, float),
    "seed": (int,),
    "warmup_ns": (int, float),
    "measure_ns": (int, float),
    "arrival": (str,),
    "config": (dict,),
    "params": (dict,),
    "tag": (str,),
}


def job_from_request(body: Any) -> Job:
    """Validate one JSON job object against the ``Job`` schema.

    Raises :class:`ValidationError` (HTTP 400) with a message naming
    the first offending field; unknown fields are rejected rather than
    dropped so client typos fail loudly instead of silently changing
    the content hash.
    """
    if not isinstance(body, dict):
        raise ValidationError("job must be a JSON object")
    known = {f.name for f in dataclasses.fields(Job)}
    unknown = sorted(set(body) - known)
    if unknown:
        raise ValidationError(f"unknown job field(s): {', '.join(unknown)}")
    for name, value in body.items():
        types = _FIELD_TYPES[name]
        if isinstance(value, bool) and bool not in types:
            raise ValidationError(f"field {name!r} must be {types[0].__name__}")
        if not isinstance(value, types):
            raise ValidationError(
                f"field {name!r} must be {' or '.join(t.__name__ for t in types)}"
            )
    kind = body.get("kind", "sweep")
    if kind not in _VALID_KINDS:
        raise ValidationError(
            f"unknown job kind {kind!r} (expected one of {', '.join(_VALID_KINDS)})"
        )
    if kind != "probe" and not body.get("topology"):
        raise ValidationError(f"{kind} jobs require a non-empty 'topology' spec")
    body = dict(body)
    if "config" in body:
        # Build the SimConfig now so a bad field or value is a 400, not
        # a job that fails later on a worker; storing its full dict
        # makes a partial config hash like the defaults it implies.
        try:
            config = SimConfig(**body["config"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"invalid simulator config: {exc}") from None
        body["config"] = sim_config_dict(config)
    return Job.from_dict(body)


# --------------------------------------------------------------------------
# Per-request record.
# --------------------------------------------------------------------------


@dataclass
class JobRecord:
    """One accepted request's lifecycle, addressable at ``/v1/jobs/{id}``."""

    id: str
    tenant: str
    key: str  # job content hash
    status: str = "queued"  # "queued" | "running" | "done" | "failed"
    submitted: float = 0.0  # wall-clock timestamps (time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    cached: bool = False  # served straight from the ResultStore
    coalesced: bool = False  # attached to another request's execution
    execution_id: Optional[str] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None  # JobResult.to_dict()

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")

    def public(self, include_result: bool = True) -> Dict[str, Any]:
        """The JSON shape handed to clients."""
        out: Dict[str, Any] = {
            "id": self.id,
            "tenant": self.tenant,
            "hash": self.key,
            "status": self.status,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "href": f"/v1/jobs/{self.id}",
            "events": f"/v1/jobs/{self.id}/events",
        }
        if self.error is not None:
            out["error"] = self.error
        if include_result:
            out["result"] = self.result
        return out


@dataclass
class QueuedState:
    """Snapshot of one not-yet-started execution, for drain persistence."""

    job: Dict[str, Any]
    owner: str
    records: List[Dict[str, str]] = field(default_factory=list)

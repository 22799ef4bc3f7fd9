"""Per-tenant accounting: quotas and usage counters.

A *tenant* is whatever the ``X-Tenant`` request header says (missing
header → the shared ``public`` bucket).  Quotas bound the two resources
a tenant can hold: queued executions (admission control — breach is an
HTTP 429) and running executions (dispatch control — excess work stays
queued while other tenants proceed; see the round-robin pick in
:mod:`repro.serve.queue`).

Coalesced attachments deliberately cost nothing: a request that
piggybacks on an in-flight execution consumes no queue slot and no
worker, which is the whole economic point of coalescing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["TenantQuota", "TenantState", "TenantRegistry"]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant ceilings (uniform across tenants for now)."""

    max_queued: int = 16
    max_running: int = 4


@dataclass
class TenantState:
    """Live usage and lifetime counters for one tenant."""

    name: str
    queued: int = 0  # executions owned and waiting
    running: int = 0  # executions owned and executing
    submitted: int = 0  # records ever accepted (incl. cached/coalesced)
    done: int = 0
    failed: int = 0
    rejected: int = 0  # 429s
    cache_hits: int = 0
    coalesced: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "queued": self.queued,
            "running": self.running,
            "submitted": self.submitted,
            "done": self.done,
            "failed": self.failed,
            "rejected": self.rejected,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
        }


@dataclass
class TenantRegistry:
    """Lazy name → :class:`TenantState` map with a snapshot view."""

    quota: TenantQuota = field(default_factory=TenantQuota)
    _tenants: Dict[str, TenantState] = field(default_factory=dict)

    def get(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = self._tenants[name] = TenantState(name=name)
        return state

    def can_enqueue(self, name: str) -> bool:
        return self.get(name).queued < self.quota.max_queued

    def can_dispatch(self, name: str) -> bool:
        return self.get(name).running < self.quota.max_running

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {name: t.snapshot() for name, t in sorted(self._tenants.items())}

"""Request coalescing: one execution per distinct content hash.

The :class:`~repro.orchestrate.job.Job` content hash already defines
"the same computation" for the result cache; the coalescer extends that
identity to *in-flight* work.  While an execution for hash H is queued
or running, every new request for H attaches to it instead of spawning
a second execution, and all attached records resolve together from the
single result.  Combined with the store lookup at admission this gives
the full ladder: cache hit → coalesce → execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.orchestrate.job import Job

__all__ = ["Execution", "Coalescer"]


@dataclass
class Execution:
    """One scheduled run of a job, shared by all coalesced records."""

    id: str
    job: Job
    key: str  # job.content_hash(), precomputed
    owner: str  # tenant whose quota the execution occupies
    state: str = "queued"  # "queued" | "running"
    record_ids: List[str] = field(default_factory=list)
    enqueued_at: float = 0.0  # monotonic clock
    started_at: Optional[float] = None
    events_path: Optional[str] = None  # JSONL telemetry tail target


class Coalescer:
    """Map of in-flight executions keyed by job content hash."""

    def __init__(self):
        self._inflight: Dict[str, Execution] = {}

    def lookup(self, key: str) -> Optional[Execution]:
        return self._inflight.get(key)

    def register(self, execution: Execution) -> None:
        if execution.key in self._inflight:
            raise ValueError(f"execution for {execution.key[:10]} already in flight")
        self._inflight[execution.key] = execution

    def resolve(self, key: str) -> Optional[Execution]:
        """Remove and return the in-flight execution for *key*, if any."""
        return self._inflight.pop(key, None)

    def __len__(self) -> int:
        return len(self._inflight)

    def __contains__(self, key: str) -> bool:
        return key in self._inflight

"""Multi-tenant job queue: admission, fair dispatch, completion, drain.

This is the service's synchronous core — a plain state machine with no
asyncio in it, which is what makes it unit-testable without a running
server.  The event loop (``repro.serve.server``) is the only caller and
always touches it from one thread, so there is no locking here.

Admission ladder for one submitted job (after the store lookup, which
the server does because it owns the store):

1. an execution for the same content hash is queued or running →
   **coalesce**: attach a new record, consume no quota;
2. tenant already holds ``max_queued`` queued executions → **429**;
3. otherwise → new execution on the tenant's FIFO.

Dispatch is round-robin across tenants with queued work, skipping
tenants at their ``max_running`` ceiling — one greedy tenant can fill
its own lane but never starve the others.

Drain persistence: every still-queued execution (job spec plus its
attached record ids) serialises to JSON on shutdown and is re-enqueued
on restart with the same record ids, so clients can keep polling the
URLs they were given across a restart.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.orchestrate.job import Job, JobResult
from repro.serve.coalesce import Coalescer, Execution
from repro.serve.metrics import ServeMetrics
from repro.serve.models import JobRecord, QuotaExceeded
from repro.serve.tenants import TenantQuota, TenantRegistry

__all__ = ["JobQueue"]

PathLike = Union[str, pathlib.Path]

STATE_VERSION = 1


class JobQueue:
    """Tenant-fair, coalescing queue of :class:`Execution` objects."""

    def __init__(
        self,
        quota: Optional[TenantQuota] = None,
        metrics: Optional[ServeMetrics] = None,
        clock=time.monotonic,
        wallclock=time.time,
    ):
        self.tenants = TenantRegistry(quota=quota or TenantQuota())
        self.metrics = metrics or ServeMetrics()
        self.coalescer = Coalescer()
        self.records: Dict[str, JobRecord] = {}
        self.executions: Dict[str, Execution] = {}  # in-flight, by execution id
        self._queues: Dict[str, deque] = {}  # tenant → deque[Execution]
        self._rr: deque = deque()  # tenant round-robin order
        self._running: Dict[str, Execution] = {}
        self._clock = clock
        self._wallclock = wallclock
        self._record_seq = 0
        self._execution_seq = 0

    # -- identifiers -------------------------------------------------------

    def _next_record_id(self) -> str:
        self._record_seq += 1
        return f"r-{self._record_seq:06d}"

    def _next_execution_id(self, key: str) -> str:
        self._execution_seq += 1
        return f"x-{self._execution_seq:06d}-{key[:10]}"

    # -- admission ---------------------------------------------------------

    def _new_record(self, tenant: str, key: str) -> JobRecord:
        record = JobRecord(
            id=self._next_record_id(),
            tenant=tenant,
            key=key,
            submitted=self._wallclock(),
        )
        self.records[record.id] = record
        return record

    def record_cache_hit(self, job: Job, tenant: str, result: JobResult) -> JobRecord:
        """Admit a request satisfied straight from the result store."""
        record = self._new_record(tenant, job.content_hash())
        now = self._wallclock()
        record.status = "done"
        record.cached = True
        record.started = record.finished = now
        record.result = result.to_dict()
        state = self.tenants.get(tenant)
        state.submitted += 1
        state.cache_hits += 1
        state.done += 1
        self.metrics.submitted += 1
        self.metrics.cache_hits += 1
        return record

    def submit(self, job: Job, tenant: str) -> JobRecord:
        """Admit one job: coalesce onto in-flight work or enqueue it.

        Raises :class:`QuotaExceeded` (HTTP 429) when the tenant's
        queued-execution quota is exhausted and no coalesce applies.
        """
        key = job.content_hash()
        state = self.tenants.get(tenant)

        inflight = self.coalescer.lookup(key)
        if inflight is not None:
            record = self._new_record(tenant, key)
            record.coalesced = True
            record.execution_id = inflight.id
            record.status = inflight.state  # "queued" or "running"
            if inflight.state == "running":
                record.started = self._wallclock()
            inflight.record_ids.append(record.id)
            state.submitted += 1
            state.coalesced += 1
            self.metrics.submitted += 1
            self.metrics.coalesced += 1
            return record

        if not self.tenants.can_enqueue(tenant):
            state.rejected += 1
            self.metrics.rejected += 1
            raise QuotaExceeded(
                f"tenant {tenant!r} has {state.queued} queued job(s), "
                f"quota is {self.tenants.quota.max_queued}"
            )

        record = self._new_record(tenant, key)
        execution = Execution(
            id=self._next_execution_id(key),
            job=job,
            key=key,
            owner=tenant,
            record_ids=[record.id],
            enqueued_at=self._clock(),
        )
        record.execution_id = execution.id
        self.coalescer.register(execution)
        self.executions[execution.id] = execution
        self._enqueue(execution)
        state.submitted += 1
        state.queued += 1
        self.metrics.submitted += 1
        self.metrics.misses += 1
        return record

    def _enqueue(self, execution: Execution) -> None:
        queue = self._queues.get(execution.owner)
        if queue is None:
            queue = self._queues[execution.owner] = deque()
        if execution.owner not in self._rr:
            self._rr.append(execution.owner)
        queue.append(execution)

    # -- dispatch ----------------------------------------------------------

    def next_dispatch(self) -> Optional[Execution]:
        """Pop the next execution, fair round-robin across tenants.

        Tenants at their ``max_running`` ceiling keep their place in
        line but are skipped this round.  Returns None when nothing is
        dispatchable.  The returned execution is marked running and its
        records flipped to ``running``.
        """
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(tenant)
            if not queue:
                # Lazily drop tenants with no queued work from the ring.
                self._rr.remove(tenant)
                self._queues.pop(tenant, None)
                continue
            if not self.tenants.can_dispatch(tenant):
                continue
            execution = queue.popleft()
            self._mark_running(execution)
            return execution
        return None

    def _mark_running(self, execution: Execution) -> None:
        now_wall = self._wallclock()
        execution.state = "running"
        execution.started_at = self._clock()
        self._running[execution.id] = execution
        state = self.tenants.get(execution.owner)
        state.queued = max(0, state.queued - 1)
        state.running += 1
        self.metrics.wait.add(execution.started_at - execution.enqueued_at)
        for record_id in execution.record_ids:
            record = self.records[record_id]
            record.status = "running"
            record.started = now_wall

    def requeue(self, execution: Execution) -> None:
        """Return a dispatched-but-never-run execution to its queue.

        Happens in exactly one race: drain began between dispatch and
        the scheduler picking the job up.  The execution must persist
        with the queue state, so it goes back to ``queued``.
        """
        self._running.pop(execution.id, None)
        execution.state = "queued"
        execution.started_at = None
        state = self.tenants.get(execution.owner)
        state.running = max(0, state.running - 1)
        state.queued += 1
        for record_id in execution.record_ids:
            record = self.records[record_id]
            record.status = "queued"
            record.started = None
        self._enqueue(execution)

    # -- completion --------------------------------------------------------

    def complete(
        self,
        execution: Execution,
        result: Optional[JobResult],
        error: Optional[str] = None,
    ) -> List[JobRecord]:
        """Resolve an execution; every attached record gets the outcome."""
        ok = result is not None and error is None
        now_wall = self._wallclock()
        self._running.pop(execution.id, None)
        self.executions.pop(execution.id, None)
        self.coalescer.resolve(execution.key)
        owner = self.tenants.get(execution.owner)
        owner.running = max(0, owner.running - 1)
        if execution.started_at is not None:
            self.metrics.run.add(self._clock() - execution.started_at)
        if ok:
            self.metrics.completed += 1
        else:
            self.metrics.failed += 1

        resolved: List[JobRecord] = []
        result_dict = result.to_dict() if result is not None else None
        for record_id in execution.record_ids:
            record = self.records[record_id]
            record.finished = now_wall
            if record.started is None:
                record.started = now_wall
            if ok:
                record.status = "done"
                record.result = result_dict
                self.tenants.get(record.tenant).done += 1
            else:
                record.status = "failed"
                record.error = error or "execution failed"
                self.tenants.get(record.tenant).failed += 1
            resolved.append(record)
        return resolved

    # -- introspection -----------------------------------------------------

    def depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def running_count(self) -> int:
        return len(self._running)

    def queued_executions(self) -> Iterator[Execution]:
        for queue in self._queues.values():
            yield from queue

    def snapshot(self) -> Dict[str, Any]:
        return {
            "depth": self.depth(),
            "running": self.running_count(),
            "inflight_keys": len(self.coalescer),
            "records": len(self.records),
            "tenants": self.tenants.snapshot(),
        }

    # -- drain persistence -------------------------------------------------

    def save_state(self, path: PathLike) -> int:
        """Atomically persist every queued execution; returns the count.

        Running executions are *not* saved — drain lets them finish.
        With nothing queued any stale state file is removed so a
        restart cannot resurrect work that already ran.
        """
        path = pathlib.Path(path)
        entries = []
        for execution in self.queued_executions():
            entries.append(
                {
                    "job": execution.job.to_dict(),
                    "owner": execution.owner,
                    "records": [
                        {"id": rid, "tenant": self.records[rid].tenant,
                         "submitted": self.records[rid].submitted}
                        for rid in execution.record_ids
                    ],
                }
            )
        if not entries:
            try:
                path.unlink()
            except OSError:
                pass
            return 0
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": STATE_VERSION, "saved": self._wallclock(),
                   "entries": entries}
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(entries)

    def load_state(self, path: PathLike) -> int:
        """Re-enqueue executions saved by :meth:`save_state`.

        Record ids are preserved so clients polling ``/v1/jobs/{id}``
        across the restart keep working.  Returns the number of
        executions restored; a missing or unreadable file restores
        nothing (the service starts empty rather than refusing to
        start).
        """
        path = pathlib.Path(path)
        try:
            with path.open() as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return 0
        if payload.get("version") != STATE_VERSION:
            return 0
        restored = 0
        for entry in payload.get("entries", []):
            try:
                job = Job.from_dict(entry["job"])
                owner = str(entry["owner"])
                saved_records = entry["records"] or []
            except (KeyError, TypeError):
                continue
            key = job.content_hash()
            if key in self.coalescer:
                continue  # identical work already re-submitted
            execution = Execution(
                id=self._next_execution_id(key),
                job=job,
                key=key,
                owner=owner,
                enqueued_at=self._clock(),
            )
            for saved in saved_records:
                record_id = str(saved.get("id", "")) or self._next_record_id()
                record = JobRecord(
                    id=record_id,
                    tenant=str(saved.get("tenant", owner)),
                    key=key,
                    submitted=float(saved.get("submitted", self._wallclock())),
                    execution_id=execution.id,
                    coalesced=len(execution.record_ids) > 0,
                )
                self.records[record.id] = record
                execution.record_ids.append(record.id)
                self._bump_record_seq(record_id)
            if not execution.record_ids:
                continue
            self.coalescer.register(execution)
            self.executions[execution.id] = execution
            self._enqueue(execution)
            state = self.tenants.get(owner)
            state.queued += 1
            restored += 1
        return restored

    def _bump_record_seq(self, record_id: str) -> None:
        """Keep the id sequence ahead of restored ids to avoid collisions."""
        if record_id.startswith("r-"):
            try:
                self._record_seq = max(self._record_seq, int(record_id[2:]))
            except ValueError:
                pass

"""Job execution back-ends: in-process serial and multi-process pool.

The :class:`ProcessPoolScheduler` owns one dedicated task queue per
worker, so it always knows *which* job a worker held when it died — the
precondition for fault tolerance.  Failure handling is uniform across
the three failure modes:

- the job raised (worker survives, reports the exception),
- the worker crashed (process exits without reporting — detected by
  liveness polling, worker is respawned),
- the job timed out (worker is terminated and respawned).

Every failure consumes one attempt; a job is re-queued with exponential
backoff until ``max_retries`` extra attempts are exhausted, then marked
``failed``.  A failed job never aborts the campaign — graceful
degradation is the contract, the caller decides whether partial results
are acceptable.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import queue as queue_mod
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.orchestrate.job import Job, JobResult, run_job

__all__ = ["JobOutcome", "SerialScheduler", "ProcessPoolScheduler", "make_scheduler"]

#: ``on_event(type, **payload)`` callback signature used for telemetry.
EventFn = Callable[..., None]


@dataclass
class JobOutcome:
    """Terminal state of one job after scheduling (including retries)."""

    job_id: str
    status: str  # "done" | "failed"
    result: Optional[JobResult] = None
    attempts: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "done"


#: ``on_result(job_id, outcome)`` — invoked the moment a job reaches a
#: terminal state, so callers can checkpoint incrementally (an
#: interrupted campaign keeps every point finished before the
#: interrupt).
ResultFn = Callable[[str, JobOutcome], None]


def _noop_event(_type: str, **_payload) -> None:
    return None


class SerialScheduler:
    """Run jobs inline, in submission order, with the same retry contract.

    No crash isolation (a hard ``os._exit`` probe takes the caller with
    it) — use the process pool when jobs are untrusted; this back-end
    exists for ``--jobs 1``, debugging and deterministic tests.
    """

    def __init__(self, max_retries: int = 1, retry_backoff_s: float = 0.0):
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s

    def run(
        self,
        items: Sequence[Tuple[str, Job]],
        on_event: Optional[EventFn] = None,
        on_result: Optional[ResultFn] = None,
        stop_event: Optional[threading.Event] = None,
    ) -> Dict[str, JobOutcome]:
        emit = on_event or _noop_event
        outcomes: Dict[str, JobOutcome] = {}

        def record(outcome: JobOutcome) -> None:
            outcomes[outcome.job_id] = outcome
            if on_result is not None:
                on_result(outcome.job_id, outcome)

        for dispatched, (job_id, job) in enumerate(items):
            # Cooperative drain: stop *dispatching*; the job currently
            # executing (it runs inline here) already finished.  Jobs
            # never dispatched are absent from the outcome map, which is
            # how callers distinguish "not run" from "failed".
            if stop_event is not None and stop_event.is_set():
                emit("drain", remaining=len(items) - dispatched)
                break
            attempt = 0
            while True:
                attempt += 1
                emit("job_start", job_id=job_id, attempt=attempt, worker=0)
                try:
                    result = run_job(job)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    if attempt <= self.max_retries:
                        emit("job_retry", job_id=job_id, attempt=attempt, error=error)
                        if self.retry_backoff_s:
                            time.sleep(self.retry_backoff_s * (2 ** (attempt - 1)))
                        continue
                    record(JobOutcome(job_id, "failed", None, attempt, error))
                    emit("job_failed", job_id=job_id, attempts=attempt, error=error)
                    break
                record(JobOutcome(job_id, "done", result, attempt))
                emit(
                    "job_done",
                    job_id=job_id,
                    attempts=attempt,
                    events=result.events,
                    duration_s=result.duration_s,
                    worker_pid=result.worker_pid,
                )
                break
        return outcomes


# --------------------------------------------------------------------------
# Process pool.
# --------------------------------------------------------------------------


def _worker_main(worker_idx: int, task_q, result_q) -> None:
    """Worker loop: pull one job, run it, report, repeat until sentinel."""
    while True:
        item = task_q.get()
        if item is None:
            return
        job_id, job = item
        try:
            result = run_job(job)
        except Exception as exc:
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            result_q.put(("error", worker_idx, job_id, detail))
        else:
            result_q.put(("ok", worker_idx, job_id, result))


@dataclass
class _WorkerSlot:
    process: mp.process.BaseProcess
    task_q: object
    #: (job_id, job, attempt, start_monotonic) while busy, else None.
    busy: Optional[Tuple[str, Job, int, float]] = None
    restarts: int = 0


@dataclass
class _Pending:
    """Retry-aware work list: immediate deque + backoff-delayed heap."""

    ready: List[Tuple[str, Job, int]] = field(default_factory=list)
    delayed: List[Tuple[float, int, str, Job, int]] = field(default_factory=list)
    _tie: int = 0

    def push(self, job_id: str, job: Job, attempt: int, ready_at: float = 0.0) -> None:
        if ready_at <= time.monotonic():
            self.ready.append((job_id, job, attempt))
        else:
            self._tie += 1
            heapq.heappush(self.delayed, (ready_at, self._tie, job_id, job, attempt))

    def promote(self) -> None:
        now = time.monotonic()
        while self.delayed and self.delayed[0][0] <= now:
            _, _, job_id, job, attempt = heapq.heappop(self.delayed)
            self.ready.append((job_id, job, attempt))

    def pop(self) -> Optional[Tuple[str, Job, int]]:
        self.promote()
        return self.ready.pop(0) if self.ready else None

    def __bool__(self) -> bool:
        return bool(self.ready or self.delayed)

    def __len__(self) -> int:
        return len(self.ready) + len(self.delayed)


class ProcessPoolScheduler:
    """Fan jobs out over ``num_workers`` OS processes.

    Parameters
    ----------
    num_workers:
        Pool size (defaults to ``os.cpu_count()``, capped at 8).
    timeout_s:
        Per-job wall-clock budget; an over-budget worker is terminated
        and the job charged one attempt.  ``None`` disables.
    max_retries:
        Extra attempts after the first failure before a job is
        ``failed``.
    retry_backoff_s:
        Base of the exponential re-queue delay
        (``backoff * 2**(attempt-1)``).
    start_method:
        ``multiprocessing`` start method; ``None`` uses the platform
        default (``fork`` on Linux, cheapest for our read-only jobs).
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        timeout_s: Optional[float] = None,
        max_retries: int = 1,
        retry_backoff_s: float = 0.05,
        start_method: Optional[str] = None,
    ):
        if num_workers is None:
            num_workers = min(mp.cpu_count() or 1, 8)
        if num_workers < 1:
            raise ValueError(f"num_workers={num_workers} must be >= 1")
        self.num_workers = num_workers
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self._ctx = mp.get_context(start_method)

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self, worker_idx: int, result_q) -> _WorkerSlot:
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_idx, task_q, result_q),
            daemon=True,
            name=f"repro-orch-{worker_idx}",
        )
        proc.start()
        return _WorkerSlot(process=proc, task_q=task_q)

    @staticmethod
    def _stop_slot(slot: _WorkerSlot, terminate: bool) -> None:
        if terminate:
            slot.process.terminate()
        else:
            try:
                slot.task_q.put(None)
            except (OSError, ValueError):
                slot.process.terminate()
        slot.process.join(timeout=2.0)
        if slot.process.is_alive():
            slot.process.kill()
            slot.process.join(timeout=2.0)
        # Release the queue's feeder thread/fds promptly.
        try:
            slot.task_q.close()
            slot.task_q.join_thread()
        except (OSError, ValueError, AttributeError):
            pass

    # -- main loop ---------------------------------------------------------

    def run(
        self,
        items: Sequence[Tuple[str, Job]],
        on_event: Optional[EventFn] = None,
        on_result: Optional[ResultFn] = None,
        stop_event: Optional[threading.Event] = None,
    ) -> Dict[str, JobOutcome]:
        emit = on_event or _noop_event
        outcomes: Dict[str, JobOutcome] = {}
        if not items:
            return outcomes

        def stopped() -> bool:
            return stop_event is not None and stop_event.is_set()

        def record(outcome: JobOutcome) -> None:
            outcomes[outcome.job_id] = outcome
            if on_result is not None:
                on_result(outcome.job_id, outcome)

        pending = _Pending()
        for job_id, job in items:
            pending.push(job_id, job, 0)

        result_q = self._ctx.Queue()
        pool_size = min(self.num_workers, len(items))
        slots: Dict[int, _WorkerSlot] = {
            i: self._spawn(i, result_q) for i in range(pool_size)
        }

        def fail_or_retry(job_id: str, job: Job, attempt: int, error: str) -> None:
            if attempt <= self.max_retries:
                delay = self.retry_backoff_s * (2 ** (attempt - 1))
                emit("job_retry", job_id=job_id, attempt=attempt, error=error)
                pending.push(job_id, job, attempt, ready_at=time.monotonic() + delay)
            else:
                record(JobOutcome(job_id, "failed", None, attempt, error))
                emit("job_failed", job_id=job_id, attempts=attempt, error=error)

        drained = False
        try:
            while pending or any(s.busy for s in slots.values()):
                # Cooperative drain: stop dispatching, let in-flight
                # workers finish, leave undispatched jobs unrecorded
                # (callers re-queue them; see ``repro.serve``).
                if stopped() and not any(s.busy for s in slots.values()):
                    if not drained:
                        drained = True
                        emit("drain", remaining=len(pending))
                    break
                # Dispatch to idle workers.
                for idx, slot in slots.items():
                    if stopped():
                        if not drained:
                            drained = True
                            emit("drain", remaining=len(pending))
                        break
                    if slot.busy is not None:
                        continue
                    item = pending.pop()
                    if item is None:
                        break
                    job_id, job, attempt = item
                    slot.busy = (job_id, job, attempt + 1, time.monotonic())
                    slot.task_q.put((job_id, job))
                    emit("job_start", job_id=job_id, attempt=attempt + 1, worker=idx)

                # Collect one result (or time out and run the health checks).
                try:
                    kind, idx, job_id, payload = result_q.get(timeout=0.05)
                except queue_mod.Empty:
                    kind = None
                if kind is not None:
                    slot = slots[idx]
                    if slot.busy is not None:
                        _, job, attempt, _ = slot.busy
                    else:  # late message from a worker already written off
                        job, attempt = self._job_of(items, job_id), 1
                    slot.busy = None
                    if kind == "ok":
                        result: JobResult = payload
                        record(JobOutcome(job_id, "done", result, attempt))
                        emit(
                            "job_done",
                            job_id=job_id,
                            attempts=attempt,
                            events=result.events,
                            duration_s=result.duration_s,
                            worker_pid=result.worker_pid,
                        )
                    else:
                        fail_or_retry(job_id, job, attempt, str(payload))
                    continue

                # Health checks: crashes and timeouts.
                now = time.monotonic()
                for idx, slot in list(slots.items()):
                    if slot.busy is None:
                        if not slot.process.is_alive():
                            # Idle worker died (e.g. interpreter issue): respawn.
                            slots[idx] = self._spawn(idx, result_q)
                            slots[idx].restarts = slot.restarts + 1
                        continue
                    job_id, job, attempt, started = slot.busy
                    if not slot.process.is_alive():
                        # Crashed mid-job; drain any result it managed to send.
                        if self._drain_for(result_q, record, slots, emit):
                            continue
                        code = slot.process.exitcode
                        self._stop_slot(slot, terminate=True)
                        replacement = self._spawn(idx, result_q)
                        replacement.restarts = slot.restarts + 1
                        slots[idx] = replacement
                        emit("worker_crash", worker=idx, job_id=job_id, exitcode=code)
                        fail_or_retry(
                            job_id, job, attempt, f"worker crashed (exitcode {code})"
                        )
                    elif self.timeout_s is not None and now - started > self.timeout_s:
                        self._stop_slot(slot, terminate=True)
                        replacement = self._spawn(idx, result_q)
                        replacement.restarts = slot.restarts + 1
                        slots[idx] = replacement
                        emit("job_timeout", worker=idx, job_id=job_id,
                             timeout_s=self.timeout_s)
                        fail_or_retry(
                            job_id, job, attempt,
                            f"timed out after {self.timeout_s:g}s",
                        )
        finally:
            for slot in slots.values():
                self._stop_slot(slot, terminate=slot.busy is not None)
            try:
                result_q.close()
                result_q.join_thread()
            except (OSError, ValueError, AttributeError):
                pass
        return outcomes

    @staticmethod
    def _job_of(items: Sequence[Tuple[str, Job]], job_id: str) -> Job:
        for jid, job in items:
            if jid == job_id:
                return job
        raise KeyError(job_id)

    @staticmethod
    def _drain_for(result_q, record, slots, emit) -> bool:
        """Consume a late result that raced with crash detection."""
        try:
            kind, idx, job_id, payload = result_q.get_nowait()
        except queue_mod.Empty:
            return False
        slot = slots[idx]
        attempt = slot.busy[2] if slot.busy else 1
        slot.busy = None
        if kind == "ok":
            record(JobOutcome(job_id, "done", payload, attempt))
            emit("job_done", job_id=job_id, attempts=attempt,
                 events=payload.events, duration_s=payload.duration_s,
                 worker_pid=payload.worker_pid)
        else:
            record(JobOutcome(job_id, "failed", None, attempt, str(payload)))
            emit("job_failed", job_id=job_id, attempts=attempt, error=str(payload))
        return True


def make_scheduler(
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    max_retries: int = 1,
    retry_backoff_s: float = 0.05,
    start_method: Optional[str] = None,
):
    """``jobs == 1`` -> :class:`SerialScheduler`, else a process pool."""
    if jobs <= 1:
        return SerialScheduler(max_retries=max_retries, retry_backoff_s=retry_backoff_s)
    return ProcessPoolScheduler(
        num_workers=jobs,
        timeout_s=timeout_s,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
        start_method=start_method,
    )

"""The asyncio service: endpoints, worker pool, autoscaling, drain.

One event loop owns all queue state; simulations execute in a thread
pool where each worker thread runs one execution at a time through the
existing orchestrate scheduler (by default a one-worker
:class:`~repro.orchestrate.scheduler.ProcessPoolScheduler`, so job
crashes stay isolated in a child process and the retry/timeout contract
carries over unchanged).  Telemetry for each execution goes to its own
JSONL file under the spool directory, which is what the ``/events``
endpoint tails.

Endpoints::

    POST /v1/jobs            submit one job object or a list (campaign)
    GET  /v1/jobs/{id}       record status + result
    GET  /v1/jobs/{id}/events  NDJSON live progress stream
    GET  /v1/results/{hash}  raw ResultStore entry by content hash
    GET  /v1/stats           queue/worker/tenant/latency metrics
    GET  /v1/healthz         liveness + drain state

SIGTERM/SIGINT start a graceful drain: submissions get 503, running
executions finish, the still-queued remainder is persisted and restored
on the next start.  A second signal forces immediate shutdown.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import os
import pathlib
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, AsyncIterator, Callable, Dict, List, Optional, Tuple, Union

from repro.orchestrate.job import Job, JobResult
from repro.orchestrate.scheduler import ProcessPoolScheduler, SerialScheduler
from repro.orchestrate.store import ResultStore
from repro.orchestrate.telemetry import Telemetry
from repro.serve.http import (
    HttpRequest,
    HttpResponse,
    LengthRequired,
    PayloadTooLarge,
    ProtocolError,
    StreamingResponse,
    error_response,
    json_response,
    read_request,
    write_response,
    write_streaming,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.models import (
    QuotaExceeded,
    ServeError,
    ValidationError,
    is_content_hash,
    job_from_request,
    tenant_from_headers,
)
from repro.serve.queue import JobQueue
from repro.serve.router import MethodNotAllowed, Router
from repro.serve.tenants import TenantQuota

__all__ = ["Autoscaler", "ServeApp", "serve", "parse_workers"]

PathLike = Union[str, pathlib.Path]


class Autoscaler:
    """Queue-depth driven worker-count decisions, with hysteresis.

    Scale *up* one worker after ``up_after`` consecutive observations
    of queued work with every current worker busy; scale *down* one
    after ``down_after`` consecutive observations of an empty queue
    with idle capacity.  Any mixed observation resets both streaks, so
    the pool never oscillates on a bursty queue.
    """

    def __init__(
        self,
        min_workers: int,
        max_workers: int,
        up_after: int = 2,
        down_after: int = 8,
    ):
        if not 1 <= min_workers <= max_workers:
            raise ValueError(
                f"need 1 <= min ({min_workers}) <= max ({max_workers})"
            )
        self.min = min_workers
        self.max = max_workers
        self.current = min_workers
        self.up_after = up_after
        self.down_after = down_after
        self._hi = 0
        self._lo = 0

    def observe(self, queued: int, running: int) -> int:
        """Feed one (queue depth, busy workers) sample; returns the target."""
        if queued > 0 and running >= self.current:
            self._hi += 1
            self._lo = 0
        elif queued == 0 and running < self.current:
            self._lo += 1
            self._hi = 0
        else:
            self._hi = self._lo = 0
        if self._hi >= self.up_after and self.current < self.max:
            self.current += 1
            self._hi = 0
        elif self._lo >= self.down_after and self.current > self.min:
            self.current -= 1
            self._lo = 0
        return self.current

    def snapshot(self) -> Dict[str, int]:
        return {"current": self.current, "min": self.min, "max": self.max}


def parse_workers(spec: str) -> Tuple[int, int]:
    """``--workers`` grammar: ``auto`` | ``N`` (fixed) | ``MIN:MAX``."""
    spec = str(spec).strip().lower()
    if spec == "auto":
        return 1, min(os.cpu_count() or 1, 8)
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        return int(lo), int(hi)
    fixed = int(spec)
    return fixed, fixed


def default_scheduler_factory(
    inline: bool = False,
    timeout_s: Optional[float] = None,
    max_retries: int = 1,
) -> Callable[[], object]:
    """Scheduler each execution runs through.

    ``inline=False`` (default): a one-worker process pool per execution
    — crash isolation and per-job timeout, true parallelism across the
    service's worker threads.  ``inline=True``: the serial in-process
    scheduler, for tests and environments where forking is unwanted.
    """
    if inline:
        return lambda: SerialScheduler(max_retries=max_retries)
    return lambda: ProcessPoolScheduler(
        num_workers=1, timeout_s=timeout_s, max_retries=max_retries
    )


class ServeApp:
    """All service state; owned and mutated by one event loop thread."""

    def __init__(
        self,
        store: ResultStore,
        spool_dir: PathLike,
        quota: Optional[TenantQuota] = None,
        min_workers: int = 1,
        max_workers: int = 2,
        scheduler_factory: Optional[Callable[[], object]] = None,
        autoscale_interval_s: float = 0.25,
        store_gc_age_s: Optional[float] = None,
        store_gc_interval_s: float = 60.0,
        tail_interval_s: float = 0.05,
        flush_every: int = 1,
    ):
        self.store = store
        self.spool = pathlib.Path(spool_dir)
        self.events_dir = self.spool / "events"
        self.state_path = self.spool / "queue_state.json"
        self.metrics = ServeMetrics()
        self.queue = JobQueue(quota=quota, metrics=self.metrics)
        self.autoscaler = Autoscaler(min_workers, max_workers)
        self._scheduler_factory = scheduler_factory or default_scheduler_factory()
        self._autoscale_interval_s = autoscale_interval_s
        self._store_gc_age_s = store_gc_age_s
        self._store_gc_interval_s = store_gc_interval_s
        self._tail_interval_s = tail_interval_s
        self._flush_every = flush_every

        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._drain_event = threading.Event()  # handed to scheduler runs
        self._draining = False
        self._restored = 0
        self.saved_on_drain = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._tasks: List[asyncio.Task] = []

        self.router = Router()
        self.router.add("POST", "/v1/jobs", self.handle_submit)
        self.router.add("GET", "/v1/jobs/{id}", self.handle_job)
        self.router.add("GET", "/v1/jobs/{id}/events", self.handle_events)
        self.router.add("GET", "/v1/results/{hash}", self.handle_result)
        self.router.add("GET", "/v1/stats", self.handle_stats)
        self.router.add("GET", "/v1/healthz", self.handle_health)

    # -- lifecycle ---------------------------------------------------------

    async def run(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        ready: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Serve until drained; installs SIGTERM/SIGINT handlers if it can."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self.spool.mkdir(parents=True, exist_ok=True)
        self.events_dir.mkdir(parents=True, exist_ok=True)

        self._restored = self.queue.load_state(self.state_path)
        if self._restored:
            try:
                self.state_path.unlink()
            except OSError:
                pass

        server = await asyncio.start_server(self._connection, host, port)
        bound_port = server.sockets[0].getsockname()[1]

        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            # Only possible on the main thread of the main interpreter;
            # in-process test servers skip signal wiring and call
            # begin_drain() directly.
            self._loop.add_signal_handler(signal.SIGTERM, self.begin_drain)
            self._loop.add_signal_handler(signal.SIGINT, self.begin_drain)

        self._tasks.append(self._loop.create_task(self._autoscale_loop()))
        if self._store_gc_age_s is not None:
            self._tasks.append(self._loop.create_task(self._store_gc_loop()))

        if ready is not None:
            ready(host, bound_port)
        self._dispatch()

        try:
            async with server:
                await self._shutdown.wait()
        finally:
            for task in self._tasks:
                task.cancel()
            for task in self._tasks:
                with contextlib.suppress(asyncio.CancelledError):
                    await task
            self._tasks.clear()
            self._executor.shutdown(wait=True)
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                self._loop.remove_signal_handler(signal.SIGTERM)
                self._loop.remove_signal_handler(signal.SIGINT)

    def begin_drain(self) -> None:
        """First call: graceful drain.  Second call: stop immediately."""
        if self._draining:
            if self._shutdown is not None:
                self.queue.save_state(self.state_path)
                self._shutdown.set()
            return
        self._draining = True
        self._drain_event.set()
        self._maybe_finish_drain()

    def _maybe_finish_drain(self) -> None:
        if not self._draining or self._shutdown is None:
            return
        if self.queue.running_count() == 0:
            self.saved_on_drain = self.queue.save_state(self.state_path)
            self._shutdown.set()

    # -- dispatch / execution ---------------------------------------------

    def _dispatch(self) -> None:
        """Launch queued executions up to the autoscaler's target."""
        if self._draining:
            return
        while self.queue.running_count() < self.autoscaler.current:
            execution = self.queue.next_dispatch()
            if execution is None:
                return
            execution.events_path = str(self._events_path(execution.id))
            future = self._loop.run_in_executor(
                self._executor, self._execute, execution
            )
            future.add_done_callback(functools.partial(self._finish, execution))

    def _events_path(self, execution_id: str) -> pathlib.Path:
        return self.events_dir / f"{execution_id}.jsonl"

    def _execute(self, execution):
        """Worker thread: run one job through a fresh scheduler."""
        tele = Telemetry(
            jsonl_path=execution.events_path,
            live=False,
            flush_every=self._flush_every,
        )
        try:
            tele.emit(
                "execution_start",
                execution=execution.id,
                job_hash=execution.key,
                tenant=execution.owner,
                kind=execution.job.kind,
            )
            scheduler = self._scheduler_factory()
            outcomes = scheduler.run(
                [(execution.id, execution.job)],
                on_event=tele.emit,
                stop_event=self._drain_event,
            )
        finally:
            tele.close()
        return outcomes.get(execution.id)

    def _finish(self, execution, future) -> None:
        """Loop-thread completion callback for one execution."""
        error: Optional[str] = None
        outcome = None
        try:
            outcome = future.result()
        except Exception as exc:  # executor infrastructure failure
            error = f"{type(exc).__name__}: {exc}"

        if outcome is None and error is None and self._draining:
            # Drain won the race before the scheduler dispatched the
            # job: put it back so it persists with the queue state.
            self.queue.requeue(execution)
        else:
            if outcome is not None and outcome.ok:
                result: JobResult = outcome.result
                try:
                    self.store.put(execution.job, result)
                except OSError:
                    pass  # cache write failure must not fail the job
                self.queue.complete(execution, result)
            else:
                detail = error or (
                    outcome.error if outcome is not None else "job was not executed"
                )
                self.queue.complete(execution, None, error=detail)
        self._dispatch()
        self._maybe_finish_drain()

    # -- background tasks --------------------------------------------------

    async def _autoscale_loop(self) -> None:
        while True:
            await asyncio.sleep(self._autoscale_interval_s)
            before = self.autoscaler.current
            target = self.autoscaler.observe(
                self.queue.depth(), self.queue.running_count()
            )
            if target > before:
                self._dispatch()

    async def _store_gc_loop(self) -> None:
        while True:
            await asyncio.sleep(self._store_gc_interval_s)
            await self._loop.run_in_executor(
                None, self.store.prune, self._store_gc_age_s
            )

    # -- connection handling -----------------------------------------------

    async def _connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except LengthRequired as exc:
                    await write_response(writer, error_response(411, str(exc)), False)
                    break
                except PayloadTooLarge as exc:
                    await write_response(writer, error_response(413, str(exc)), False)
                    break
                except ProtocolError as exc:
                    await write_response(writer, error_response(400, str(exc)), False)
                    break
                if request is None:
                    break
                self.metrics.requests += 1
                response = await self._handle(request)
                if isinstance(response, StreamingResponse):
                    await write_streaming(writer, response)
                    break  # stream responses close the connection
                await write_response(writer, response, request.keep_alive)
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle(self, request: HttpRequest):
        try:
            handler, params = self.router.match(request.method, request.path)
            return await handler(request, params)
        except MethodNotAllowed as exc:
            self.metrics.http_errors += 1
            response = error_response(exc.status, str(exc))
            response.headers["Allow"] = ", ".join(exc.allowed)
            return response
        except ServeError as exc:
            self.metrics.http_errors += 1
            return error_response(exc.status, str(exc))
        except Exception as exc:  # never leak a traceback as a hung socket
            self.metrics.http_errors += 1
            return error_response(500, f"{type(exc).__name__}: {exc}")

    # -- endpoints ---------------------------------------------------------

    async def handle_submit(self, request: HttpRequest, params) -> HttpResponse:
        if self._draining:
            raise ServeError("service is draining; not accepting jobs", 503)
        tenant = tenant_from_headers(request.headers)
        body = request.json()
        if isinstance(body, dict) and set(body) == {"jobs"}:
            body = body["jobs"]
        if isinstance(body, list):
            if not body:
                raise ValidationError("empty job list")
            jobs = [job_from_request(item) for item in body]
            items: List[Dict[str, Any]] = []
            accepted = 0
            for job in jobs:
                try:
                    record = self._admit(job, tenant)
                except QuotaExceeded as exc:
                    self.metrics.http_errors += 1
                    items.append(
                        {"status": "rejected", "code": 429, "error": str(exc)}
                    )
                else:
                    accepted += 1
                    items.append(record.public(include_result=False))
            self._dispatch()
            return json_response(
                {"jobs": items, "accepted": accepted, "rejected": len(items) - accepted}
            )
        job = job_from_request(body)
        record = self._admit(job, tenant)
        self._dispatch()
        status = 200 if record.terminal else 202
        return json_response(record.public(), status=status)

    def _admit(self, job: Job, tenant: str):
        """One job through the admission ladder: cache → coalesce → queue."""
        cached = self.store.get(job)
        if cached is not None:
            return self.queue.record_cache_hit(job, tenant, cached)
        return self.queue.submit(job, tenant)

    async def handle_job(self, request: HttpRequest, params) -> HttpResponse:
        record = self.queue.records.get(params["id"])
        if record is None:
            raise ServeError(f"no such job: {params['id']}", 404)
        include_result = request.query.get("result", "1") not in ("0", "false")
        return json_response(record.public(include_result=include_result))

    async def handle_events(self, request: HttpRequest, params) -> StreamingResponse:
        record_id = params["id"]
        if record_id not in self.queue.records:
            raise ServeError(f"no such job: {record_id}", 404)
        return StreamingResponse(lines=self._event_lines(record_id))

    async def handle_result(self, request: HttpRequest, params) -> HttpResponse:
        key = params["hash"]
        if not is_content_hash(key):
            raise ValidationError("malformed content hash")
        entry = await self._loop.run_in_executor(None, self.store.read_entry, key)
        if entry is None:
            raise ServeError(f"no cached result for {key[:10]}…", 404)
        return json_response(entry)

    async def handle_stats(self, request: HttpRequest, params) -> HttpResponse:
        return json_response(self.stats())

    async def handle_health(self, request: HttpRequest, params) -> HttpResponse:
        return json_response(
            {"status": "draining" if self._draining else "ok"}
        )

    def stats(self) -> Dict[str, Any]:
        return {
            "queue": self.queue.snapshot(),
            "workers": dict(
                self.autoscaler.snapshot(), busy=self.queue.running_count()
            ),
            "metrics": self.metrics.snapshot(),
            "draining": self._draining,
            "restored": self._restored,
            "store": {"root": str(self.store.root)},
        }

    # -- event streaming ---------------------------------------------------

    async def _event_lines(self, record_id: str) -> AsyncIterator[str]:
        """NDJSON lines for one record: a header, the execution's JSONL
        telemetry tailed live, and a terminal ``record_done`` line."""
        record = self.queue.records[record_id]
        yield json.dumps(
            {
                "type": "record",
                "id": record.id,
                "status": record.status,
                "hash": record.key,
                "cached": record.cached,
                "coalesced": record.coalesced,
            },
            sort_keys=True,
        )
        pos = 0
        while True:
            record = self.queue.records[record_id]
            path = (
                self._events_path(record.execution_id)
                if record.execution_id is not None
                else None
            )
            if path is not None:
                pos, lines = _read_new_lines(path, pos)
                for line in lines:
                    yield line
            if record.terminal:
                if path is not None:  # final catch-up read
                    pos, lines = _read_new_lines(path, pos)
                    for line in lines:
                        yield line
                yield json.dumps(
                    {
                        "type": "record_done",
                        "id": record.id,
                        "status": record.status,
                        "cached": record.cached,
                        "coalesced": record.coalesced,
                    },
                    sort_keys=True,
                )
                return
            await asyncio.sleep(self._tail_interval_s)


def _read_new_lines(path: PathLike, pos: int) -> Tuple[int, List[str]]:
    """Complete lines appended to *path* since byte offset *pos*.

    Only advances past whole lines, so a line mid-write is picked up
    on the next poll instead of being emitted truncated.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(pos)
            data = fh.read()
    except OSError:
        return pos, []
    end = data.rfind(b"\n")
    if end < 0:
        return pos, []
    return pos + end + 1, data[:end].decode("utf-8", "replace").split("\n")


# --------------------------------------------------------------------------
# Blocking entry point (CLI).
# --------------------------------------------------------------------------


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    workers: str = "auto",
    store_dir: PathLike = ".repro-cache",
    spool_dir: Optional[PathLike] = None,
    max_queued: int = 16,
    max_running: int = 4,
    job_timeout_s: Optional[float] = None,
    max_retries: int = 1,
    inline: bool = False,
    store_gc_age_s: Optional[float] = None,
    ready: Optional[Callable[[str, int], None]] = None,
) -> int:
    """Run the service until drained; returns a process exit code."""
    min_workers, max_workers = parse_workers(workers)
    store = ResultStore(store_dir)
    app = ServeApp(
        store=store,
        spool_dir=spool_dir if spool_dir is not None else store.root / "serve",
        quota=TenantQuota(max_queued=max_queued, max_running=max_running),
        min_workers=min_workers,
        max_workers=max_workers,
        scheduler_factory=default_scheduler_factory(
            inline=inline, timeout_s=job_timeout_s, max_retries=max_retries
        ),
        store_gc_age_s=store_gc_age_s,
    )
    asyncio.run(app.run(host=host, port=port, ready=ready))
    return 0

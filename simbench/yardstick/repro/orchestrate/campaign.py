"""Campaign execution: cache lookup, scheduling, persistence, summary.

``run_campaign`` is the policy layer tying the pieces together:

1. (``force``) drop every matching cache entry up front;
2. (``resume``) satisfy jobs from the :class:`ResultStore` by content
   hash — hits execute nothing;
3. fan the remainder out through a scheduler (serial or process pool);
4. persist every freshly computed success back to the store;
5. aggregate telemetry into a campaign summary.

A failed job is recorded as ``failed`` in the result map — never fatal
to the rest of the campaign.  :class:`Orchestrator` packages the same
flow behind a small object so experiment code (``figures.py``, the CLI)
can take one optional parameter instead of five.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.orchestrate.job import Job
from repro.orchestrate.scheduler import JobOutcome, make_scheduler
from repro.orchestrate.store import ResultStore
from repro.orchestrate.telemetry import Telemetry

__all__ = ["CampaignResult", "run_campaign", "Orchestrator"]

PathLike = Union[str, pathlib.Path]


@dataclass
class CampaignResult:
    """Outcome of every job, in submission order, plus summary stats."""

    order: List[str]
    outcomes: Dict[str, JobOutcome]
    stats: Dict[str, Any] = field(default_factory=dict)

    def outcome_list(self) -> List[JobOutcome]:
        return [self.outcomes[job_id] for job_id in self.order]

    @property
    def failed(self) -> List[JobOutcome]:
        return [o for o in self.outcome_list() if not o.ok]

    def raise_on_failure(self) -> "CampaignResult":
        bad = self.failed
        if bad:
            detail = "; ".join(f"{o.job_id}: {o.error}" for o in bad[:5])
            raise RuntimeError(
                f"{len(bad)} of {len(self.order)} campaign jobs failed ({detail})"
            )
        return self


def run_campaign(
    jobs: Sequence[Job],
    scheduler=None,
    store: Optional[ResultStore] = None,
    resume: bool = True,
    force: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> CampaignResult:
    """Execute *jobs* (a flat list of :class:`Job`) and collect outcomes.

    Job ids are ``"<index>-<hash prefix>"`` — unique even when the same
    content appears twice (duplicates are still only *executed* once if
    a store is attached, because the second occurrence hits the cache
    written by the first... on the next campaign; within one campaign
    duplicates run independently to keep scheduling simple).
    """
    own_telemetry = telemetry is None
    tele = telemetry or Telemetry(live=False)
    sched = scheduler or make_scheduler(1)

    order: List[str] = []
    outcomes: Dict[str, JobOutcome] = {}
    to_run: List[Tuple[str, Job]] = []

    tele.emit("campaign_start", total=len(jobs))
    try:
        for index, job in enumerate(jobs):
            job_id = f"{index:04d}-{job.content_hash()[:10]}"
            order.append(job_id)
            if store is not None and force:
                store.invalidate(job)
            cached = store.get(job) if (store is not None and resume and not force) else None
            if cached is not None:
                outcomes[job_id] = JobOutcome(job_id, "done", cached, attempts=0)
                tele.emit("cache_hit", job_id=job_id, tag=job.tag)
            else:
                to_run.append((job_id, job))

        if to_run:
            by_id = dict(to_run)

            def persist(job_id: str, outcome: JobOutcome) -> None:
                # Checkpoint the moment each point finishes: an
                # interrupted campaign keeps everything completed so far.
                if store is not None and outcome.ok and outcome.result is not None:
                    store.put(by_id[job_id], outcome.result)

            outcomes.update(sched.run(to_run, on_event=tele.emit, on_result=persist))

        stats = tele.summary()
        stats["executed"] = len(to_run)
        stats["cache_hits"] = stats["jobs"]["cache_hits"]
        tele.emit("campaign_end", **{k: v for k, v in stats.items() if k != "per_worker"})
    finally:
        if own_telemetry:
            tele.close()
    return CampaignResult(order=order, outcomes=outcomes, stats=stats)


class Orchestrator:
    """One-stop configuration of the parallel execution subsystem.

    >>> orch = Orchestrator(jobs=4, cache_dir=".repro-cache", resume=True)
    >>> result = orch.run(jobs)          # CampaignResult
    >>> orch.last_stats["wall_clock_s"]
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[PathLike] = None,
        resume: bool = False,
        force: bool = False,
        timeout_s: Optional[float] = None,
        max_retries: int = 1,
        retry_backoff_s: float = 0.05,
        start_method: Optional[str] = None,
        telemetry_path: Optional[PathLike] = None,
        progress: Optional[bool] = None,
    ):
        self.jobs = jobs
        self.store = ResultStore(cache_dir) if cache_dir is not None else None
        self.resume = resume
        self.force = force
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.start_method = start_method
        self.telemetry_path = telemetry_path
        self.progress = progress
        self.last_stats: Dict[str, Any] = {}

    def scheduler(self):
        return make_scheduler(
            self.jobs,
            timeout_s=self.timeout_s,
            max_retries=self.max_retries,
            retry_backoff_s=self.retry_backoff_s,
            start_method=self.start_method,
        )

    def run(self, jobs: Sequence[Job], strict: bool = False) -> CampaignResult:
        with Telemetry(jsonl_path=self.telemetry_path, live=self.progress) as tele:
            result = run_campaign(
                jobs,
                scheduler=self.scheduler(),
                store=self.store,
                resume=self.resume,
                force=self.force,
                telemetry=tele,
            )
        self.last_stats = result.stats
        return result.raise_on_failure() if strict else result

"""Parallel experiment orchestration: job graphs, caching, fault tolerance.

The paper's evaluation (Figs. 6–14) is a large set of independent
(topology, routing, traffic, load, seed) points.  This package executes
such campaigns across processes with checkpoint/resume semantics:

- :mod:`~repro.orchestrate.job` — declarative, content-hashed job specs
  and the in-worker executor (bit-identical to the serial path);
- :mod:`~repro.orchestrate.store` — the disk-backed result cache;
- :mod:`~repro.orchestrate.scheduler` — serial and process-pool
  back-ends with per-job timeout, retry with backoff, and worker-crash
  recovery;
- :mod:`~repro.orchestrate.telemetry` — JSONL event stream plus live
  TTY progress;
- :mod:`~repro.orchestrate.campaign` — the policy layer
  (:func:`run_campaign`, :class:`Orchestrator`);
- :mod:`~repro.orchestrate.sweeps` — builders mapping load sweeps and
  finite exchanges onto jobs.
"""

from repro.orchestrate.campaign import CampaignResult, Orchestrator, run_campaign
from repro.orchestrate.job import CACHE_VERSION, Job, JobResult, run_job, sim_config_dict
from repro.orchestrate.scheduler import (
    JobOutcome,
    ProcessPoolScheduler,
    SerialScheduler,
    make_scheduler,
)
from repro.orchestrate.store import ResultStore
from repro.orchestrate.sweeps import (
    cli_pattern_spec,
    cli_routing_spec,
    exchange_job,
    orchestrated_load_sweep,
    points_from_outcomes,
    sweep_jobs,
    workload_job,
    workload_size_jobs,
)
from repro.orchestrate.telemetry import Telemetry

__all__ = [
    "CACHE_VERSION",
    "Job",
    "JobResult",
    "run_job",
    "sim_config_dict",
    "JobOutcome",
    "SerialScheduler",
    "ProcessPoolScheduler",
    "make_scheduler",
    "ResultStore",
    "Telemetry",
    "CampaignResult",
    "Orchestrator",
    "run_campaign",
    "sweep_jobs",
    "exchange_job",
    "workload_job",
    "workload_size_jobs",
    "points_from_outcomes",
    "orchestrated_load_sweep",
    "cli_routing_spec",
    "cli_pattern_spec",
]

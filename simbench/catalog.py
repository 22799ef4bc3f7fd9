"""The benchmark's workload table and reference seeds.

This module imports nothing from the simulator, so ``run.py`` can use
it in the driving process and ``workloads.py`` builds from it in each
repetition's process.

Every workload has two sizes: ``full`` is what the benchmark measures,
``reduced`` is a seconds-long stand-in used only by ``selftest.py``.
"""

from __future__ import annotations

from typing import Any, Dict

#: Offered load of the saturation workloads (fraction of link rate).
LOAD = 0.9

#: Reference seeds the benchmark's ``--seed`` rotates through.
SEED_POOL = tuple(range(1, 11))
#: Seed with a committed reference that the rotation never uses, kept
#: back so a later performance claim can be checked on unseen inputs.
HOLDOUT_SEED = 97

# Each workload's "yardstick" entry is the host time of the frozen copy
# of the simulator (yardstick/) on it: the median over the 40 runs of
# the unpaired steadiness sets A-D (steadiness.json), which ran that
# same code on the 2-vCPU VM
# described in README.md.  run.py reports a time as the program's median
# ratio to the yardstick times this figure.  Never change these: every
# later baseline is expressed in them.

WORKLOADS: Dict[str, Dict[str, Any]] = {
    # SF MMS q=13, p=floor (3042 nodes), UGAL-L with the paper-scale
    # sf-floor settings, on the compiled kernel.  The C event loop does
    # most of the work.  Accepted throughput levels off at ~0.8 once
    # 1500 ns have passed, and the mean latency (~1 us) is shorter than
    # the measured window.
    "paper_sat": {
        "kind": "synthetic",
        "backend": "kernel",
        "yardstick": {"wall_s": 17.2614, "setup_s": 0.4586},
        "full": {"scale": "paper", "config": "sf-floor",
                 "warmup_ns": 1500.0, "measure_ns": 1000.0},
        "reduced": {"scale": "tiny", "config": "sf-floor",
                    "warmup_ns": 200.0, "measure_ns": 300.0},
    },
    # The same traffic and window on SF q=7 (490 nodes) on the object
    # engine: the Python switch pipeline and routing do all the work,
    # the C kernel none.
    "object_sat": {
        "kind": "synthetic",
        "backend": "object",
        "yardstick": {"wall_s": 7.562, "setup_s": 0.0252},
        "full": {"scale": "small", "config": "sf-floor",
                 "warmup_ns": 1500.0, "measure_ns": 1000.0},
        "reduced": {"scale": "tiny", "config": "sf-floor",
                    "warmup_ns": 200.0, "measure_ns": 300.0},
    },
    # Ring all-reduce over every node of MLFM h=5 (150 nodes), one
    # packet per message, closed loop through WorkloadDriver on the
    # kernel, with a seeded drip of link failures mid-collective.
    "closed_allreduce": {
        "kind": "collective",
        "backend": "kernel",
        "yardstick": {"wall_s": 5.2752, "setup_s": 0.3137},
        "full": {"scale": "tiny", "config": "mlfm", "ranks": None,
                 "fault_at_ns": 30_000.0, "fault_every_ns": 15_000.0,
                 "faults": 3},
        "reduced": {"scale": "tiny", "config": "mlfm", "ranks": 30,
                    "fault_at_ns": 5_000.0, "fault_every_ns": 2_000.0,
                    "faults": 2},
    },
}

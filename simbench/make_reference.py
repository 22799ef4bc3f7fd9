"""Regenerate the committed reference results (simbench/reference.json).

    python3 simbench/make_reference.py

Re-run this ONLY when a change is meant to alter simulated behaviour
(the physics, routing decisions or traffic), and say so in that change.
A change that only makes the simulator faster must reproduce every
reference bit for bit, so it never needs this script.

It records, for every workload, the simulated result of every seed in
``SEED_POOL`` plus ``HOLDOUT_SEED`` at the full size and of the first
pool seed at the reduced size (for ``selftest.py``), and writes the
whole file.  That takes about ten minutes.  It never touches
``yardstick/reference.json``: the frozen yardstick keeps its own.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
os.environ.setdefault("REPRO_KERNEL_CACHE", str(ROOT / ".bench_build" / "repro-kernel"))

from catalog import HOLDOUT_SEED, SEED_POOL, WORKLOADS  # noqa: E402
from workloads import Repetition  # noqa: E402

REFERENCE = HERE / "reference.json"

ABOUT = ("Simulated results the benchmark checks every repetition against. "
         "Regenerate with simbench/make_reference.py only when simulated "
         "behaviour is meant to change.")


def main() -> int:
    ref = {"about": ABOUT, "holdout_seed": HOLDOUT_SEED}
    for size, seeds in (("full", (*SEED_POOL, HOLDOUT_SEED)),
                        ("reduced", SEED_POOL[:1])):
        for name in sorted(WORKLOADS):
            entries = ref.setdefault(size, {}).setdefault(name, {})
            for seed in seeds:
                rep = Repetition(name, size, seed)
                rep.run()
                if rep.net.backend_in_use != WORKLOADS[name]["backend"]:
                    raise SystemExit(f"{name} ran on {rep.net.backend_in_use!r}")
                entries[str(seed)] = rep.result
                print(f"{size} {name} seed {seed}: done", file=sys.stderr)
                del rep
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

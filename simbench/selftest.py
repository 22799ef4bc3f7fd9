"""Self-test of the benchmark itself, at the reduced workload sizes.

    python3 simbench/selftest.py

For every workload it checks that

1. an untraced run prints exactly the end-to-end metric names and
   units declared in BENCHMARK.json, with every repetition correct;
2. a run against a perturbed reference reports every full repetition
   of the program as a failed operation (set-up-only ones check no
   result, and the yardstick's keep their own reference);
3. a traced run prints exactly the declared per-layer metrics, and
   every metric the workload exercises (``EXERCISED`` below) is nonzero;

and that the benchmark refuses to run, printing no result, from a
directory holding only BENCHMARK.json and the benchmark's files.
Exits 0 when everything holds, 1 otherwise.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "selftest"
sys.path.insert(0, str(HERE))

from catalog import SEED_POOL  # noqa: E402
from run import SETUP_PAIRS  # noqa: E402

_SETUP = ("topology.build_s", "routing.build_s", "sim.network.build_s")
_COMMON = ("routing.cache.fill.calls", "routing.cache.fill_s",
           "routing.cache.minimal_pairs", "sim.engine.events",
           "sim.engine.loop_s", "sim.engine.ns_per_event",
           "mem.rss_after_setup_mb", "run.unattributed_s",
           "trace.overhead_ratio")
_KERNEL = ("sim.vec.kernel.events", "sim.vec.kernel.loop_s",
           "sim.vec.kernel.ns_per_event", "sim.vec.kernel.op.RECV.count",
           "sim.vec.kernel.op.ENTER.count", "sim.vec.kernel.op.DELIVER.count",
           "sim.vec.kernel.op.CALL.count")

#: Per-layer metrics each workload must report as nonzero when traced.
EXERCISED = {
    "paper_sat": _SETUP + _COMMON + _KERNEL + (
        "traffic.setup_s", "routing.cache.composed_routes",
        "sim.vec.kernel.op.GEN.count", "sim.vec.kernel.fastpath_share",
        "sim.vec.kernel.escape.stats_flush.count",
        "sim.vec.kernel.escape.stats_flush.s", "sim.stats.flush_s",
        "sim.stats.window_s", "mem.rss_per_packet_kb"),
    "object_sat": _SETUP + _COMMON + (
        "traffic.setup_s", "routing.cache.composed_routes",
        "routing.route.calls", "routing.route_s", "sim.nic.submit.calls",
        "sim.nic.submit_s", "sim.stats.window_s", "mem.rss_per_packet_kb"),
    "closed_allreduce": _SETUP + _COMMON + _KERNEL + (
        "workload.build_s", "sim.vec.kernel.escape.deliver.count",
        "sim.vec.kernel.escape.deliver.s", "sim.vec.kernel.escape.call.count",
        "sim.vec.kernel.escape.call.s", "sim.nic.submit.calls",
        "sim.nic.submit_s", "workload.listener.calls", "workload.listener_s",
        "resilience.faults_fired", "resilience.fail_link_s",
        "routing.route.calls", "routing.route_s"),
}

SEED = 0  # rotates to the first pool seed, the one reduced references hold


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    """Run the benchmark; (exit code, parsed last line or None, stderr)."""
    cmd = [sys.executable, str(cwd / "simbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--size", "reduced", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def declared(result, specs):
    """Problems with *result*'s metric names and units against *specs*."""
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    return [] if got == want else [f"metrics {got} != declared {want}"]


def check_workload(name: str, decl: dict, perturbed: Path):
    problems = []
    code, res, err = bench(name, 0)
    if code != 0 or res is None:
        return [f"untraced run failed (exit {code}): {err[-300:]}"]
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(res)}")
    problems += declared(res, decl["end_to_end"])
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        problems.append(f"untraced run not clean: {res}")

    code, res, err = bench(name, 0, "--reference", str(perturbed))
    if code != 0 or res is None:
        problems.append(f"perturbed run printed no result (exit {code})")
    elif (res["correct"]
          or res["failed"] != (res["attempted"] - 2 * SETUP_PAIRS) // 2):
        problems.append(f"perturbed reference not reported as failed: {res}")

    code, res, err = bench(name, 1)
    if code != 0 or res is None:
        return problems + [f"traced run failed (exit {code}): {err[-300:]}"]
    problems += declared(res, decl["per_layer"])
    if not res["correct"]:
        problems.append(f"traced run not clean: {res['failed']} failed")
    zero = [m for m in EXERCISED[name] if not res["metrics"].get(m, {}).get("value")]
    if zero:
        problems.append(f"traced run reports zero for {zero}")
    return problems


def check_bare_directory(decl: dict):
    """The benchmark must refuse to run without the simulator sources."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in decl["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, res, _ = bench("object_sat", 0, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or res is not None:
        return [f"bare directory: exit {code}, result {res}"]
    return []


def main() -> int:
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    seed = str(SEED_POOL[SEED % len(SEED_POOL)])
    failures = 0
    for name in EXERCISED:
        bad = json.loads(json.dumps(reference))
        entry = bad["reduced"][name][seed]
        key = sorted(k for k, v in entry.items() if isinstance(v, (int, float)))[0]
        entry[key] += 1
        perturbed = WORK / f"perturbed-{name}.json"
        perturbed.write_text(json.dumps(bad))
        problems = check_workload(name, decl, perturbed)
        failures += bool(problems)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
    problems = check_bare_directory(decl)
    failures += bool(problems)
    print(f"bare directory: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

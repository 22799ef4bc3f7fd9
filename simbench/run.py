"""Simulator benchmark: end-to-end and per-layer numbers for one workload.

    python3 simbench/run.py --workload paper_sat --seed 3 --seconds 30 --trace 0

Runs repetitions of the workload, each in a fresh single-threaded
process.  An untraced run makes them in pairs: one repetition of the
simulator under test (``src/``) and one of the yardstick, a frozen copy
of the simulator kept in ``yardstick/``, on the same inputs.  The two
halves of a pair run at the same time, pinned to the same CPU, and each
is timed by its own CPU seconds.  Host speed drifts by tens of percent
within seconds and over minutes here, but the two halves share every
moment of it, so each time is reported as the median ratio of program
to yardstick over the run's pairs, times the yardstick's own time
recorded in ``catalog.py``.  First a few pairs only build the workload
(for ``setup_s``), then full pairs run until the next would overrun
``--seconds`` (at least one).

Every repetition is one operation; it fails if it crashes, times out,
runs on another backend than the workload names, or (when full) its
simulated result differs from the committed reference (the yardstick
has its own).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` repetitions of the program alone,
one at a time, alternate untraced and traced, and the metrics are the
per-layer medians of the traced ones.  See README.md for what each
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from catalog import HOLDOUT_SEED, SEED_POOL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
REFERENCE = HERE / "reference.json"
#: The frozen copy of the simulator every untraced repetition is paired
#: with, and the results it must reproduce.
YARDSTICK = HERE / "yardstick"
YARDSTICK_REFERENCE = YARDSTICK / "reference.json"

#: Full pairs (untraced) or repetitions (traced: one untraced, one
#: traced) made however short ``--seconds`` is.
MIN_PAIRS = 1
MIN_TRACED_REPS = 2
#: Set-up-only pairs made first, so ``setup_s`` is a median over several
#: set-ups even when the full pairs are few.
SETUP_PAIRS = 3
#: No repetition starts after this many seconds, so a run ends well
#: inside its three minutes.
HARD_STOP_S = 120.0
REP_TIMEOUT_S = 160.0


def fail(msg: str) -> int:
    print(msg, file=sys.stderr)
    return 2


def worker_env(sources: Path) -> dict:
    """Environment of a repetition that imports the simulator from *sources*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(sources)
    # The kernel is compiled into the checkout, never into $HOME, and
    # the compiler's scratch files stay there too.  The cache is keyed
    # by the C source's hash, so both copies share one build while
    # their sources agree.
    env["REPRO_KERNEL_CACHE"] = str(BUILD / "repro-kernel")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def preflight(env: dict) -> str | None:
    """Build or load the compiled kernel; the load error, or None."""
    code = ("from repro.sim.vec import kernel as k\n"
            "print('' if k.load_kernel() is not None else k.load_error)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return proc.stderr.strip()[-500:] or f"exit {proc.returncode}"
    return proc.stdout.strip() or None


def worker_cmd(workload, seed, size, reference, extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--size", size, "--reference", str(reference),
            *extra]


def finish(proc, deadline):
    """Wait for one repetition's process; its JSON record, or a failure record."""
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "why": "timed out"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"ok": False, "why": f"crashed: {tail[0]}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"ok": False, "why": f"unreadable result: {lines[-1][:200]}"}


def run_together(jobs, timeout):
    """Run every (env, cmd) job at once; their records and the seconds taken.

    Every process is waited for, and killed first if the run is cut short.
    """
    t = time.perf_counter()
    procs = []
    try:
        for env, cmd in jobs:
            procs.append(subprocess.Popen(cmd, env=env, cwd=ROOT, text=True,
                                          stdout=subprocess.PIPE,
                                          stderr=subprocess.PIPE))
        records = [finish(proc, t + timeout) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return records, time.perf_counter() - t


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout", action="store_true",
                    help="run the held-out reference seed instead of --seed")
    ap.add_argument("--size", choices=("full", "reduced"), default="full",
                    help="reduced is for selftest.py only")
    ap.add_argument("--reference", default=str(REFERENCE))
    args = ap.parse_args()
    # A terminated run unwinds like an exception, so the repetitions it
    # started are killed and waited for (see run_together).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro").is_dir():
        return fail(f"no simulator sources at {ROOT / 'src' / 'repro'}")
    try:
        decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc!r}")
    seed = HOLDOUT_SEED if args.holdout else SEED_POOL[args.seed % len(SEED_POOL)]
    for reference in (args.reference, YARDSTICK_REFERENCE):
        try:
            with open(reference) as f:
                json.load(f)[args.size][args.workload][str(seed)]
        except (OSError, KeyError, ValueError) as exc:
            return fail(f"no reference for {args.workload} seed {seed}: {exc!r}")

    program = (worker_env(ROOT / "src"), args.reference)
    yardstick = (worker_env(YARDSTICK), YARDSTICK_REFERENCE)
    Path(program[0]["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    if WORKLOADS[args.workload]["backend"] == "kernel":
        for env, _ in (program, yardstick):
            err = preflight(env)
            if err:
                return fail(f"kernel.load_error: {err}")

    traces = BUILD / "traces"
    if args.trace:
        traces.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    attempted = failed = 0

    def repetitions(jobs):
        """Run the (side, extra) jobs at once; their records, seconds taken."""
        nonlocal attempted, failed
        timeout = max(10.0, REP_TIMEOUT_S - (time.perf_counter() - start))
        records, took = run_together(
            [(env, worker_cmd(args.workload, seed, args.size, reference, extra))
             for (env, reference), extra in jobs], timeout)
        for rec in records:
            attempted += 1
            if not rec["ok"]:
                failed += 1
                print(f"repetition failed: {rec['why']}", file=sys.stderr)
        return records, took

    def out_of_time(done, minimum, durations):
        if done < minimum:
            return False
        elapsed = time.perf_counter() - start
        return elapsed + median(durations) > min(args.seconds, HARD_STOP_S)

    metrics = {}
    if args.trace:
        records, durations = [], []
        while not out_of_time(len(records), MIN_TRACED_REPS, durations):
            traced = len(records) % 2 == 1
            extra = (["--trace-out", str(traces / f"{args.workload}-seed{seed}.json")]
                     if traced else [])
            (rec,), took = repetitions([(program, extra)])
            rec["traced"] = traced
            records.append(rec)
            durations.append(took)
            if rec.get("why") == "timed out":
                break
        traced = [r for r in records if r["ok"] and r["traced"]]
        untraced = [r for r in records if r["ok"] and not r["traced"]]
        for m in decl["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_ratio":
                value = (median(r["wall_s"] for r in traced)
                         / median(r["wall_s"] for r in untraced)
                         if traced and untraced else 0.0)
            else:
                value = median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        # Both halves of a pair share one CPU, so the host's speed at
        # every moment weighs on both alike; each is timed by its own
        # CPU seconds.
        pin = ["--cpu", str(min(os.sched_getaffinity(0)))]
        setup_ratios, cpu_ratios, rss, durations = [], [], [], []
        for _ in range(SETUP_PAIRS):
            (prog, yard), _ = repetitions([(program, pin + ["--setup-only"]),
                                           (yardstick, pin + ["--setup-only"])])
            if prog["ok"] and yard["ok"]:
                setup_ratios.append(prog["setup_cpu_s"] / yard["setup_cpu_s"])
        while not out_of_time(len(durations), MIN_PAIRS, durations):
            (prog, yard), took = repetitions([(program, pin), (yardstick, pin)])
            durations.append(took)
            if prog["ok"] and yard["ok"]:
                setup_ratios.append(prog["setup_cpu_s"] / yard["setup_cpu_s"])
                cpu_ratios.append(prog["cpu_s"] / yard["cpu_s"])
                rss.append(prog["peak_rss_mb"])
                print(f"pair {len(durations)}: cpu_s {prog['cpu_s']:.3f} / "
                      f"{yard['cpu_s']:.3f} yardstick, setup_cpu_s "
                      f"{prog['setup_cpu_s']:.4f} / {yard['setup_cpu_s']:.4f}, "
                      f"peak_rss_mb {prog['peak_rss_mb']:.1f}", file=sys.stderr)
            elif "timed out" in (prog.get("why"), yard.get("why")):
                break
        scale = WORKLOADS[args.workload]["yardstick"]
        values = {"wall_s": scale["wall_s"] * median(cpu_ratios),
                  "setup_s": scale["setup_s"] * median(setup_ratios),
                  "peak_rss_mb": median(rss)}
        for m in decl["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

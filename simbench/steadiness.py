"""Record and summarise how steady the benchmark's end-to-end numbers are.

    python3 simbench/steadiness.py record --label A [--runs 10] [--seconds 30]
    python3 simbench/steadiness.py report

``record`` runs the benchmark exactly as ``BENCHMARK.json`` does, with
seeds 0..runs-1, workload after workload, and appends the set (label,
start time, every run's metrics and its pairs' raw CPU seconds, program
and yardstick) to ``steadiness.json``.  Take sets
minutes or hours apart: host drift shows only between sets.

``report`` prints, per workload and metric, each set's median and
quartiles, and its spread (quartile distance over median).  It then
compares every pair of sets, in both directions: the drift is the
largest set median over the smallest, minus one.  A metric is steady
under its bound ``b`` when every spread and the drift stay within ``b``.
``report`` exits 1 when some metric is not.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "steadiness.json"


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def record(args, decl) -> int:
    data = json.loads(RECORD.read_text()) if RECORD.exists() else {"sets": []}
    entry = {"label": args.label,
             "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "seconds": args.seconds, "runs": {}}
    for wl in args.workload or [w["name"] for w in decl["workloads"]]:
        runs = entry["runs"][wl] = []
        for seed in range(args.runs):
            cmd = [*decl["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            # run.py logs each full pair's CPU seconds on stderr: the
            # program's, then the yardstick's.
            pairs = [[float(a), float(b)] for a, b in
                     re.findall(r": cpu_s ([0-9.]+) / ([0-9.]+)", proc.stderr)]
            runs.append({"seed": seed, "took_s": took, "pair_cpu_s": pairs,
                         "attempted": res["attempted"], "failed": res["failed"],
                         **{k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{args.label} {wl} seed {seed}: {took:.1f} s, "
                  f"{res['attempted']} reps, {res['failed']} failed, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
    data["sets"].append(entry)
    RECORD.write_text(json.dumps(data, indent=1) + "\n")
    return 0


def report(args, decl) -> int:
    data = json.loads(RECORD.read_text())
    sets = [s for s in data["sets"] if not args.label or s["label"] in args.label]
    unsteady = 0
    for m in decl["end_to_end"]:
        name, bound = m["name"], m["bound"]
        print(f"\n{name} (bound {bound:g})")
        for wl in [w["name"] for w in decl["workloads"]]:
            medians, spreads = [], []
            for s in sets:
                values = [r[name] for r in s["runs"].get(wl, [])]
                if len(values) < 2:
                    continue
                q1, med, q3 = quartiles(values)
                medians.append(med)
                spreads.append((q3 - q1) / med)
                print(f"  {wl:17s} {s['label']:>3s} {s['started']}  n={len(values):2d}  "
                      f"median {med:9.4f}  q1 {q1:9.4f}  q3 {q3:9.4f}  "
                      f"spread {spreads[-1]:6.3f}")
            if not medians:
                continue
            drift = max(medians) / min(medians) - 1
            ok = drift <= bound and max(spreads) <= bound
            unsteady += not ok
            print(f"  {wl:17s} drift over {len(medians)} sets {drift:6.3f}, "
                  f"widest spread {max(spreads):6.3f}: "
                  f"{'steady' if ok else 'NOT steady'}")
    return 1 if unsteady else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--label", required=True)
    rec.add_argument("--runs", type=int, default=10)
    rec.add_argument("--seconds", type=int, default=None)
    rec.add_argument("--workload", action="append")
    rep = sub.add_parser("report")
    rep.add_argument("--label", action="append")
    args = ap.parse_args()
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.cmd == "record":
        args.seconds = args.seconds or decl["run_seconds"]
        return record(args, decl)
    return report(args, decl)


if __name__ == "__main__":
    sys.exit(main())

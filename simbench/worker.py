"""One benchmark repetition, in its own process.

    python3 simbench/worker.py --workload NAME --seed N --size full \\
        --reference FILE [--cpu N] [--setup-only | --trace-out FILE]

Runs the workload once with the given reference seed, checks the
simulated result against the reference, and prints one JSON object:
``ok`` (and ``why`` when not), the backend that actually ran, the
end-to-end host numbers (host seconds ``wall_s``/``setup_s`` and the
process's CPU seconds over the same spans, ``cpu_s``/``setup_cpu_s``),
and with ``--trace-out`` the per-layer metrics of the traced repetition
(its spans go to that file).  With ``--setup-only`` it stops once the
workload is built and reports only the set-up times.  ``--cpu`` pins
the process to that CPU before anything else runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "reduced"), default="full")
    ap.add_argument("--reference", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--cpu", type=int, default=None)
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import spans
    from catalog import WORKLOADS
    from workloads import Repetition

    with open(args.reference) as f:
        expected = json.load(f)[args.size][args.workload][str(args.seed)]

    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        tracer.patch_classes()
        root = tracer.open("repetition")
    rep = Repetition(args.workload, args.size, args.seed, tracer)
    want_backend = WORKLOADS[args.workload]["backend"]
    why = None
    if rep.net.backend_in_use != want_backend:
        why = f"backend_in_use is {rep.net.backend_in_use!r}, not {want_backend!r}"
    elif args.setup_only:
        print(json.dumps({"ok": True, "setup_s": rep.t_call - rep.t0,
                          "setup_cpu_s": rep.c_call - rep.c0}), flush=True)
        os._exit(0)
    else:
        rep.run()
    if why is None and rep.result != expected:
        diff = sorted(k for k in set(rep.result) | set(expected)
                      if rep.result.get(k) != expected.get(k))
        why = f"result differs from the reference in {diff}"
    t_end = time.perf_counter()
    c_end = time.process_time()
    if tracer is not None:
        tracer.close(root)

    out = {
        "ok": why is None,
        "backend": rep.net.backend_in_use,
        "wall_s": t_end - rep.t0,
        "setup_s": rep.t_call - rep.t0,
        "cpu_s": c_end - rep.c0,
        "setup_cpu_s": rep.c_call - rep.c0,
        "peak_rss_mb": spans.peak_rss_kb() / 1024,
    }
    if why is not None:
        out["why"] = why
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, rep, root)
        tracer.dump(args.trace_out)
    print(json.dumps(out), flush=True)
    # Skip interpreter teardown: freeing a paper-scale network object by
    # object takes about a second that no metric counts.
    os._exit(0)


if __name__ == "__main__":
    main()

"""Benchmark of osc3: three workloads, timed end to end, checked against
references computed apart from osc3, and traced layer by layer on request.

    python3 perfbench/run.py --workload bump-check --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/osc3``.  The operations
run in a fresh worker process (worker.py) so that the set-up time is a cold
start and the peak memory is that of the operations alone; this process
only starts the worker, waits for it and then runs the checks.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, op_s,
op_cpu_s, peak_rss_mb), the times scaled to the reference machine's speed
by the worker's calibrations; with --trace 1 the per-layer ones.  See
README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER_TIMEOUT = 170.0

sys.path.insert(0, HERE)
from workloads import CHECKS, WORKLOADS, make_plan  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "osc3", "cli.py")):
        print(f"error: no osc3 sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    plan = make_plan(args.workload, args.seed, out_dir)
    plan.update(src=SRC, seconds=args.seconds, trace=args.trace)
    plan_path = os.path.join(out_dir, "plan.json")
    result_path = os.path.join(out_dir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump(plan, f, indent=1)

    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                            cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: worker did not finish within {WORKER_TIMEOUT:.0f} s", file=sys.stderr)
        return 2
    if rc != 0:
        print(f"error: worker exited with code {rc}", file=sys.stderr)
        return 2
    with open(result_path, encoding="utf-8") as f:
        res = json.load(f)

    problems = []
    if len(res["digests"]) > 1:
        problems.append(f"{len(res['digests'])} different outputs from identical operations")
    if res["digests"]:
        try:
            problems += CHECKS[args.workload](plan)
        except Exception as exc:  # unreadable output is a wrong output
            traceback.print_exc()
            problems.append(f"output could not be checked: {exc!r}")
    if args.trace:
        problems += res["identity_problems"]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": (res["ready"] - spawned) * res["speed"], "unit": "s"},
            "op_s": {"value": res["op_s"], "unit": "s"},
            "op_cpu_s": {"value": res["op_cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

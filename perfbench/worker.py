"""One benchmark run inside a fresh process: python3 worker.py PLAN RESULT.

PLAN is the JSON written by run.py (workload, argv, files, seconds, trace,
src).  The worker imports osc3 from that ``src``, notes when the first
operation could start, runs one untimed warm-up operation, then runs the
same operation until ``seconds`` have passed:

* trace 0: every operation untraced, with ``calibrate.calibrate()`` run
  before the first and after every one; each operation's wall and CPU
  seconds are scaled by ``calibrate.REF_S`` over the mean of the two
  calibrations around it, so they read at the reference machine's speed.
  ``speed``, REF_S over the median calibration, scales the set-up time.
* trace 1: untraced and traced operations alternate, so that both see the
  same machine; the traced ones feed the per-layer metrics and the
  difference of the two medians is the tracing overhead.

The result JSON holds the timings, the SHA-256 of each operation's output
files (run.py checks that they are identical and checks one set against
the references), the peak resident memory and, when traced, the metrics.
The spans are written to ``trace.json`` next to the outputs.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _digest(files):
    h = hashlib.sha256()
    for key in sorted(files):
        with open(files[key], "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main():
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    sys.path.insert(0, plan["src"])
    import osc3.cli

    ready = time.perf_counter()
    if os.path.dirname(os.path.realpath(osc3.cli.__file__)) != os.path.join(plan["src"], "osc3"):
        raise SystemExit(f"osc3 imported from {osc3.cli.__file__}, not from {plan['src']}")

    argv, files, seconds = plan["argv"], plan["files"], plan["seconds"]
    ops = []  # (wall, cpu, rc, digest, traced)

    def one(traced, tracer=None):
        index = len(ops)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                rc = tracer.run_op(index, lambda: osc3.cli.main(argv))
            else:
                rc = osc3.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc()
            rc = -1
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        ops.append((wall, cpu, rc, _digest(files) if rc == 0 else None, traced))

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    else:
        from calibrate import REF_S, calibrate

        calibrate()  # warm-up
    one(False)  # warm-up: caches, lazy imports, first writes of the output files
    cals = []  # (wall, cpu) of the calibration before each timed operation, and after the last
    start = time.perf_counter()
    while True:
        if tracer is None:
            cals.append(calibrate())
        if time.perf_counter() - start >= seconds:
            break
        one(False)
        if tracer is not None:
            one(True, tracer)

    timed = ops[1:]
    untraced = [o for o in timed if not o[4]]
    result = {
        "ready": ready,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o[2] != 0),
        "digests": sorted({o[3] for o in ops if o[3] is not None}),
        "raw_op_s": statistics.median(o[0] for o in untraced),
        "raw_op_cpu_s": statistics.median(o[1] for o in untraced),
        "op_walls": [o[0] for o in timed],
        "cal_walls": [c[0] for c in cals],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is None:
        result["speed"] = REF_S / statistics.median(c[0] for c in cals)
        result["op_s"] = statistics.median(
            o[0] * 2.0 * REF_S / (cals[i][0] + cals[i + 1][0]) for i, o in enumerate(untraced))
        result["op_cpu_s"] = statistics.median(
            o[1] * 2.0 * REF_S / (cals[i][1] + cals[i + 1][1]) for i, o in enumerate(untraced))
    else:
        traced_walls = [o[0] for o in timed if o[4]]
        layer = tracer.metrics(len(traced_walls))
        layer["trace.overhead_s"] = (statistics.median(traced_walls) - result["raw_op_s"], "s")
        result["per_layer"] = layer
        result["identity_problems"] = tracer.identity_problems()
        with open(os.path.join(os.path.dirname(result_path), "trace.json"), "w", encoding="utf-8") as f:
            json.dump({"workload": plan["workload"], "seed": plan["seed"], "argv": argv,
                       "spans": [s.as_dict() for s in tracer.spans]}, f)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()

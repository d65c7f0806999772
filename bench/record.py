"""Record the benchmark and the fixture-command table in one JSON file.

    python3 bench/record.py --out bench/BENCH_<n>.json

Run from the root of a checkout that holds ``src/osc3`` and ``perfbench``.
The file holds:

* ``parent``: the checked-out commit; ``dirty``: whether the files that
  decide what is measured (``MEASURED``) differ from it; and, when they
  do, ``diff_sha256``: the SHA-256 of ``git diff --binary <parent> --
  src perfbench bench/record.py``.  A record made before its change is
  committed so names the tree it measured: the commit that holds the
  change gives the same hash from ``git diff --binary <parent> <commit>
  -- src perfbench bench/record.py | sha256sum``;
* ``host``: the Python version, the platform and the CPU count;
* ``seed`` and ``seconds``: ``SEED`` and ``SECONDS``, the same in every
  record so that records compare;
* ``workloads``: for each workload of ``perfbench/run.py``, the result
  object its last line prints at ``--trace 0`` (end-to-end metrics) and at
  ``--trace 1`` (per-layer metrics), with its exit code and any
  ``check failed`` lines;
* ``commands``: each command of ``COMMANDS`` run through ``osc3.cli.main``
  in this process: once to warm up, ``REPEATS`` times untraced for the
  median of its wall and of its CPU seconds, and twice under perfbench's
  tracer for its work counts, which do not move with the machine's speed;
  ``counts_repeat`` says whether the two traced runs counted the same.

Wall times on a small shared machine move by 2x or more with load; compare
two records by their counts first, and by their times only in pairs taken
close together.  ``validate`` lists what a record lacks; the tier-1 tests
run it on the committed records.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import string
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("bump-check", "growth-verify", "lazer-sweep")
RUN_TIMEOUT = 600.0
SEED = 1
SECONDS = 8.0  # run length of each perfbench/run.py run
REPEATS = 3  # untraced runs of each command, after one warm-up
MEASURED = ("src", "perfbench", "bench/record.py")

# (name, argv): the fixture commands, and the workloads' and the periodic
# coefficients' commands at the sizes where their costs were first measured
COMMANDS = (
    ("check lazer", ["check", "--fixture", "lazer"]),
    ("check example31", ["check", "--fixture", "example31"]),
    ("check example32", ["check", "--fixture", "example32"]),
    ("check example32 thm31 grid 23",
     ["check", "--fixture", "example32", "--theorem", "thm31", "--grid-count", "23"]),
    ("verify example31 tmax 50",
     ["verify", "--fixture", "example31", "--tmax", "50", "--combos", "5"]),
    ("verify lazer tmax 100", ["verify", "--fixture", "lazer", "--tmax", "100", "--combos", "5"]),
    ("sweep example31 beta 2:4:1",
     ["sweep", "--fixture", "example31", "--theorem", "thm31", "--sweep", "beta=2:4:1",
      "--grid-count", "60"]),
    ("riccati thm32-usage", ["riccati", "--comparison", "thm32-usage"]),
    ("check periodic lazer grid 60",
     ["check", "--p", "0", "--q", "-1*(1+sin(t)^2)", "--r", "1*(1+cos(t)^2)",
      "--theorem", "lazer", "--grid-count", "60"]),
    ("check periodic lazer grid 90",
     ["check", "--p", "0", "--q", "-1*(1+sin(t)^2)", "--r", "1*(1+cos(t)^2)",
      "--theorem", "lazer", "--grid-count", "90"]),
)

COUNTS = ("quad.calls", "quad.evals", "quad.depth_cap_hits", "coeffs.d_closed_calls",
          "coeffs.p_minus_calls", "ode.steps_accepted", "ode.steps_rejected", "ode.zeros",
          "expr.evals")


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_workload(name: str, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its exit code, its ``check failed``
    lines and the result object of its last line (None if it printed none)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", repr(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    return {"rc": proc.returncode,
            "check_failed": [line for line in proc.stderr.splitlines() if line.startswith("check failed")],
            "result": json.loads(lines[-1]) if proc.returncode == 0 and lines else None}


def run_command(argv: list) -> dict:
    """``osc3.cli.main(argv)`` run once to warm up, timed untraced, then
    counted twice under the tracer.  Its standard output and error are
    discarded."""
    from osc3.cli import main

    sys.path.insert(0, PERFBENCH)
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(PERFBENCH)

    def counted():
        tracer = Tracer()
        traced_rc = tracer.run_op(0, lambda: main(argv))
        counts = {key: tracer.counts[key] for key in COUNTS if key in tracer.counts}
        counts["expr.evals"] = sum(tracer.fn_calls.values())
        return traced_rc, counts

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = main(argv)
        walls, cpus = [], []
        for _ in range(REPEATS):
            w0, c0 = time.perf_counter(), time.process_time()
            main(argv)
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
        traced_rc, counts = counted()
        again = counted()
    return {"argv": argv, "rc": rc, "traced_rc": traced_rc, "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus), "counts": counts,
            "counts_repeat": again == (traced_rc, counts)}


def record() -> dict:
    diff = subprocess.run(["git", "diff", "--binary", "HEAD", "--", *MEASURED], cwd=ROOT,
                          capture_output=True, check=True).stdout
    return {
        "parent": _git("rev-parse", "HEAD"),
        "dirty": bool(diff),
        "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None,
        "host": {"python": platform.python_version(), "platform": platform.platform(),
                 "cpus": os.cpu_count()},
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {name: {f"trace{trace}": run_workload(name, trace) for trace in (0, 1)}
                      for name in WORKLOADS},
        "commands": {name: run_command(argv) for name, argv in COMMANDS},
    }


def validate(doc: dict) -> list:
    """What the record ``doc`` lacks or holds in the wrong form, as messages."""
    problems = []

    def need(where, value, kind):
        if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
            names = tuple(k.__name__ for k in kind) if isinstance(kind, tuple) else kind.__name__
            problems.append(f"{where}: expected {names}, got {value!r}")
            return False
        return True

    def hex_id(where, value, digits):
        if not isinstance(value, str) or len(value) != digits or value.strip(string.hexdigits):
            problems.append(f"{where}: expected {digits} hex digits, got {value!r}")

    hex_id("parent", doc.get("parent"), 40)
    if need("dirty", doc.get("dirty"), bool) and doc["dirty"]:
        hex_id("diff_sha256", doc.get("diff_sha256"), 64)
    for key, want in (("seed", SEED), ("seconds", SECONDS)):
        if doc.get(key) != want:
            problems.append(f"{key}: expected {want!r}, got {doc.get(key)!r}")
    host = doc.get("host")
    if need("host", host, dict):
        need("host.python", host.get("python"), str)
        need("host.cpus", host.get("cpus"), int)
    workloads = doc.get("workloads")
    if need("workloads", workloads, dict):
        problems += [f"workloads: {name} missing" for name in WORKLOADS if name not in workloads]
        for name, runs in workloads.items():
            if not need(f"workloads.{name}", runs, dict):
                continue
            for trace in ("trace0", "trace1"):
                run = runs.get(trace)
                where = f"workloads.{name}.{trace}"
                if not need(where, run, dict):
                    continue
                need(f"{where}.rc", run.get("rc"), int)
                need(f"{where}.check_failed", run.get("check_failed"), list)
                result = run.get("result")
                if run.get("rc") == 0 and need(f"{where}.result", result, dict):
                    for key, kind in (("correct", bool), ("attempted", int), ("failed", int),
                                      ("metrics", dict)):
                        need(f"{where}.result.{key}", result.get(key), kind)
                    for metric, entry in (result.get("metrics") or {}).items():
                        if need(f"{where}.metrics.{metric}", entry, dict):
                            need(f"{where}.metrics.{metric}.value", entry.get("value"), (int, float))
                            need(f"{where}.metrics.{metric}.unit", entry.get("unit"), str)
    commands = doc.get("commands")
    if need("commands", commands, dict):
        problems += [f"commands: {name} missing" for name, _ in COMMANDS if name not in commands]
        for name, row in commands.items():
            where = f"commands.{name}"
            if not need(where, row, dict):
                continue
            need(f"{where}.argv", row.get("argv"), list)
            for key in ("rc", "traced_rc"):
                need(f"{where}.{key}", row.get(key), int)
            for key in ("wall_s", "cpu_s"):
                need(f"{where}.{key}", row.get(key), (int, float))
            if row.get("counts_repeat") is not True:
                problems.append(f"{where}.counts_repeat: expected True, "
                                f"got {row.get('counts_repeat')!r}")
            counts = row.get("counts")
            if need(f"{where}.counts", counts, dict):
                for key in COUNTS:
                    need(f"{where}.counts.{key}", counts.get(key), int)
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    doc = record()
    problems = validate(doc)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for p in problems:
        print(f"record incomplete: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

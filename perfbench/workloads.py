"""The three workloads: their inputs, made from a seed, and their checks.

Every workload is one osc3 command line, run again and again in one
process.  The seed picks the inputs; the cost of one command changes
little from seed to seed, so runs with different seeds time the same work.

bump-check     check --fixture example32 --theorem thm31 on a grid to
               t_end 21.6: breakpoint-driven quadrature of narrow bumps.
growth-verify  verify --fixture example31 to t = 12: Dormand-Prince
               stepping through exp(t^3/3) growth, no quadrature.
lazer-sweep    sweep over b for p = 0, q = -3 t^2, r = b t^3 at alpha 1.5:
               per-grid-point quadrature of smooth integrands, d_closed,
               every theorem, and a short oscillatory integration.

Building the inputs needs only the standard library, so the parent
process stays light until the worker has finished; the checks import
numpy and scipy through ``oracles``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

# Sizes of one operation.  Tests pass smaller ones to make_plan.
SIZES = {
    "bump-check": {"grid_count": 23},  # t_end = 1.15^22 = 21.6, past the n ~ 20 bumps
    "growth-verify": {"tmax": 12.0, "combos": 5},
    "lazer-sweep": {"points": 4, "grid_count": 40, "tmax": 20.0},
}
SWEEP_STEP = 0.5
SWEEP_A = 3.0
ALPHA = 1.5

# Tolerances of the checks.  S samples carry rounding noise from evaluating
# the bumps in global t (see CHANGES.md); last zeros are refined to 1e-9 by
# osc3 on a Hermite interpolant of steps up to 0.1 long.
S_RTOL = 1e-9
LAST_ZERO_ATOL = 1e-6

WORKLOADS = tuple(SIZES)


def _rng(seed: int) -> random.Random:
    return random.Random(f"osc3-perfbench-{seed}")


def make_plan(name: str, seed: int, out_dir: str, sizes: dict | None = None) -> dict:
    """The command line one operation runs, the files it writes, and the
    inputs the checks need."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}; use one of {', '.join(WORKLOADS)}")
    inputs = dict(SIZES[name], **(sizes or {}))
    rng = _rng(seed)
    inputs["seed"] = seed % (2 ** 31)
    if name == "bump-check":
        inputs["M"] = round(rng.uniform(11.0, 15.0), 6)
        files = {"out": os.path.join(out_dir, "check.json"), "csv": os.path.join(out_dir, "check.csv")}
        argv = ["check", "--fixture", "example32", "--theorem", "thm31",
                "--param", f"M={inputs['M']!r}", "--grid-count", str(inputs["grid_count"]),
                "--out", files["out"], "--csv", files["csv"]]
    elif name == "growth-verify":
        files = {"out": os.path.join(out_dir, "verify.json")}
        argv = ["verify", "--fixture", "example31", "--tmax", repr(inputs["tmax"]),
                "--combos", str(inputs["combos"]), "--seed", str(inputs["seed"]),
                "--out", files["out"]]
    else:
        # b values on both sides of 2, none closer to 2 than 0.15
        half = (inputs["points"] - 1) / 2.0
        start = round(2.0 + rng.uniform(-0.1, 0.1) - half * SWEEP_STEP, 6)
        stop = start + (inputs["points"] - 1) * SWEEP_STEP
        inputs["b"] = [start + k * SWEEP_STEP for k in range(inputs["points"])]
        files = {"out": os.path.join(out_dir, "sweep.csv")}
        argv = ["sweep", "--p", "0", "--q", "-a*t^2", "--r", "b*t^3",
                "--param", f"a={SWEEP_A!r}",
                "--sweep", f"b={start!r}:{stop!r}:{SWEEP_STEP!r}", "--theorem", "all",
                "--alpha", repr(ALPHA), "--grid-count", str(inputs["grid_count"]),
                "--tmax", repr(inputs["tmax"]), "--seed", str(inputs["seed"]), "--jobs", "1",
                "--out", files["out"]]
    return {"workload": name, "seed": seed, "argv": argv, "files": files, "inputs": inputs}


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of problems; an empty list means correct.


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def check_bump(plan: dict) -> list:
    import numpy as np

    from oracles import bump_thm31b

    inputs = plan["inputs"]
    count = inputs["grid_count"]
    rows = _read_csv(plan["files"]["csv"])
    if rows[0] != ["t", "S", "criterion_id", "alpha"]:
        return [f"unexpected CSV header {rows[0]}"]
    body = rows[1:]
    if len(body) != count:
        return [f"expected {count} samples, got {len(body)}"]
    problems = []
    ts = np.array([float(r[0]) for r in body])
    ss = np.array([float(r[1]) for r in body])
    if any(r[2] != "THM31B" or float(r[3]) != 2.0 for r in body):
        problems.append("samples are not THM31B at alpha 2")
    if not np.allclose(ts, 1.15 ** np.arange(count), rtol=1e-14, atol=0.0):
        problems.append("sample points are not the geometric grid 1.15^k")
    ref, scale = bump_thm31b(ts, inputs["M"])
    bad = np.nonzero(np.abs(ss - ref) > S_RTOL * scale)[0]
    for k in bad[:3]:
        problems.append(f"S({ts[k]:.6g}) = {ss[k]!r}, reference {ref[k]!r}")
    # S ~ (1/4 - M^2/96) t < 0: the penalty wins, so (b) is BOUNDED and THM31
    # does not apply.
    if not np.all(np.diff(ref[-6:]) < 0.0) or ref[-1] >= 0.0:
        problems.append("reference S does not fall below 0 at the tail; inputs out of range")
    with open(plan["files"]["out"], encoding="utf-8") as f:
        report = json.load(f)
    (thm,) = report["theorem_reports"]
    if thm["theorem"] != "THM31" or thm["overall"] != "DOES_NOT_APPLY":
        problems.append(f"THM31 overall is {thm['overall']}, expected DOES_NOT_APPLY")
    if thm["conditions"]["b"]["kind"] != "BOUNDED":
        problems.append(f"THM31 (b) is {thm['conditions']['b']['kind']}, expected BOUNDED")
    if not thm["conditions"]["a"]["holds"]:
        problems.append("THM31 (a) fails although r = r0 > 0 and q = 0")
    return problems


def _unit_combos(seed: int, count: int):
    """The random unit initial states osc3 draws from ``seed``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        out.append(tuple(float(x) for x in v))
    return out


def check_verify(plan: dict) -> list:
    from oracles import r_example31, zero_counts

    M, N, gamma, beta = 1.0, 1.0, 2.0, 2.0  # example31 defaults
    inputs = plan["inputs"]
    tmax = inputs["tmax"]
    with open(plan["files"]["out"], encoding="utf-8") as f:
        report = json.load(f)
    sols = report["solutions"]
    initial = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    initial += _unit_combos(inputs["seed"], inputs["combos"])
    if len(sols) != len(initial):
        return [f"expected {len(initial)} solutions, got {len(sols)}"]
    problems = []
    for s, init in zip(sols, initial):
        if tuple(s["initial"]) != init:
            problems.append(f"{s['label']}: initial state {s['initial']}, expected {list(init)}")
        if s["status"] != "completed" or s["t_end"] != tmax:
            problems.append(f"{s['label']}: status {s['status']} at t={s['t_end']}")

    def coeffs(t):
        return -M * t ** gamma, 0.0, r_example31(t, M, N, gamma, beta)

    evidence = False
    for s, (count, last) in zip(sols, zero_counts(coeffs, initial, 1.0, tmax)):
        label = s["label"]
        if s["zero_count"] != count:
            problems.append(f"{label}: zero_count {s['zero_count']}, reference {count}")
        elif count and abs(s["last_zero"] - last) > LAST_ZERO_ATOL:
            problems.append(f"{label}: last_zero {s['last_zero']!r}, reference {last!r}")
        # osc3's rule for oscillatory evidence, applied to the reference zeros
        oscillates = count >= report["config"]["min_zeros"] and last > tmax / 10.0
        evidence = evidence or oscillates
        if oscillates != (s["classification"] == "OSCILLATORY_EVIDENCE"):
            problems.append(f"{label}: classification {s['classification']} with {count} reference zeros")
    if report["has_oscillatory_evidence"] != evidence:
        problems.append(f"has_oscillatory_evidence is {report['has_oscillatory_evidence']}, expected {evidence}")
    return problems


def check_sweep(plan: dict) -> list:
    import numpy as np

    from oracles import zero_counts

    inputs = plan["inputs"]
    rows = _read_csv(plan["files"]["out"])
    header = ["b", "lazer_overall", "thm31_overall", "thm32_overall", "thm33_overall", "zero_count"]
    if rows[0] != header:
        return [f"unexpected CSV header {rows[0]}"]
    body = rows[1:]
    if [float(r[0]) for r in body] != inputs["b"]:
        return [f"b column {[r[0] for r in body]}, expected {inputs['b']}"]
    problems = []
    # D(t) = (b - 2 a^(3/2) / (3 sqrt 3)) t^3, which is (b - 2) t^3 for a = 3
    b_crit = 2.0 * SWEEP_A ** 1.5 / (3.0 * math.sqrt(3.0))
    for r in body:
        want = "APPLIES" if float(r[0]) > b_crit else "DOES_NOT_APPLY"
        for name, got in zip(header[1:5], r[1:5]):
            if got != want:
                problems.append(f"b={r[0]}: {name} is {got}, expected {want}")
    (combo,) = _unit_combos(inputs["seed"], 1)
    b = np.array(inputs["b"])

    def coeffs(t):
        return 0.0, -SWEEP_A * t * t, b * t ** 3

    ref = zero_counts(coeffs, [combo] * len(b), 1.0, inputs["tmax"])
    for r, (count, _) in zip(body, ref):
        if int(r[5]) != count:
            problems.append(f"b={r[0]}: zero_count {r[5]}, reference {count}")
    return problems


CHECKS = {"bump-check": check_bump, "growth-verify": check_verify, "lazer-sweep": check_sweep}

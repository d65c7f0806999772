"""The benchmark's checks accept osc3's real outputs and reject wrong ones.

Each test runs one small operation of a workload through osc3's CLI,
checks that the output passes, then damages a copy of the output (one S
sample, one verdict, one zero count) and checks that the damage is caught.
A last test runs a traced operation and checks the tracer's two totals.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import csv
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

pytest.importorskip("scipy")

from osc3.cli import main  # noqa: E402
from workloads import CHECKS, make_plan  # noqa: E402

SMALL = {
    "bump-check": {"grid_count": 18},
    "growth-verify": {"tmax": 6.0, "combos": 2},
    "lazer-sweep": {"points": 2, "grid_count": 40, "tmax": 10.0},
}


def _run(name, tmp_path, seed=3):
    plan = make_plan(name, seed, str(tmp_path), SMALL[name])
    assert main(plan["argv"]) == 0
    assert CHECKS[name](plan) == []
    return plan


def _rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\r\n").writerows(rows)


def _rewrite_json(path, edit):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    edit(doc)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def test_bump_check_rejects_perturbed_sample(tmp_path):
    plan = _run("bump-check", tmp_path)

    def nudge(rows):
        rows[-3][1] = repr(float(rows[-3][1]) * (1.0 + 1e-6))

    _rewrite_csv(plan["files"]["csv"], nudge)
    assert any("reference" in p for p in CHECKS["bump-check"](plan))


def test_bump_check_rejects_flipped_verdict(tmp_path):
    plan = _run("bump-check", tmp_path)

    def flip(doc):
        doc["theorem_reports"][0]["overall"] = "APPLIES"

    _rewrite_json(plan["files"]["out"], flip)
    assert CHECKS["bump-check"](plan) == ["THM31 overall is APPLIES, expected DOES_NOT_APPLY"]


def test_growth_verify_rejects_off_by_one_zero_count(tmp_path):
    plan = _run("growth-verify", tmp_path)

    def bump(doc):
        doc["solutions"][1]["zero_count"] += 1

    _rewrite_json(plan["files"]["out"], bump)
    assert any("e2: zero_count" in p for p in CHECKS["growth-verify"](plan))


def test_growth_verify_rejects_flipped_verdict(tmp_path):
    plan = _run("growth-verify", tmp_path)

    def flip(doc):
        doc["has_oscillatory_evidence"] = not doc["has_oscillatory_evidence"]

    _rewrite_json(plan["files"]["out"], flip)
    assert any("has_oscillatory_evidence" in p for p in CHECKS["growth-verify"](plan))


def test_lazer_sweep_rejects_flipped_verdict_and_zero_count(tmp_path):
    plan = _run("lazer-sweep", tmp_path)

    def flip(rows):
        rows[1][2] = "APPLIES" if rows[1][2] != "APPLIES" else "DOES_NOT_APPLY"

    _rewrite_csv(plan["files"]["out"], flip)
    assert any("thm31_overall" in p for p in CHECKS["lazer-sweep"](plan))
    _rewrite_csv(plan["files"]["out"], flip)
    assert CHECKS["lazer-sweep"](plan) == []

    def bump(rows):
        rows[2][5] = str(int(rows[2][5]) + 1)

    _rewrite_csv(plan["files"]["out"], bump)
    assert any("zero_count" in p for p in CHECKS["lazer-sweep"](plan))


@pytest.mark.parametrize("name", ["growth-verify", "lazer-sweep"])
def test_traced_totals_agree(name, tmp_path):
    import osc3.cli
    import osc3.kamenev
    import osc3.quad
    from tracing import Tracer

    originals = (osc3.quad.integrate_adaptive, osc3.cli.compile_fn)
    plan = make_plan(name, 5, str(tmp_path), SMALL[name])
    tracer = Tracer()
    assert tracer.run_op(0, lambda: main(plan["argv"])) == 0
    assert tracer.identity_problems() == []
    layer = tracer.metrics(1)
    assert layer["ode.steps_accepted"][0] > 0
    assert layer["expr.evals"][0] > 0
    if name == "lazer-sweep":
        assert layer["quad.evals"][0] > 0
        assert all(layer[f"kamenev.{cid}_evals"][0] > 0
                   for cid in ("THM31B", "THM32C", "THM32D", "THM33E", "THM33G", "LAZER"))
    # the originals are back after the traced operation
    assert (osc3.kamenev.integrate_adaptive, osc3.cli.compile_fn) == originals

"""Acceptance battery.

Each test prints exactly one pass/fail line (with wall time) so a full run
reads as a nine-line scorecard.  Budgets are asserted where the criterion
carries one.  Every expected number here was either derived by an
independent oracle in this suite or verified against closed forms noted
inline.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_poly_model
from osc3.cli import main
from osc3.coeffs import build_model, d_closed, d_oracle
from osc3.fixtures import get_fixture
from osc3.kamenev import (
    APPLIES,
    BOUNDED,
    DIVERGES,
    kamenev_transform,
    theorem_verdict,
)
from osc3.ode import (
    OdeControls,
    count_zeros,
    integrate_third_order,
    oscillation_report,
)
from osc3.quad import integrate_adaptive
from osc3.riccati import (
    RiccatiProblem,
    bernoulli_closed,
    comparison_check,
    riccati2_residual,
    solve_riccati1,
)

LAZER_CONST = 2.0 / (3.0 * math.sqrt(3.0))  # D = r - LAZER_CONST (-q)^(3/2) at p = 0, q <= 0


def _run(capsys, num, label, budget, fn):
    t0 = time.perf_counter()
    ok = False
    try:
        fn()
        elapsed = time.perf_counter() - t0
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            state = "PASS" if ok else "FAIL"
            print(f"criterion {num}: {state} ({elapsed:5.1f}s) {label}")


def test_criterion_1_minimum_function_oracle(capsys):
    def body():
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = random_poly_model(rng)
            for t in rng.uniform(1.0, 10.0, 3):
                t = float(t)
                assert abs(d_closed(m, t) - d_oracle(m, t)) <= 1e-7
        # p = 0, q <= 0 collapses to r - (2/(3 sqrt 3)) (-q)^{3/2}
        for q, r in ((-3.0, 5.0), (-1.0, 0.0), (-4.0, 1.0), (-0.25, 2.0)):
            m = build_model("0", repr(q), repr(r))
            exact = r - LAZER_CONST * (-q) ** 1.5
            got = d_closed(m, 3.7)
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    _run(capsys, 1, "closed-form minimum matches grid+golden oracle", 10.0, body)


def test_criterion_2_transform_monotonicity(capsys):
    def body():
        rng = np.random.default_rng(22)
        for _ in range(100):
            c = rng.uniform(0.2, 2.0, 3)
            b = rng.uniform(0.0, 1.5, 2)
            w = rng.uniform(0.3, 3.0, 2)

            def f2(t, c=c, w=w):
                return c[0] + c[1] * math.sin(w[0] * t) ** 2

            def f1(t, c=c, b=b, w=w):
                return f2(t) + b[0] + b[1] * math.cos(w[1] * t) ** 2

            for alpha in (0.5, 1.0, 2.0):
                for t in rng.uniform(1.5, 30.0, 10):
                    t = float(t)
                    hi = kamenev_transform(f1, 1.0, alpha, t, tol=1e-7)
                    lo = kamenev_transform(f2, 1.0, alpha, t, tol=1e-7)
                    assert hi >= lo - 1e-9

    _run(capsys, 2, "weighted average preserves pointwise ordering", 10.0, body)


def test_criterion_3_trivial_fixture_full_stack(capsys):
    def body():
        fx = get_fixture("lazer")
        model = fx.build()
        grid = fx.grid()
        for thm in ("LAZER", "THM31", "THM32"):
            rep = theorem_verdict(model, thm, alpha=1.0, grid=grid)
            assert rep.overall == APPLIES, thm
        rep = theorem_verdict(fx.build_split(model), "THM33", alpha=2.0, grid=grid)
        assert rep.overall == APPLIES
        # direct integration: zeros land 2 pi / sqrt 3 apart in the tail
        traj = integrate_third_order(model, (1.0, 0.0, 0.0), 100.0)
        zeros = [z.t for z in count_zeros(traj)]
        assert len(zeros) >= 25
        spacing = 2.0 * math.pi / math.sqrt(3.0)
        for gap in np.diff(zeros[-6:]):
            assert abs(gap - spacing) <= 1e-2
        report = oscillation_report(model, 100.0, n_random=5, seed=42)
        assert report.has_oscillatory_evidence
        assert max(s.zero_count for s in report.solutions) >= 25

    _run(capsys, 3, "all theorems apply to p=q=0, r=1 and zeros match", 30.0, body)


def test_criterion_4_grown_damping_fixture(capsys):
    def body():
        fx = get_fixture("example31")
        model = fx.build()
        grid = fx.grid()
        rep32 = theorem_verdict(model, "THM32", alpha=1.0, grid=grid)
        assert rep32.condition_results["c"].kind == DIVERGES
        assert rep32.condition_results["d"].kind == DIVERGES
        assert rep32.overall == APPLIES
        rep31 = theorem_verdict(model, "THM31", alpha=1.0, grid=grid)
        b = rep31.condition_results["b"]
        assert b.kind != DIVERGES
        traj = rep31.trajectories["b"]
        early = traj.values[traj.t <= 1e3]
        assert early.min() < -1e3  # the penalty term wins long before 10^3
        tail = traj.values[len(traj.values) // 2 :]
        assert np.all(np.diff(tail) < 0.0)
        # direct integration of the corrected equation still oscillates
        ode_model = fx.build_ode_model()
        report = oscillation_report(
            ode_model,
            50.0,
            n_random=2,
            seed=0,
            controls=OdeControls(rel_tol=1e-6, abs_tol=1e-9),
        )
        assert report.has_oscillatory_evidence

    _run(capsys, 4, "strong damping: weighted tests split, equation oscillates", 60.0, body)


def test_criterion_5_bump_train_fixture(capsys):
    def body():
        fx = get_fixture("example32")
        model = fx.build()
        # mass of each squared bump: 3 M^2 n / 8
        M = model.params["M"]
        for n in range(1, 6):
            g = lambda t: min(model.p_at(t), 0.0) ** 2
            edges = [float(n), float(n) + float(n) ** -5.0]
            got = integrate_adaptive(g, float(n), float(n + 1), 1e-9, breakpoints=edges)
            expect = 3.0 * M * M * n / 8.0
            assert abs(got.value - expect) <= 0.01 * expect, (n, got.value, expect)
        grid = fx.grid()
        split = fx.build_split(model)
        rep33 = theorem_verdict(split, "THM33", alpha=2.0, grid=grid)
        assert rep33.condition_results["e"].kind == BOUNDED
        assert rep33.condition_results["f"].holds
        assert rep33.condition_results["g"].kind == DIVERGES
        assert rep33.overall == APPLIES
        rep31 = theorem_verdict(model, "THM31", alpha=2.0, grid=grid)
        assert rep31.condition_results["b"].kind != DIVERGES

    _run(capsys, 5, "bump train: alpha>1 test applies, penalty test does not", 120.0, body)


def test_criterion_6_second_order_identity(capsys):
    def body():
        cases = [
            (build_model("0", "0", "1"), (1.0, -1.0, 1.0), 15.0, None),
            (build_model("1", "1", "1"), (1.0, -1.0, 1.0), 15.0, None),
            (get_fixture("example31").build(), (1.0, 1.0, 1.0), 4.0, None),
        ]
        for model, init, t_max, window in cases:
            traj = integrate_third_order(model, init, t_max)
            rep = riccati2_residual(model, traj, window=window)
            assert rep.max_abs <= 1e-6, (init, rep.max_abs)

    _run(capsys, 6, "log-derivative satisfies the second order equation", None, body)


def test_criterion_7_explicit_solution_formula(capsys):
    def body():
        drags = [
            lambda s: 0.0,
            lambda s: -1.0,
            lambda s: -1.0 / s,
            lambda s: -s / (1.0 + s * s),
        ]
        checked = 0
        for pm in drags:
            for u1 in (0.25, 0.5, 1.0, 2.0, 4.0):
                sol = solve_riccati1(RiccatiProblem(1.5, pm, 0.0, 1.0, u1), 6.0)
                for t in (2.0, 4.0, 6.0):
                    assert abs(bernoulli_closed(u1, 1.0, pm, t) - sol.at(t)[0]) <= 1e-6
                checked += 1
        assert checked == 20

    _run(capsys, 7, "explicit solution matches direct integration", None, body)


def test_criterion_8_comparison_harness(capsys):
    def body():
        p = RiccatiProblem(1.0, 0.0, 0.0, 0.0, 1.0)
        ident = comparison_check(p, p, 1.0, 1.0, 1.0, 5.0)
        assert ident.ordering_ok and ident.hypothesis_ok
        assert max(abs(ident.y1.at(t)[0] - ident.y2.at(t)[0]) for t in ident.trace_grid) == 0.0
        assert np.min(ident.trace) >= 0.0
        p1 = RiccatiProblem(0.0, 0.0, -1.0, 0.0, 0.0)
        p2 = RiccatiProblem(0.0, 0.0, 0.0, 0.0, 0.0)
        lin = comparison_check(p1, p2, lambda t: t, 0.0, 0.0, 5.0)
        assert lin.ordering_ok
        for t in lin.trace_grid:
            assert abs(lin.y1.at(t)[0] - lin.y2.at(t)[0] - t) <= 1e-8
        assert np.min(lin.trace) >= 0.0

    _run(capsys, 8, "ordering harness: identity and linear fixtures", None, body)


def test_criterion_9_byte_determinism(capsys, tmp_path):
    def body():
        for name in ("lazer", "example31", "example32"):
            a = tmp_path / f"{name}_a.json"
            b = tmp_path / f"{name}_b.json"
            assert main(["check", "--fixture", name, "--out", str(a)]) == 0
            assert main(["check", "--fixture", name, "--out", str(b)]) == 0
            blob_a = a.read_bytes()
            assert blob_a == b.read_bytes(), name
            json.loads(blob_a.decode())  # stays parseable

    _run(capsys, 9, "repeated check runs are byte-identical", None, body)

"""First and second order Riccati checks plus the ordering harness."""

import math

import numpy as np
import pytest

from osc3.coeffs import build_model
from osc3.fixtures import get_fixture
from osc3.ode import OdeControls, integrate_third_order
from osc3.riccati import (
    AS_WRITTEN,
    ETA_CHECK_POINTS,
    ETA_CHECK_TOL,
    LINEARIZED,
    ComparisonPreconditionError,
    RiccatiProblem,
    _eta_residual_check,
    bernoulli_closed,
    comparison_check,
    riccati2_residual,
    solve_riccati1,
)


class TestSolveRiccati1:
    def test_pure_quadratic_decay(self):
        # y' = -y^2, y(1) = 1 has y = 1/t
        sol = solve_riccati1(RiccatiProblem(1.0, 0.0, 0.0, 1.0, 1.0), 10.0)
        assert sol.status == "completed"
        assert sol.at(9.0)[0] == pytest.approx(1.0 / 9.0, abs=1e-8)

    def test_linear_case(self):
        # f = 0 reduces to y' = -2y + 3 from 0: y = 1.5 (1 - e^{-2t})
        sol = solve_riccati1(RiccatiProblem(0.0, 2.0, -3.0, 0.0, 0.0), 4.0)
        for t in np.linspace(0.0, 4.0, 21):
            t = float(t)
            assert sol.at(t)[0] == pytest.approx(1.5 * (1.0 - math.exp(-2.0 * t)), abs=1e-7)

    def test_finite_time_escape_detected(self):
        # y' = y^2 + 1 from 0 is tan(t), escaping at pi/2
        sol = solve_riccati1(RiccatiProblem(-1.0, 0.0, -1.0, 0.0, 0.0), 3.0)
        assert sol.status == "blow_up"
        assert 1.56 < sol.t[-1] < 1.59

    def test_callable_coefficients(self):
        # y' = -(1.5 y^2 - y/t) with the exact closed form below
        pm = lambda t: -1.0 / t
        sol = solve_riccati1(RiccatiProblem(1.5, pm, 0.0, 1.0, 1.0), 6.0)
        exact = lambda t: t / (1.0 + 0.75 * (t * t - 1.0))
        for t in (2.0, 4.0, 6.0):
            assert sol.at(t)[0] == pytest.approx(exact(t), rel=1e-7)


class TestBernoulliClosed:
    def test_no_drag_case(self):
        # p_- = 0: u = u1 / (1 + 1.5 u1 (t - T1))
        for u1 in (0.5, 1.0, 2.0):
            for t in (1.5, 3.0, 7.0):
                expect = u1 / (1.0 + 1.5 * u1 * (t - 1.0))
                assert bernoulli_closed(u1, 1.0, lambda s: 0.0, t) == pytest.approx(
                    expect, rel=1e-9
                )

    def test_constant_drag_case(self):
        # p_- = -1: E = e^{t-T1}, int E = e^{t-T1} - 1
        u1, t = 2.0, 3.0
        e = math.exp(t - 1.0)
        expect = u1 * e / (1.0 + 1.5 * u1 * (e - 1.0))
        assert bernoulli_closed(u1, 1.0, lambda s: -1.0, t) == pytest.approx(expect, rel=1e-8)

    def test_harmonic_drag_case(self):
        # p_- = -1/t: E = t/T1, int E = (t^2 - T1^2)/(2 T1)
        u1, t = 1.0, 4.0
        expect = u1 * t / (1.0 + 1.5 * u1 * (t * t - 1.0) / 2.0)
        assert bernoulli_closed(u1, 1.0, lambda s: -1.0 / s, t) == pytest.approx(expect, rel=1e-8)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bernoulli_closed(0.0, 1.0, lambda s: 0.0, 2.0)
        with pytest.raises(ValueError):
            bernoulli_closed(1.0, 2.0, lambda s: 0.0, 1.0)
        assert bernoulli_closed(3.0, 2.0, lambda s: 0.0, 2.0) == 3.0

    def test_against_numeric_battery(self):
        # twenty drag/start combinations integrated directly
        drags = [
            lambda s: 0.0,
            lambda s: -1.0,
            lambda s: -1.0 / s,
            lambda s: -s / (1.0 + s * s),
        ]
        starts = (0.25, 0.5, 1.0, 2.0, 4.0)
        checked = 0
        for pm in drags:
            for u1 in starts:
                sol = solve_riccati1(RiccatiProblem(1.5, pm, 0.0, 1.0, u1), 6.0)
                for t in (2.0, 4.0, 6.0):
                    closed = bernoulli_closed(u1, 1.0, pm, t)
                    assert abs(closed - sol.at(t)[0]) <= 1e-6
                checked += 1
        assert checked == 20


class TestSecondOrderResidual:
    def test_decaying_exponential_solution(self):
        # phi''' + phi = 0 with phi = e^{-(t-1)}: y = -1 solves the
        # second order equation exactly
        m = build_model("0", "0", "1")
        traj = integrate_third_order(m, (1.0, -1.0, 1.0), 15.0)
        rep = riccati2_residual(m, traj)
        assert rep.max_abs <= 1e-8

    def test_constant_coefficient_full_set(self):
        # p = q = r = 1 also has the root -1
        m = build_model("1", "1", "1")
        traj = integrate_third_order(m, (1.0, -1.0, 1.0), 15.0)
        rep = riccati2_residual(m, traj)
        assert rep.max_abs <= 1e-8

    def test_generic_fixture_positive_window(self):
        model = get_fixture("example31").build()
        traj = integrate_third_order(model, (1.0, 1.0, 1.0), 4.0)
        rep = riccati2_residual(model, traj)
        assert rep.n_points >= 8
        assert rep.max_abs <= 1e-6

    def test_window_containing_zero_rejected(self):
        m = build_model("0", "0", "1")
        traj = integrate_third_order(m, (1.0, 0.0, 0.0), 20.0)
        with pytest.raises(ValueError):
            riccati2_residual(m, traj, window=(1.0, 20.0))


class TestComparisonCheck:
    def test_identity_fixture(self):
        p = RiccatiProblem(1.0, 0.0, 0.0, 0.0, 1.0)
        rep = comparison_check(p, p, 1.0, 1.0, 1.0, 5.0)
        assert rep.ordering_ok
        assert rep.first_violation is None
        assert rep.hypothesis_ok
        assert rep.hypothesis_min == 0.0
        diffs = [abs(rep.y1.at(t)[0] - rep.y2.at(t)[0]) for t in rep.trace_grid]
        assert max(diffs) == 0.0

    def test_each_function_is_read_once_per_grid_point(self, monkeypatch):
        # outside the two solves f1 is read at the n_grid trace points and
        # at the ETA_CHECK_POINTS points of eta1's inequality, once each
        import osc3.riccati

        solve, solving, calls = osc3.riccati.solve_riccati1, [], []

        def quiet_solve(prob, t_max):
            solving.append(True)
            try:
                return solve(prob, t_max)
            finally:
                solving.pop()

        def f1(t):
            if not solving:
                calls.append(t)
            return 1.0

        monkeypatch.setattr(osc3.riccati, "solve_riccati1", quiet_solve)
        p1 = RiccatiProblem(f1, 0.0, 0.0, 0.0, 1.0)
        p2 = RiccatiProblem(1.0, 0.0, 0.0, 0.0, 1.0)
        rep = comparison_check(p1, p2, 1.0, 1.0, 1.0, 5.0, n_grid=50)
        assert rep.ordering_ok and rep.hypothesis_ok
        assert len(calls) == 50 + ETA_CHECK_POINTS

    def test_eta_margin_is_the_pointwise_loops(self):
        # the array check against a loop over the grid, bit for bit
        from osc3.cli import build_comparison_fixture

        b = build_comparison_fixture("thm32-usage")
        eta, prob = b["eta2"], b["prob2"]
        grid = np.linspace(prob.t_start, b["t_max"], ETA_CHECK_POINTS)
        dh = max(1e-5 * (grid[-1] - grid[0]), 1e-8)
        margins = []
        for t in grid:
            e0, f, g, h = eta(t), prob.f_at(t), prob.g_at(t), prob.h_at(t)
            d_eta = (eta(t + dh) - eta(t - dh)) / (2.0 * dh)
            res = d_eta + f * e0 * e0 + g * e0 + h
            margins.append(res + ETA_CHECK_TOL * (1.0 + abs(f * e0 * e0) + abs(g * e0) + abs(h) + abs(d_eta)))
        k = min(range(len(grid)), key=margins.__getitem__)
        got = _eta_residual_check(2, eta, prob, grid, ETA_CHECK_TOL)
        assert got == {"ok": True, "min_residual_margin": margins[k], "at": grid[k]}

    def test_linear_fixture_exact_gap(self):
        # y1' = 1 against y2' = 0 from the same start: y1 - y2 = t
        p1 = RiccatiProblem(0.0, 0.0, -1.0, 0.0, 0.0)
        p2 = RiccatiProblem(0.0, 0.0, 0.0, 0.0, 0.0)
        rep = comparison_check(p1, p2, lambda t: t, 0.0, 0.0, 5.0)
        assert rep.ordering_ok
        for t in rep.trace_grid:
            assert abs(rep.y1.at(t)[0] - rep.y2.at(t)[0] - t) <= 1e-8
        assert np.min(rep.trace) >= 0.0

    def test_variant_changes_hypothesis_outcome(self):
        # y1 = 1/(1+t) falls below y2 = 1; the squared-difference variant
        # cannot see the drop while the linear one can
        pa = RiccatiProblem(1.0, 0.0, 0.0, 0.0, 1.0)
        pb = RiccatiProblem(0.0, 0.0, 0.0, 0.0, 1.0)
        as_written = comparison_check(pa, pb, 1.0, 1.0, 1.0, 3.0, AS_WRITTEN)
        assert as_written.hypothesis_ok
        assert not as_written.ordering_ok
        assert as_written.first_violation is not None
        linearized = comparison_check(pa, pb, 1.0, 1.0, 1.0, 3.0, LINEARIZED)
        assert not linearized.hypothesis_ok
        assert linearized.hypothesis_min < 0.0

    def test_negative_f1_rejected(self):
        pb = RiccatiProblem(0.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ComparisonPreconditionError, match="f1_nonnegative"):
            comparison_check(RiccatiProblem(-1.0, 0.0, 0.0, 0.0, 1.0), pb, 1.0, 1.0, 1.0, 2.0)

    def test_gamma_outside_bracket_rejected(self):
        pa = RiccatiProblem(1.0, 0.0, 0.0, 0.0, 1.0)
        pb = RiccatiProblem(0.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ComparisonPreconditionError, match="gamma_range"):
            comparison_check(pa, pb, 1.0, 1.0, 5.0, 2.0)

    def test_fence_violating_inequality_rejected(self):
        # eta1 = e^{-3t} sinks much faster than any solution of y' = -y^2
        pa = RiccatiProblem(1.0, 0.0, 0.0, 0.0, 1.0)
        pb = RiccatiProblem(0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ComparisonPreconditionError, match="eta1_inequality"):
            comparison_check(pa, pb, lambda t: math.exp(-3.0 * t), 0.0, 0.5, 2.0)

    def test_mismatched_starts_rejected(self):
        pa = RiccatiProblem(1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            comparison_check(pa, RiccatiProblem(0.0, 0.0, 0.0, 1.0, 1.0), 1.0, 1.0, 1.0, 2.0)

    def test_unknown_variant_rejected(self):
        pa = RiccatiProblem(1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            comparison_check(pa, pa, 1.0, 1.0, 1.0, 2.0, "WEIRD")

    def test_report_serializes(self):
        p = RiccatiProblem(1.0, 0.0, 0.0, 0.0, 1.0)
        rep = comparison_check(p, p, 1.0, 1.0, 1.0, 5.0)
        d = rep.to_dict()
        assert d["variant"] == AS_WRITTEN
        assert d["hypothesis_ok"] is True
        assert d["ordering_ok"] is True
        assert d["n_trace_points"] == len(rep.trace_grid)
        assert isinstance(d["y1_end"], float)

"""Direct integration, zero counting, classification, and the wronskian.

The DOP853 reference zeros of the moving-frame tests are stored in
tests/golden/scipy_zeros.json with the inputs they were solved for; rewrite
them (after a deliberate change to those inputs; the solves take about
20 s) with

    PYTHONPATH=src python tests/test_ode.py
"""

import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from osc3.coeffs import build_model, d_closed
from osc3.fixtures import get_fixture
from osc3.ode import (
    COMPLETED,
    MAX_STEPS,
    OSCILLATORY_EVIDENCE,
    RENORM_THRESHOLD,
    TYPE_2_1,
    TYPE_3_2,
    ZERO_TOL,
    OdeControls,
    StepStats,
    Trajectory,
    _TABLEAU,
    _STEP_TEMPLATE,
    _integrate,
    _rate,
    classify_lemma21,
    count_zeros,
    fundamental_basis,
    integrate_third_order,
    oscillation_report,
    wronskian,
)


def linear_deriv(model, width=3):
    """The right side phi''' = -(p phi'' + q phi' + r phi) as a first-order
    system in (phi, phi', phi'') of width // 3 solutions, row by row, for the
    plain step loop (an escape bound, no frame) and for scipy."""
    n = width // 3
    p_at, q_at, r_at = model.p_at, model.q_at, model.r_at

    def deriv(t, *y):
        p, q, r = p_at(t), q_at(t), r_at(t)
        return (*y[n:], *(-(p * y[2 * n + j] + q * y[n + j] + r * y[j]) for j in range(n)))

    return deriv


TRIPLE_ZERO = build_model("0", "0", "0")  # phi''' = 0, polynomial solutions
UNIT_R = build_model("0", "0", "1")  # phi''' + phi = 0


class TestIntegrationAccuracy:
    def test_polynomial_solution_exact(self):
        traj = integrate_third_order(TRIPLE_ZERO, (1.0, 1.0, 0.0), 10.0)
        assert traj.status == COMPLETED
        assert traj.at(10.0)[0] == pytest.approx(10.0, abs=1e-10)
        assert traj.at(4.5)[0] == pytest.approx(4.5, abs=1e-10)

    def test_constant_coefficient_closed_form(self):
        # phi''' + phi = 0 from (1,0,0) at t0 = 1; roots -1 and 1/2 +- i sqrt3/2
        traj = integrate_third_order(UNIT_R, (1.0, 0.0, 0.0), 5.0)

        def exact(t):
            s = t - 1.0
            return (1.0 / 3.0) * math.exp(-s) + (2.0 / 3.0) * math.exp(s / 2.0) * math.cos(
                math.sqrt(3.0) * s / 2.0
            )

        for t in (2.0, 3.3, 5.0):
            got = traj.at(t)[0] * math.exp(float(traj.log_scale[traj._segment(t)]))
            assert got == pytest.approx(exact(t), abs=1e-6)

    def test_pure_growth_mode(self):
        # phi''' = phi with the (1,1,1) eigen-direction gives e^(t-1)
        m = build_model("0", "0", "-1")
        traj = integrate_third_order(m, (1.0, 1.0, 1.0), 20.0)
        got = traj.at(5.0)[0] * math.exp(float(traj.log_scale[traj._segment(5.0)]))
        assert got == pytest.approx(math.exp(4.0), rel=1e-6)

    def test_state_outside_span_rejected(self):
        traj = integrate_third_order(TRIPLE_ZERO, (1.0, 0.0, 0.0), 5.0)
        with pytest.raises(ValueError):
            traj.at(5.5)


class TestTrajectory:
    @pytest.mark.parametrize("name, t_max", [("lazer", 60.0), ("example31", 12.0), ("example32", 6.0)])
    def test_slopes_are_the_right_side_at_each_node(self, name, t_max):
        fx = get_fixture(name)
        model = fx.build_ode_model()
        traj = integrate_third_order(model, (1.0, 0.0, 0.0), t_max)
        assert traj.status == COMPLETED
        if name == "example31":
            assert traj.log_scale[-1] > 0.0  # the check covers a rescale
        deriv = linear_deriv(model)
        for k in range(len(traj.t)):
            expect = np.array(deriv(float(traj.t[k]), *traj.states[k].tolist()))
            assert traj.slopes[k].tobytes() == expect.tobytes(), k
        for k in range(len(traj.t) - 1):
            assert np.array_equal(traj.at(traj.t[k]), traj.states[k]), k

    def test_matrix_slopes_are_the_right_side_at_each_node(self):
        model = get_fixture("example31").build_ode_model()
        phi = integrate_third_order(model, np.eye(3), 12.0)
        assert phi.log_scale[-1] > 0.0
        deriv = linear_deriv(model, 9)
        for k in range(len(phi.t)):
            expect = np.array(deriv(float(phi.t[k]), *phi.states[k].tolist()))
            assert phi.slopes[k].tobytes() == expect.tobytes(), k
        for k in range(len(phi.t) - 1):
            assert np.array_equal(phi.at(phi.t[k]), phi.states[k]), k


class TestZeroCounting:
    def test_single_root_located(self):
        # phi = t - 5 via phi''' = 0
        traj = integrate_third_order(TRIPLE_ZERO, (-4.0, 1.0, 0.0), 10.0)
        zeros = count_zeros(traj)
        assert len(zeros) == 1
        assert zeros[0].t == pytest.approx(5.0, abs=1e-8)
        assert zeros[0].bracket_lo <= zeros[0].t <= zeros[0].bracket_hi
        assert zeros[0].bracket_hi - zeros[0].bracket_lo <= ZERO_TOL

    def test_zero_tol_is_recorded_not_set(self):
        assert OdeControls().as_dict()["zero_tol"] == ZERO_TOL
        with pytest.raises(TypeError):
            OdeControls(zero_tol=1e-6)

    def test_positive_solution_has_no_zeros(self):
        traj = integrate_third_order(TRIPLE_ZERO, (2.0, 1.0, 0.0), 10.0)
        assert count_zeros(traj) == []

    def test_sign_change_found_where_the_product_underflows(self):
        # 1e-170 * -1e-170 underflows to -0.0, so signs must be compared
        slope = -2e-170
        states = np.array([[1e-170, slope, 0.0], [-1e-170, slope, 0.0]])
        traj = Trajectory(
            t=np.array([1.0, 2.0]),
            states=states,
            slopes=np.zeros_like(states),
            log_scale=np.zeros(2),
            status=COMPLETED,
            stats=StepStats(),
        )
        zeros = count_zeros(traj)
        assert len(zeros) == 1
        assert zeros[0].t == pytest.approx(1.5, abs=ZERO_TOL)

    def test_close_pair_inside_one_step(self):
        # phi = (t - 5)^2 - 0.02^2 keeps its sign at both ends of the step
        # that holds both of its zeros; the interior samples find them
        traj = integrate_third_order(TRIPLE_ZERO, (16.0 - 0.02**2, -8.0, 2.0), 8.0)
        k = traj._segment(4.98)
        assert traj._segment(5.02) == k
        assert traj.states[k, 0] > 0.0 and traj.states[k + 1, 0] > 0.0
        zeros = count_zeros(traj)
        assert [z.t for z in zeros] == pytest.approx([4.98, 5.02], abs=ZERO_TOL)

    def test_count_grows_with_horizon(self):
        n_short = len(count_zeros(integrate_third_order(UNIT_R, (1.0, 0.0, 0.0), 40.0)))
        n_long = len(count_zeros(integrate_third_order(UNIT_R, (1.0, 0.0, 0.0), 100.0)))
        assert n_short == 11
        assert n_long == 27
        assert n_long > n_short

    def test_tail_spacing_constant_coefficient(self):
        # zeros of e^(t/2) cos(sqrt3 t / 2 + c) are 2 pi / sqrt 3 apart
        traj = integrate_third_order(UNIT_R, (1.0, 0.0, 0.0), 100.0)
        gaps = np.diff([z.t for z in count_zeros(traj)])
        assert gaps[-5:] == pytest.approx(2.0 * math.pi / math.sqrt(3.0), abs=1e-6)


class TestClassification:
    def test_decaying_monotone_tail(self):
        # the pure e^{-(t-1)} direction of phi''' + phi = 0
        traj = integrate_third_order(UNIT_R, (1.0, -1.0, 1.0), 20.0)
        assert classify_lemma21(traj) == TYPE_2_1

    def test_growing_tail(self):
        m = build_model("0", "0", "-1")
        traj = integrate_third_order(m, (1.0, 1.0, 1.0), 20.0)
        assert classify_lemma21(traj) == TYPE_3_2

    @pytest.mark.parametrize("t_max", [100.0, 150.0, 400.0])
    def test_growing_tail_over_many_decades(self, t_max):
        # e^(t-1) spans 16 decades of the tail at t = 150 and 43 at t = 400;
        # each sample is judged against its own node's jet
        m = build_model("0", "0", "-1")
        traj = integrate_third_order(m, (1.0, 1.0, 1.0), t_max)
        assert classify_lemma21(traj) == TYPE_3_2

    def test_tail_read_between_nodes(self):
        # steps of 5 leave two nodes in the tail; the samples are read
        # between them, so the pattern is still seen
        m = build_model("0", "0", "-1")
        traj = integrate_third_order(m, (1.0, 1.0, 1.0), 20.0, OdeControls(h_max=5.0))
        assert int(np.sum(traj.t >= 20.0 - 0.25 * 19.0)) < 8
        assert classify_lemma21(traj) == TYPE_3_2

    def test_oscillatory_tail(self):
        traj = integrate_third_order(UNIT_R, (1.0, 0.0, 0.0), 20.0)
        assert classify_lemma21(traj) == OSCILLATORY_EVIDENCE

    def test_report_on_oscillatory_fixture(self):
        rep = oscillation_report(UNIT_R, 100.0, n_random=3, seed=1)
        assert rep.has_oscillatory_evidence
        assert len(rep.solutions) == 3 + 3  # basis plus random combinations
        labels = [s.label for s in rep.solutions]
        assert len(set(labels)) == len(labels)
        by_label = {s.label: s for s in rep.solutions}
        assert any(s.classification == OSCILLATORY_EVIDENCE for s in rep.solutions)
        assert all(s.status == COMPLETED for s in rep.solutions)
        assert by_label == {s.label: s for s in rep.solutions}

    def test_report_deterministic_in_seed(self):
        a = oscillation_report(UNIT_R, 30.0, n_random=2, seed=7)
        b = oscillation_report(UNIT_R, 30.0, n_random=2, seed=7)
        assert [s.initial for s in a.solutions] == [s.initial for s in b.solutions]
        c = oscillation_report(UNIT_R, 30.0, n_random=2, seed=8)
        assert [s.initial for s in a.solutions] != [s.initial for s in c.solutions]


class TestWronskian:
    def test_basis_starts_at_identity(self):
        basis = fundamental_basis(UNIT_R, 10.0)
        assert len(basis) == 3
        assert wronskian(basis, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_first_order_trace_formula(self):
        # W(t) = exp(-int p) with p = -t^2: W(3) = e^{26/3}
        m = build_model("-t^2", "0", "1")
        basis = fundamental_basis(m, 5.0)
        assert wronskian(basis, 3.0) == pytest.approx(math.exp(26.0 / 3.0), rel=1e-5)

    def test_trace_free_equation_keeps_w_constant(self):
        basis = fundamental_basis(UNIT_R, 15.0)
        for t in (2.0, 7.5, 15.0):
            assert wronskian(basis, t) == pytest.approx(1.0, rel=1e-6)

    def test_log_factors_combined_in_log_space(self):
        # scale sum alone overflows exp() but the tiny stored determinant
        # pulls the true value back into range
        stats = StepStats()

        def synth(column, log):
            states = np.vstack([column, column])
            return Trajectory(
                t=np.array([1.0, 2.0]),
                states=states,
                slopes=np.zeros_like(states),
                log_scale=np.array([log, log]),
                status=COMPLETED,
                stats=stats,
            )

        basis = [
            synth(np.array([1.0, 0.0, 0.0]), 250.0),
            synth(np.array([0.0, 1.0, 0.0]), 250.0),
            synth(np.array([0.0, 0.0, 1e-40]), 250.0),
        ]
        w = wronskian(basis, 2.0)
        assert math.isfinite(w)
        assert math.log(w) == pytest.approx(750.0 + math.log(1e-40), rel=1e-12)


class TestRenormalization:
    """Fast-growing oscillatory equations only finish because the stepper
    rescales the state; the rescaled run must agree with a plain run over
    the span the plain run can reach."""

    def test_agreement_with_unrenormalized_run(self):
        fx = get_fixture("example31")
        model = fx.build_ode_model()
        ctl = OdeControls(rel_tol=1e-8)
        tr_r = integrate_third_order(model, (1.0, 0.0, 0.0), 12.0, ctl)
        # an escape bound turns the frame off; exp(12^3 / 3) stays below it
        deriv = linear_deriv(model)
        tr_p = _integrate(deriv, model.t0, (1.0, 0.0, 0.0), 12.0, ctl, escape=1e300)
        assert tr_r.status == COMPLETED
        assert tr_p.status == COMPLETED
        assert tr_r.log_scale[-1] > 100.0
        z_r = [z.t for z in count_zeros(tr_r)]
        z_p = [z.t for z in count_zeros(tr_p)]
        assert len(z_r) == len(z_p)
        # the frame takes steps of its own, so the two runs no longer agree
        # step for step: each is held on its own to a DOP853 reference, with
        # the 1e-6 this file allows between solves on different steps
        integrate = pytest.importorskip("scipy.integrate")
        want = _scipy_zeros(model, (1.0, 0.0, 0.0), 12.0)
        ref = integrate.solve_ivp(
            lambda t, y: deriv(t, *y), (model.t0, 5.0), (1.0, 0.0, 0.0), method="DOP853",
            rtol=1e-13, atol=1e-300, first_step=1e-3,
        )
        jet = ref.y[:, -1]
        for tr, z in ((tr_r, z_r), (tr_p, z_p)):
            assert len(z) == len(want)
            assert np.max(np.abs(np.asarray(z) - np.asarray(want))) <= 1e-6
            # the stored values are divided by exp(log_scale)
            got = tr.at(5.0) * math.exp(float(tr.log_scale[tr._segment(5.0)]))
            assert np.max(np.abs(got - jet)) <= 1e-6 * np.max(np.abs(jet))

    def test_zero_count_stable_across_tolerance(self):
        fx = get_fixture("example31")
        model = fx.build_ode_model()
        counts = []
        for rel in (1e-6, 1e-8):
            tr = integrate_third_order(model, (1.0, 0.0, 0.0), 20.0, OdeControls(rel_tol=rel))
            assert tr.status == COMPLETED
            counts.append(len(count_zeros(tr)))
        assert counts[0] == counts[1]


class TestContract:
    def test_controls_record_the_rescaling_threshold(self):
        d = OdeControls().as_dict()
        assert d["renorm_threshold"] == RENORM_THRESHOLD
        assert "blow_up" not in d

    def test_span_beyond_the_step_budget_is_refused(self):
        ctl = OdeControls(h_max=1e-3)
        with pytest.raises(ValueError, match="h_max"):
            integrate_third_order(UNIT_R, (1.0, 0.0, 0.0), 1.0 + MAX_STEPS * 1e-3 * 1.01, ctl)


class TestEngineeredFixtures:
    def test_corrected_equation_has_stated_minimum_function(self):
        # the corrected r source reinstates the correction term, making the
        # honest minimum function equal N t^beta
        model = get_fixture("example31").build_ode_model()
        for t in np.linspace(1.0, 40.0, 23):
            t = float(t)
            assert d_closed(model, t) == pytest.approx(t**2, rel=1e-9)

    def test_bump_fixture_integrates_cleanly(self):
        fx = get_fixture("example32")
        model = fx.build()
        ctl = OdeControls(rel_tol=1e-8)
        traj = integrate_third_order(model, (1.0, 0.0, 0.0), 6.0, ctl)
        assert traj.status == COMPLETED
        assert traj.warnings == []


class TestFundamentalMatrix:
    """``oscillation_report`` and ``fundamental_basis`` solve once for the
    fundamental matrix Phi and read every solution as Phi v; each reading
    must agree with a solve of its own from v."""

    @pytest.mark.parametrize(
        "model, t_max",
        [
            (get_fixture("example31").build_ode_model(), 12.0),
            (get_fixture("lazer").build_ode_model(), 60.0),
            (UNIT_R, 60.0),
        ],
        ids=["example31", "lazer", "constant"],
    )
    def test_report_matches_per_solution_solves(self, model, t_max):
        controls = OdeControls()
        report = oscillation_report(model, t_max, n_random=2, seed=3, controls=controls)
        assert len(report.solutions) == 5
        deriv = linear_deriv(model)
        for s in report.solutions:
            # the plain loop, outside the frame; no solution here passes 1e300
            traj = _integrate(deriv, model.t0, s.initial, t_max, controls, escape=1e300)
            zeros = count_zeros(traj)
            assert s.zero_count == len(zeros), s.label
            assert s.classification == classify_lemma21(traj, zeros=zeros), s.label
            assert (s.status, s.t_end) == (traj.status, traj.t_end), s.label
            if zeros:
                assert abs(s.last_zero - zeros[-1].t) <= 1e-6, s.label

    def test_one_solve_per_report_and_basis(self, monkeypatch):
        from osc3 import ode

        calls = []
        original = ode.integrate_third_order

        def counted(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(ode, "integrate_third_order", counted)
        ode.oscillation_report(UNIT_R, 10.0, n_random=4)
        ode.fundamental_basis(UNIT_R, 10.0)
        assert calls == [(3, 3), (3, 3)]

    def test_basis_columns_share_nodes_and_scale(self):
        basis = fundamental_basis(get_fixture("example31").build_ode_model(), 12.0)
        assert basis[0].log_scale[-1] > 100.0
        for traj in basis[1:]:
            assert traj.t is basis[0].t and traj.log_scale is basis[0].log_scale

    def test_matrix_matches_scipy_dop853(self):
        integrate = pytest.importorskip("scipy.integrate")
        model = get_fixture("example31").build_ode_model()
        t_max = 12.0
        phi = integrate_third_order(model, np.eye(3), t_max)
        assert phi.log_scale[-1] > 0.0  # the comparison covers a rescale
        deriv = linear_deriv(model, 9)
        ts = [2.0, 6.0, 9.5, 12.0]
        ref = integrate.solve_ivp(
            lambda t, y: deriv(t, *y), (model.t0, t_max), np.eye(3).ravel(), method="DOP853",
            t_eval=ts, rtol=1e-13, atol=1e-300, first_step=1e-3,
        )
        assert ref.success
        for j, t in enumerate(ts):
            k = phi._segment(t)
            got = phi.at(t) * math.exp(float(phi.log_scale[k]))
            want = ref.y[:, j]
            assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want)), t

    def test_initial_of_another_width_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            integrate_third_order(UNIT_R, (1.0, 0.0), 5.0)


def _scipy_zeros(model, initial, t_max):
    """Zeros of phi by scipy's DOP853 at rtol 1e-12, located by its event
    search and restarted from the rescaled state whenever the state passes
    1e100, so that exp(t^3 / 3) growth stays in range."""
    integrate = pytest.importorskip("scipy.integrate")
    deriv = linear_deriv(model)

    def rhs(t, y):
        return deriv(t, *y)

    def crossing(t, y):
        return y[0]

    def overflow(t, y):
        return max(abs(y[0]), abs(y[1]), abs(y[2])) - 1e100

    overflow.terminal = True
    t, y, zeros = model.t0, np.asarray(initial, dtype=float), []
    while t < t_max:
        sol = integrate.solve_ivp(
            rhs, (t, t_max), y / np.max(np.abs(y)), method="DOP853", rtol=1e-12, atol=1e-300,
            first_step=min(1e-3, t_max - t), events=(crossing, overflow),
        )
        assert sol.success
        zeros.extend(sol.t_events[0].tolist())
        t, y = float(sol.t[-1]), sol.y[:, -1]
    return zeros


def _sweep_combination():
    """The one initial state `sweep` integrates at its default seed."""
    v = np.random.default_rng(0).normal(size=3)
    return tuple(float(x) for x in v / np.linalg.norm(v))


SCIPY_ZEROS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "scipy_zeros.json")


def _scipy_cases() -> dict:
    """name -> (model, initial state, t_max) of each stored DOP853 reference."""
    example31 = get_fixture("example31").build_ode_model()
    return {
        "example31": (example31, _sweep_combination(), 50.0),
        "growth": (build_model("0", "0", "-1"), (1.0001, -0.4999, -0.4999), 400.0),
        **{f"example31_report_{s.label}": (example31, s.initial, 12.0)
           for s in oscillation_report(example31, 12.0).solutions},
    }


def _scipy_inputs(model, initial, t_max) -> dict:
    return {"p": model.p.source, "q": model.q.source, "r": model.r.source, "params": model.params,
            "t0": model.t0, "initial": [float(x) for x in initial], "t_max": t_max}


def _stored_scipy_zeros(name, model, initial, t_max):
    """The zero count and last zero that ``_scipy_zeros`` gave for the case
    ``name``, once its stored inputs are checked to be these."""
    with open(SCIPY_ZEROS, encoding="utf-8") as f:
        stored = json.load(f)[name]
    assert stored["inputs"] == _scipy_inputs(model, initial, t_max), f"{name} changed: rewrite {SCIPY_ZEROS}"
    return stored["count"], stored["last_zero"]


class TestMovingFrame:
    """The linear system is stepped as psi = exp(-M) phi with M growing at
    the largest real part of the frozen cubic's roots; its zeros, its step
    counts and its coefficient calls."""

    @pytest.mark.parametrize("name", ["example31", "growth"])
    def test_zeros_match_scipy_dop853(self, name):
        model, initial, t_max = _scipy_cases()[name]
        traj = integrate_third_order(model, initial, t_max)
        assert traj.status == COMPLETED
        assert traj.log_scale[-1] > 390.0  # the log scale, not the state, carries the growth
        count, last = _stored_scipy_zeros(name, model, initial, t_max)
        got = [z.t for z in count_zeros(traj)]
        assert len(got) == count > 0
        assert abs(got[-1] - last) <= 1e-7

    def test_report_zeros_match_scipy_dop853(self):
        # every solution of the example31 report, read off one matrix solve
        # at the default tolerances, against its own DOP853 run at rtol 1e-12
        model = get_fixture("example31").build_ode_model()
        report = oscillation_report(model, 12.0)
        assert len(report.solutions) == 8
        for s in report.solutions:
            count, last = _stored_scipy_zeros(f"example31_report_{s.label}", model, s.initial, 12.0)
            assert s.zero_count == count > 0, s.label
            assert abs(s.last_zero - last) <= 8e-8, s.label

    @pytest.mark.parametrize("name", ["growth", "example31_report_combo1"])
    def test_stored_zeros_are_scipys(self, name):
        # the solve gives the stored zeros now, on two cases that take under a second
        case = _scipy_cases()[name]
        count, last = _stored_scipy_zeros(name, *case)
        want = _scipy_zeros(*case)
        assert count == len(want)
        assert last == pytest.approx(want[-1], rel=1e-12)

    def test_attempted_step_ceilings(self):
        phi = integrate_third_order(get_fixture("example31").build_ode_model(), np.eye(3), 12.0)
        assert phi.stats.accepted + phi.stats.rejected <= 2300
        lazer = build_model("0", "-3*t^2", "b*t^3", params={"b": 1.25})
        traj = integrate_third_order(lazer, _sweep_combination(), 20.0)
        assert traj.stats.accepted + traj.stats.rejected <= 1600

    @pytest.mark.parametrize("initial", [(1.0, 0.0, 0.0), np.eye(3)], ids=["width3", "width9"])
    def test_one_coefficient_call_per_stage(self, initial):
        # the rate at each node comes from the p, q, r of the FSAL stage
        model = get_fixture("example31").build_ode_model()
        calls = [0]
        p_at = model.p_at

        def counted(t):
            calls[0] += 1
            return p_at(t)

        traj = integrate_third_order(replace(model, p_at=counted), initial, 12.0)
        st = traj.stats
        assert st.rejected > 0
        assert calls[0] == 1 + 6 * (st.accepted + st.rejected)

    def test_rate_matches_numpy_roots(self):
        rng = np.random.default_rng(5)
        for scale in (1e-3, 1.0, 1e3):
            for p, q, r in rng.normal(size=(300, 3)) * np.array([scale, scale**2, scale**3]):
                want = max(np.roots([1.0, p, q, r]).real)
                assert _rate(p, q, r) == pytest.approx(want, rel=1e-9, abs=1e-9 * scale)
        assert _rate(3.0, 3.0, 1.0) == -1.0  # the triple root -1
        assert _rate(0.0, 0.0, 0.0) == 0.0


def _forests(nodes: int) -> set:
    """Every multiset of rooted trees with ``nodes`` nodes in all, each a
    sorted tuple of trees."""
    if nodes == 0:
        return {()}
    return {
        tuple(sorted((tree,) + rest))
        for k in range(1, nodes + 1)
        for tree in _trees(k)
        for rest in _forests(nodes - k)
    }


def _trees(nodes: int) -> list:
    """The rooted trees with ``nodes`` nodes; a tree is the sorted tuple of
    the subtrees at its root, so the one-node tree is ()."""
    return sorted(_forests(nodes - 1))


def _size(tree) -> int:
    return 1 + sum(_size(sub) for sub in tree)


def _density(tree) -> int:
    """gamma(tree): its size times the densities of its subtrees."""
    return _size(tree) * math.prod(_density(sub) for sub in tree)


class TestTableau:
    """The coefficients the step loop is expanded from, against Butcher's
    order conditions: weights w have order p when sum_i w_i Phi_i(tree) =
    1 / gamma(tree) for every rooted tree of up to p nodes, where Phi_i of
    the one-node tree is 1 and of a tree is the product over its subtrees
    of sum_j a_ij Phi_j(subtree) (Hairer, Norsett & Wanner, Solving Ordinary
    Differential Equations I, sec. II.2)."""

    c = np.array(_TABLEAU["c"])
    a = np.array([row + (0.0,) * (7 - len(row)) for row in _TABLEAU["a"]])
    b = np.array(_TABLEAU["b"])
    embedded = b - np.array(_TABLEAU["e"])

    def residuals(self, weights, order):
        def phi(tree):
            return math.prod((self.a @ phi(sub) for sub in tree), start=np.ones(7))

        return [float(weights @ phi(tree)) - 1.0 / _density(tree) for tree in _trees(order)]

    def test_solution_weights_have_order_five(self):
        res = [r for order in range(1, 6) for r in self.residuals(self.b, order)]
        assert len(res) == 17
        assert max(map(abs, res)) <= 1e-13

    def test_embedded_weights_have_order_four_not_five(self):
        res = [r for order in range(1, 5) for r in self.residuals(self.embedded, order)]
        assert len(res) == 8
        assert max(map(abs, res)) <= 1e-13
        # the difference is what the error norm measures
        assert max(map(abs, self.residuals(self.embedded, 5))) > 1e-6

    def test_nodes_are_the_row_sums(self):
        assert self.c[0] == 0.0
        assert np.max(np.abs(self.a.sum(axis=1) - self.c)) <= 1e-15

    def test_last_stage_is_the_solution(self):
        # first same as last: the seventh stage is the right side at the new
        # node, so the loop reuses it as the next step's first
        assert self.c[6] == self.c[5] == 1.0
        assert np.array_equal(self.a[6], self.b)
        assert self.b[6] == 0.0

    def test_loop_reads_every_weight(self):
        # the FSAL row and the two nodes at t + h are not read by name
        read = set(re.findall(r"\b[abce]\d+\b", _STEP_TEMPLATE))
        want = {f"a{i + 1}{j + 1}" for i in range(6) for j in range(i) if self.a[i, j] != 0.0}
        want |= {f"b{j + 1}" for j in range(7) if self.b[j] != 0.0}
        want |= {f"e{j + 1}" for j in range(7)}
        want |= {f"c{i + 1}" for i in range(1, 5)}
        assert want <= read


if __name__ == "__main__":
    stored = {}
    for name, case in _scipy_cases().items():
        zeros = _scipy_zeros(*case)
        stored[name] = {"inputs": _scipy_inputs(*case), "count": len(zeros), "last_zero": zeros[-1]}
        print(name, len(zeros), zeros[-1])
    with open(SCIPY_ZEROS, "w", encoding="utf-8") as f:
        json.dump(stored, f, indent=2, sort_keys=True)
        f.write("\n")
    sys.exit(0)

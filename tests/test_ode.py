"""Direct integration, zero counting, classification, and the wronskian."""

import math

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
    _dopri,
    _linear_rhs,
    classify_lemma21,
    count_zeros,
    fundamental_basis,
    integrate_third_order,
    oscillation_report,
    wronskian,
)

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
            assert traj.at(t)[0] == pytest.approx(exact(t), abs=1e-6)

    def test_pure_growth_mode(self):
        # phi''' = phi with the (1,1,1) eigen-direction gives e^(t-1)
        m = build_model("0", "0", "-1")
        traj = integrate_third_order(m, (1.0, 1.0, 1.0), 20.0)
        assert traj.at(5.0)[0] == pytest.approx(math.exp(4.0), rel=1e-6)

    def test_state_outside_span_rejected(self):
        traj = integrate_third_order(TRIPLE_ZERO, (1.0, 0.0, 0.0), 5.0)
        with pytest.raises(ValueError):
            traj.at(5.5)


class TestTrajectory:
    @pytest.mark.parametrize("name, t_max", [("lazer", 60.0), ("example31", 12.0), ("example32", 6.0)])
    def test_slopes_are_the_right_side_at_each_node(self, name, t_max):
        fx = get_fixture(name)
        model = fx.build_ode_model()
        ctl = OdeControls(feature_windows=fx.feature_windows(t_max))
        traj = integrate_third_order(model, (1.0, 0.0, 0.0), t_max, ctl)
        assert traj.status == COMPLETED
        if name == "example31":
            assert traj.log_scale[-1] > 0.0  # the check covers a rescale
        deriv = _linear_rhs(model)
        for k in range(len(traj.t)):
            expect = np.array(deriv(float(traj.t[k]), *traj.states[k].tolist()))
            assert traj.slopes[k].tobytes() == expect.tobytes(), k
        for k in range(len(traj.t) - 1):
            assert np.array_equal(traj.at(traj.t[k]), traj.states[k]), k


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
        # an escape bound turns rescaling off; exp(12^3 / 3) stays below it
        tr_p = _dopri(_linear_rhs(model), model.t0, (1.0, 0.0, 0.0), 12.0, ctl, escape=1e300)
        assert tr_r.status == COMPLETED
        assert tr_p.status == COMPLETED
        assert tr_r.log_scale[-1] > 100.0
        z_r = [z.t for z in count_zeros(tr_r)]
        z_p = [z.t for z in count_zeros(tr_p)]
        assert len(z_r) == len(z_p)
        assert np.max(np.abs(np.asarray(z_r) - np.asarray(z_p))) < 1e-7
        # before the first rescale the stored samples are the true values
        assert tr_r.at(5.0)[0] == pytest.approx(tr_p.at(5.0)[0], rel=1e-9)

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
        ctl = OdeControls(rel_tol=1e-8, feature_windows=fx.feature_windows(6.0))
        traj = integrate_third_order(model, (1.0, 0.0, 0.0), 6.0, ctl)
        assert traj.status == COMPLETED
        assert traj.warnings == []

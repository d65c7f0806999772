"""Weighted-average transform, limsup classifier, and theorem verdicts."""

import dataclasses
import math

import numpy as np
import pytest

from osc3.coeffs import SIGN_N, ModelError, build_model, make_split, p_minus, sample_points
from osc3.fixtures import get_fixture
from osc3.kamenev import (
    APPLIES,
    BOUNDED,
    DIVERGES,
    DOES_NOT_APPLY,
    INCONCLUSIVE,
    SHORTFALL,
    THM31B,
    THM32C,
    THM32D,
    THM33E,
    THM33G,
    GeometricGrid,
    LimsupPolicy,
    _p_zero_check,
    _series,
    check_33f,
    classify_bounded_below,
    classify_limsup,
    criterion_kamenev,
    criterion_lazer,
    cumulative_D,
    kamenev_transform,
    theorem_verdict,
)

GRID = GeometricGrid(1.0, 1.2, 24)


class TestKamenevTransform:
    def test_constant_alpha_two(self):
        # (alpha(alpha+1)/t^(alpha+1)) * int_1^2 (2-tau) dtau = (6/8)*(1/2)
        assert kamenev_transform(lambda t: 1.0, 1.0, 2.0, 2.0) == pytest.approx(
            0.375, abs=1e-12
        )

    def test_constant_fractional_alpha(self):
        # singular endpoint weight taken by the Gauss-Jacobi rule; exact
        # value 1.5/2^1.5
        val = kamenev_transform(lambda t: 1.0, 1.0, 0.5, 2.0)
        assert val == pytest.approx(0.5303300858899106, abs=1e-9)

    def test_alpha_one_is_plain_average(self):
        # alpha = 1: (2/t^2) int_T^t f
        val = kamenev_transform(lambda t: t, 1.0, 1.0, 3.0)
        assert val == pytest.approx((2.0 / 9.0) * 4.0, abs=1e-10)

    def test_linear_in_f(self):
        f = lambda t: math.sin(t) + 2.0
        for alpha in (0.5, 1.0, 2.0):
            a = kamenev_transform(f, 1.0, alpha, 6.0)
            b = kamenev_transform(lambda t: 3.0 * f(t), 1.0, alpha, 6.0)
            assert b == pytest.approx(3.0 * a, rel=1e-9)

    def test_monotone_in_f(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = rng.uniform(0.0, 2.0, 4)
            f1 = lambda t, c=c: c[0] + c[1] * math.sin(t) ** 2 + c[2]
            f2 = lambda t, c=c: c[0] + c[3] * 0.0
            for alpha in (0.5, 1.0, 2.0):
                for t in rng.uniform(2.0, 30.0, 3):
                    hi = kamenev_transform(f1, 1.0, alpha, float(t))
                    lo = kamenev_transform(f2, 1.0, alpha, float(t))
                    assert hi >= lo - 1e-9

    def test_input_validation(self):
        f = lambda t: 1.0
        with pytest.raises(ValueError):
            kamenev_transform(f, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            kamenev_transform(f, 1.0, -1.0, 2.0)
        with pytest.raises(ValueError):
            kamenev_transform(f, 2.0, 1.0, 2.0)


class TestGridAndPolicy:
    def test_grid_points(self):
        g = GeometricGrid(2.0, 1.5, 16)
        pts = g.points()
        assert pts[0] == 2.0
        assert pts[3] == pytest.approx(2.0 * 1.5**3)
        assert g.t_end == pytest.approx(pts[-1])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_start": 0.0},
            {"t_start": -1.0},
            {"t_start": 1.0, "ratio": 1.0},
            {"t_start": 1.0, "ratio": 0.5},
            {"t_start": 1.0, "count": 8},
        ],
    )
    def test_grid_validation(self, kwargs):
        with pytest.raises(ValueError):
            GeometricGrid(**kwargs)

    def test_policy_round_trip(self):
        pol = LimsupPolicy(theta_scale=500.0, growth_rho=3.0)
        d = dataclasses.asdict(pol)
        assert d["theta_scale"] == 500.0
        assert d["growth_rho"] == 3.0

    @pytest.mark.parametrize("name", ["window_fraction", "bounded_rel", "theta_ref_index"])
    def test_fixed_policy_fields_are_recorded_not_set(self, name):
        assert name in dataclasses.asdict(LimsupPolicy())
        with pytest.raises(TypeError):
            LimsupPolicy(**{name: 1})


class TestClassifiers:
    def test_exponential_growth_diverges(self):
        s = np.exp(np.linspace(0.0, 20.0, 40))
        v = classify_limsup(s)
        assert v.kind == DIVERGES
        assert v.evidence["max_last_window"] > v.evidence["threshold"]

    def test_oscillating_never_diverges(self):
        t = np.geomspace(10.0, 1e4, 40)
        assert classify_limsup(np.sin(np.log(t))).kind != DIVERGES

    def test_declining_is_bounded(self):
        t = np.geomspace(10.0, 1e4, 40)
        assert classify_limsup(100.0 / t).kind == BOUNDED

    def test_stable_is_bounded(self):
        assert classify_limsup(np.full(40, 7.0)).kind == BOUNDED

    def test_slow_growth_inconclusive(self):
        t = np.geomspace(10.0, 1e4, 40)
        assert classify_limsup(np.log(t)).kind == INCONCLUSIVE

    def test_growth_without_ratio_inconclusive(self):
        # clears no threshold because the reference sample is already large
        assert classify_limsup(np.linspace(1.0, 3e4, 40)).kind == INCONCLUSIVE

    def test_threshold_scales_with_reference_sample(self):
        # the same growth pattern shifted up by a large offset raises the
        # threshold along with it, so the verdict downgrades
        s = np.exp(np.linspace(0.0, 20.0, 40))
        assert classify_limsup(s).kind == DIVERGES
        assert classify_limsup(s + 1e6).kind == INCONCLUSIVE

    def test_bounded_below_mirrors_negation(self):
        s = -np.exp(np.linspace(0.0, 20.0, 40))
        v = classify_bounded_below(s)
        assert v.kind == DIVERGES
        assert v.evidence["min_last_window"] == -np.max(-s[-10:])
        assert v.evidence["lower_threshold"] < 0
        t = np.geomspace(10.0, 1e4, 40)
        assert classify_bounded_below(np.sin(np.log(t))).kind == BOUNDED

    def test_input_validation(self):
        with pytest.raises(ValueError):
            classify_limsup(np.ones(10))
        with pytest.raises(ValueError):
            classify_limsup(np.array([np.nan] * 20))


class TestCriterionTrajectories:
    def test_cumulative_D_trivial_model(self):
        # D = 1, so the running integral from 1 is t - 1
        m = build_model("0", "0", "1")
        traj = cumulative_D(m, GRID)
        assert traj.criterion_id == THM32C
        assert np.allclose(traj.values, traj.t - 1.0, atol=1e-9)

    def test_thm33g_trivial_model(self):
        # S = (1/t^2) int_1^t (t-tau)^2 dtau = (t-1)^3 / (3 t^2)
        m = build_model("0", "0", "1")
        traj = criterion_kamenev(m, 2.0, THM33G, GRID)
        expect = (traj.t - 1.0) ** 3 / (3.0 * traj.t**2)
        assert np.allclose(traj.values, expect, rtol=1e-8)

    def test_thm31b_reduces_to_weighted_integral_when_p_nonnegative(self):
        # p >= 0 kills the penalty term, leaving (1/t^2) int (t-tau)^2 D,
        # which is exactly the alpha = 2 weighted criterion
        m = build_model("2", "-1", "3")
        a = criterion_kamenev(m, 1.0, THM31B, GRID)
        b = criterion_kamenev(m, 2.0, THM33G, GRID)
        assert np.allclose(a.values, b.values, rtol=1e-8)

    def test_thm33g_requires_alpha_above_one(self):
        m = build_model("0", "0", "1")
        with pytest.raises(ValueError):
            criterion_kamenev(m, 1.0, THM33G, GRID)

    def test_constant_integrand_case(self):
        # q = -3, r = 5: D = 3 everywhere, so the plain integral is 3(t-1)
        m = build_model("0", "-3", "5")
        traj = cumulative_D(m, GRID)
        assert np.allclose(traj.values, 3.0 * (traj.t - 1.0), atol=1e-8)

    def test_moment_path_matches_direct_quadrature(self):
        # integer and non-integer exponents alike run on the one
        # Gauss-Kronrod panel engine; held to scipy's QUADPACK per grid point
        integrate = pytest.importorskip("scipy.integrate")
        fx = get_fixture("example31")
        model = fx.build()
        d = model.d_at  # the fixture's override, N t^beta
        grid = GeometricGrid(1.0, 1.15, 40)

        def weighted(g, m, t):
            val, _ = integrate.quad(lambda tau: (t - tau) ** m * g(tau), model.t0, t,
                                    epsabs=0.0, epsrel=1e-13, limit=200)
            return val

        def pen2(tau):
            return min(model.p_at(tau), 0.0) ** 2

        def pen1(tau):
            return min(model.p_at(tau), 0.0)

        for crit, alpha in ((THM31B, 1.0), (THM32D, 1.0), (THM33G, 2.0), (THM31B, 1.5), (THM33G, 1.5)):
            ref = []
            for t in grid.points():
                if crit == THM33G:
                    ref.append(weighted(d, alpha, t) / t ** alpha)
                    continue
                pen, coeff = (pen2, (alpha + 1.0) / 9.0) if crit == THM31B else (pen1, alpha + 1.0)
                ref.append((weighted(d, alpha + 1.0, t) - coeff * weighted(pen, alpha, t)) / t ** (alpha + 1.0))
            ref = np.array(ref)
            traj = criterion_kamenev(model, alpha, crit, grid)
            rel = np.max(np.abs(traj.values - ref) / (1.0 + np.abs(ref)))
            assert rel < 1e-9, (crit, alpha)
            assert traj.verdict.kind == classify_limsup(ref).kind

    def test_lazer_criterion_trivial_model(self):
        # r = 1, q = 0: integrand is 1, so S = t - 1 and the verdict diverges
        m = build_model("0", "0", "1")
        traj = criterion_lazer(m, GeometricGrid(1.0, 1.2, 45))
        assert np.allclose(traj.values, traj.t - 1.0, atol=1e-8)
        assert traj.verdict.kind == DIVERGES

    @pytest.mark.parametrize("q, r", [("-3", "5"), ("-3*t^2", "2.5*t^3"), ("-t", "t^1.5"), ("1", "2")])
    def test_lazer_is_thm32c_at_p_zero(self, q, r):
        # at p = 0 Lazer's integrand r - (2/(3 sqrt 3)) (-q)^{3/2} is D, so
        # its series is THM32C's, bit for bit; a D override is not read
        m = build_model("0", q, r)
        lazer = criterion_lazer(m, GRID).values
        assert np.array_equal(lazer, cumulative_D(m, GRID, THM32C).values)
        assert np.array_equal(lazer, criterion_lazer(build_model("0", q, r, d_src="1/t"), GRID).values)


class TestCheck33f:
    def test_integrable_negative_part_passes(self):
        sp = make_split(build_model("-1/t^2", "0", "1"), "-1/t^2", "0")
        rep = check_33f(sp, 1e4)
        assert rep.holds
        assert rep.integrable_ok
        assert rep.bounded_ok

    def test_harmonic_negative_part_fails(self):
        # |p1| = 1/t is not integrable; the running integral keeps growing
        sp = make_split(build_model("-1/t", "0", "1"), "-1/t", "0")
        rep = check_33f(sp, 1e4)
        assert not rep.holds
        assert not rep.integrable_ok
        assert rep.integral_tail > 9.0

    def test_last_decade_reaches_the_horizon(self):
        # from t0 = 0.5 the decades end at 5, 50, 500, 5000 and 1e4, so a
        # p2 that only turns on past 6000 is seen in the last one
        p2 = "if(t <= 6000, 0, -1)"
        sp = make_split(build_model(p2, "0", "1", t0=0.5), "0", p2)
        rep = check_33f(sp, 1e4)
        assert len(rep.sup_by_decade) == 5
        assert rep.sup_by_decade[-1] == 1.0
        assert not rep.bounded_ok

    def test_bump_fixture_split_passes(self):
        fx = get_fixture("example32")
        sp = fx.build_split(fx.build())
        rep = check_33f(sp, 200.0)
        assert rep.holds

    def test_a_non_finite_p2_sample_is_an_error(self):
        # a point of the last decade that the split's own probe does not see
        t = float(sample_points(1000.0, 9000.0, 256)[100])
        p2 = f"if(abs(t - {t!r}) < 1e-6, -9e307*9*t, 0)"
        sp = make_split(build_model("0", "0", "1"), "0", p2)
        with pytest.raises(ModelError, match=f"^p2 is not finite at t={t:.6g}$"):
            check_33f(sp, 1e4)


class TestOneEvaluationPerFact:
    """Constant coefficients are read once, not integrated, and D is
    computed once per node; the shortcuts give the full path's bits."""

    @pytest.mark.parametrize("p, q, r", [("0", "-3*t^2", "2.5*t^3"), ("0", "-t", "t^1.5"), ("2", "-1", "3")])
    @pytest.mark.parametrize("mode, alpha", [(THM31B, 1.5), (THM31B, 1.0), (THM32D, 1.5)])
    def test_penalty_of_a_constant_p_at_least_zero_adds_exactly_nothing(self, p, q, r, mode, alpha):
        m = build_model(p, q, r)
        pts = GRID.points()
        power = alpha + 1.0
        if mode == THM31B:
            penalty = (-power / 9.0, lambda tau: p_minus(m, tau) ** 2, alpha)
        else:
            penalty = (-power, lambda tau: p_minus(m, tau), alpha)
        vals, warnings = _series(m, pts, [(1.0, m.d_at, power), penalty], mode)
        got = criterion_kamenev(m, alpha, mode, GRID)
        assert got.values.tobytes() == (vals / pts ** power).tobytes()
        assert got.warnings == warnings == []

    @pytest.mark.parametrize("p", ["0", "-2", "3"])
    def test_constant_split_parts_are_read_once(self, p):
        # the default split p1 = 0, p2 = min(p, 0) of a constant p against
        # the |p1| series and the sampled sups of the same split
        sp = make_split(build_model(p, "0", "1", t0=0.5))
        assert sp.constants == {"p1": 0.0, "p2": min(float(p), 0.0)}
        rep = check_33f(sp, 1e4)
        assert rep == check_33f(dataclasses.replace(sp, constants={}), 1e4)
        assert rep.sup_by_decade == [abs(min(float(p), 0.0))] * 5
        assert rep.integral_tail == 0.0

    def test_p_zero_at_every_sample_reads_neither_q_nor_r(self):
        m = build_model("0*t", "-1 + 0*t", "1 + 0*t")

        def unread(t):
            raise AssertionError("q or r read")

        m.q_at = m.r_at = unread
        assert _p_zero_check(m) == _p_zero_check(build_model("0", "-1", "1"))
        assert _p_zero_check(m).at == m.t0

    def test_a_collapsed_window_adds_no_evals(self):
        # (5, 5) is a window that double precision holds as a single point
        pts = GRID.points()
        calls = []

        def g(tau):
            calls.append(tau)
            return math.sin(tau)

        runs = []
        for windows in (None, lambda t_end: [(5.0, 5.0)]):
            calls.clear()
            vals, _ = _series(build_model("0", "0", "1", windows=windows), pts, [(1.0, g, 1.0)], THM33G)
            runs.append((vals.tobytes(), len(calls)))
        assert runs[0] == runs[1]

    def test_one_sweep_point_evaluates_each_fact_once(self, monkeypatch, tmp_path):
        # one lazer-sweep point at alpha 1.5 on 40 grid points, every
        # theorem: six passes read D at 2,301 distinct nodes, each once;
        # p_- is never formed; condition (a) samples r once for the model
        import osc3.coeffs
        import osc3.kamenev
        from osc3.cli import main

        nodes = []
        d_closed = osc3.coeffs.d_closed
        monkeypatch.setattr(osc3.coeffs, "d_closed", lambda model, t: nodes.append(t) or d_closed(model, t))

        def no_p_minus(model, t):
            raise AssertionError("p_minus called")

        for module in (osc3.coeffs, osc3.kamenev):
            monkeypatch.setattr(module, "p_minus", no_p_minus)
        sign_reads = []
        check = osc3.coeffs.check_condition_a

        def counted_check(model):
            r_at = model.r_at
            model.r_at = lambda t: sign_reads.append(t) or r_at(t)
            try:
                return check(model)
            finally:
                model.r_at = r_at

        monkeypatch.setattr(osc3.kamenev, "check_condition_a", counted_check)
        argv = ["sweep", "--p", "0", "--q", "-a*t^2", "--r", "b*t^3", "--param", "a=3", "--sweep", "b=1.7:1.7:1",
                "--theorem", "all", "--alpha", "1.5", "--grid-count", "40", "--tmax", "20",
                "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        assert len(nodes) == len(set(nodes)) == 2301
        assert len(sign_reads) == SIGN_N


class TestShortfall:
    """With the depth cap at 0 every pass over these oscillating bumps stops
    short, and every condition computed by a series names it."""

    BUMPS = "abs(sin(3*t))*exp(-t)"

    @pytest.fixture
    def split(self, monkeypatch):
        import osc3.quad

        monkeypatch.setattr(osc3.quad, "MAX_DEPTH", 0)
        # r is not constant, so the Lazer integral is not exact on one panel
        m = build_model(f"-{self.BUMPS}", "0", f"1 + {self.BUMPS}")
        return make_split(m, f"-{self.BUMPS}", "0")

    def test_check_33f_reports_its_shortfall(self, split):
        rep = check_33f(split)
        assert rep.holds
        assert rep.warnings == [SHORTFALL]

    @pytest.mark.parametrize(
        "theorem, letters",
        [("THM31", ["b"]), ("THM32", ["c", "d"]), ("THM33", ["e", "f", "g"]), ("LAZER", ["integral"])],
    )
    def test_every_series_condition_reports_its_shortfall(self, split, theorem, letters):
        rep = theorem_verdict(split, theorem, grid=GeometricGrid(1.0, 1.15, 40))
        assert rep.warnings == [f"({letter}) {SHORTFALL}" for letter in letters]


class TestTheoremVerdict:
    def test_trivial_model_applies_everywhere(self):
        m = build_model("0", "0", "1")
        grid = GeometricGrid(1.0, 1.15, 80)
        for thm in ("LAZER", "THM31", "THM32"):
            rep = theorem_verdict(m, thm, grid=grid)
            assert rep.overall == APPLIES, thm
        sp = make_split(m)
        rep = theorem_verdict(sp, "THM33", alpha=2.0, grid=grid)
        assert rep.overall == APPLIES

    def test_negative_r_blocks_sign_condition(self):
        m = build_model("0", "0", "-1")
        rep = theorem_verdict(m, "THM32", grid=GRID)
        assert rep.overall == DOES_NOT_APPLY
        assert not rep.condition_results["a"].r_positive.holds

    def test_thm33_needs_split(self):
        with pytest.raises(ValueError):
            theorem_verdict(build_model("0", "0", "1"), "THM33", grid=GRID)

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            theorem_verdict(build_model("0", "0", "1"), "THM99", grid=GRID)

    def test_report_carries_trajectories(self):
        rep = theorem_verdict(build_model("0", "0", "1"), "THM32", grid=GRID)
        assert set(rep.trajectories) == {"c", "d"}
        assert rep.trajectories["c"].criterion_id == THM32C
        assert rep.trajectories["d"].criterion_id == THM32D

    # the overall rule on a trivial model with a chosen D: a condition that
    # stays undecided leaves the theorem INCONCLUSIVE, and (e), which wants
    # BOUNDED where the others want DIVERGES, refutes THM33 when it diverges
    def test_undecided_conditions_leave_thm32_inconclusive(self):
        rep = theorem_verdict(build_model("0", "0", "1", d_src="1/t"), "THM32",
                              grid=GeometricGrid(1.0, 1.15, 40))
        assert rep.overall == INCONCLUSIVE
        assert rep.condition_results["c"].kind == INCONCLUSIVE
        assert rep.condition_results["d"].kind == INCONCLUSIVE

    def test_bounded_e_and_undecided_g_leave_thm33_inconclusive(self):
        rep = theorem_verdict(make_split(build_model("0", "0", "1", d_src="1/t")), "THM33",
                              grid=GeometricGrid(1.0, 1.15, 40))
        assert rep.overall == INCONCLUSIVE
        assert rep.condition_results["e"].kind == BOUNDED
        assert rep.condition_results["g"].kind == INCONCLUSIVE

    def test_diverging_e_refutes_thm33(self):
        rep = theorem_verdict(make_split(build_model("0", "0", "1", d_src="-t")), "THM33",
                              grid=GeometricGrid(1.0, 1.15, 40))
        assert rep.overall == DOES_NOT_APPLY
        assert rep.condition_results["e"].kind == DIVERGES
        assert rep.condition_results["g"].kind == BOUNDED

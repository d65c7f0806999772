"""Coefficient models, the closed-form minimum function, and its oracle."""

import math

import numpy as np
import pytest

from conftest import random_poly_model
from osc3.coeffs import (
    ModelError,
    build_model,
    check_condition_a,
    cubic_g,
    d_closed,
    d_oracle,
    make_split,
    p_minus,
    sample_points,
)


class TestBuildModel:
    def test_callables_and_derivative(self):
        m = build_model("-t^2", "sin(t)", "t + 1", t0=1.0)
        assert m.p_at(2.0) == -4.0
        assert m.q_at(2.0) == math.sin(2.0)
        assert m.r_at(2.0) == 3.0
        assert m.p_prime_at(2.0) == -4.0

    def test_parameters_threaded(self):
        m = build_model("-M*t", "0", "N", {"M": 2.0, "N": 7.0})
        assert m.p_at(3.0) == -6.0
        assert m.r_at(10.0) == 7.0
        assert m.params["M"] == 2.0

    def test_syntax_error_wrapped(self):
        with pytest.raises(ModelError):
            build_model("(", "0", "1")

    def test_unknown_name_wrapped(self):
        with pytest.raises(ModelError):
            build_model("M*t", "0", "1")

    def test_coefficient_blowing_up_rejected(self):
        with pytest.raises(ModelError):
            build_model("exp(t)", "0", "1")

    def test_domain_failure_rejected(self):
        with pytest.raises(ModelError):
            build_model("sqrt(t - 1e9)", "0", "1")

    def test_zero_r_is_buildable(self):
        # sign requirements are reported, not enforced, at build time
        m = build_model("0", "0", "0")
        assert m.r_at(5.0) == 0.0


class TestSamplePoints:
    def test_deterministic(self):
        a = sample_points(1.0, 100.0, 64)
        b = sample_points(1.0, 100.0, 64)
        assert np.array_equal(a, b)

    def test_range_and_spread(self):
        pts = sample_points(2.0, 50.0, 128)
        assert pts.min() >= 2.0
        assert pts.max() <= 52.0
        assert len(np.unique(pts // (50.0 / 128.0))) > 100  # stratified


class TestSignReport:
    def test_clean_case(self):
        rep = check_condition_a(build_model("1", "-1", "2"))
        assert rep.r_positive.holds
        assert rep.q_nonpositive.holds
        assert rep.r_positive.witness_t is None

    def test_violations_carry_witnesses(self):
        rep = check_condition_a(build_model("1", "1", "-1"))
        assert not rep.r_positive.holds
        assert rep.r_positive.witness_value == -1.0
        assert not rep.q_nonpositive.holds
        assert rep.q_nonpositive.witness_value == 1.0

    def test_zero_r_fails_strict_positivity(self):
        rep = check_condition_a(build_model("0", "0", "0"))
        assert not rep.r_positive.holds
        assert rep.r_positive.witness_value == 0.0


class TestMinimumFunction:
    def test_pure_r(self):
        # with p = q = 0 the cubic is u^3 + r, minimized over u >= 0 at u = 0
        m = build_model("0", "0", "1")
        for t in (1.0, 2.0, 10.0, 500.0):
            assert d_closed(m, t) == 1.0

    def test_negative_q_closed_form_exact(self):
        # p = 0, q <= 0 collapses to r - (2/(3*sqrt(3)))*(-q)^(3/2);
        # q = -3 makes the correction exactly 2
        m = build_model("0", "-3", "5")
        assert d_closed(m, 7.0) == pytest.approx(3.0, abs=1e-12)

    def test_negative_q_closed_form_irrational(self):
        m = build_model("0", "-1", "0")
        assert d_closed(m, 7.0) == pytest.approx(-0.3849001794597505, abs=1e-12)

    def test_stationary_point_left_of_zero_clamps_to_r(self):
        # p = 5, q = 1: the cubic's stationary point sits at negative u,
        # so the infimum over u >= 0 is attained at u = 0
        m = build_model("5", "1", "3")
        assert d_closed(m, 2.0) == 3.0

    def test_negative_discriminant_returns_r(self):
        # q large positive makes the cubic strictly increasing on u >= 0
        m = build_model("0", "50", "2")
        assert d_closed(m, 1.0) == 2.0

    def test_cubic_g_horner(self):
        m = build_model("2", "3", "4")
        assert cubic_g(m, 1.0, 1.0) == 10.0
        assert cubic_g(m, 1.0, 0.0) == 4.0

    def test_p_minus(self):
        m = build_model("sin(t)", "0", "1")
        assert p_minus(m, math.pi / 2) == 0.0
        assert p_minus(m, -math.pi / 2 + 2 * math.pi) == -1.0

    def test_closed_matches_oracle_on_random_models(self):
        # evaluation stays at moderate t so the absolute tolerance is
        # meaningful against the size of the cubic's values
        rng = np.random.default_rng(20260823)
        checked = 0
        for _ in range(300):
            m = random_poly_model(rng)
            for t in rng.uniform(1.0, 10.0, 3):
                t = float(t)
                diff = abs(d_closed(m, t) - d_oracle(m, t))
                assert diff <= 1e-7, (m.p, m.q, m.r, t, diff)
                checked += 1
        assert checked == 900

    def test_oracle_agrees_with_exact_value(self):
        m = build_model("0", "-3", "5")
        assert d_oracle(m, 4.0) == pytest.approx(3.0, abs=1e-9)


class TestSplit:
    def test_default_split_is_trivial_part_plus_rest(self):
        sp = make_split(build_model("-t", "0", "1"))
        assert sp.p1_at(2.0) == 0.0
        assert sp.p2_at(2.0) == -2.0

    def test_explicit_split_must_reconstruct(self):
        m = build_model("-t", "0", "1")
        sp = make_split(m, "-t/2", "-t/2")
        assert sp.p1_at(4.0) + sp.p2_at(4.0) == pytest.approx(-4.0)
        with pytest.raises(ModelError):
            make_split(m, "-t", "-1")

    def test_split_part_must_be_defined_and_finite(self):
        m = build_model("0", "0", "1")
        for p1 in ("floor(t*9e307*9)", "t*9e307*9*0"):  # OverflowError, then NaN
            with pytest.raises(ModelError):
                make_split(m, p1, "0")

    def test_split_of_sign_changing_p_tracks_negative_part(self):
        m = build_model("sin(t)", "0", "1")
        sp = make_split(m)
        t = math.pi / 2
        assert sp.p1_at(t) + sp.p2_at(t) == 0.0
        t = 3 * math.pi / 2
        assert sp.p1_at(t) + sp.p2_at(t) == pytest.approx(-1.0)

    def test_split_is_checked_on_every_representable_bump(self):
        from osc3.fixtures import EXAMPLE32

        model = EXAMPLE32.build()
        # the jittered probe points alone miss every bump of p_-
        params = dict(EXAMPLE32.defaults)
        make_split(build_model(EXAMPLE32.p_src, EXAMPLE32.q_src, EXAMPLE32.r_src, params), "0", "0")
        # the fixture's model carries its windows, so their midpoints are probed
        with pytest.raises(ModelError, match=r"split does not reconstruct min\(p, 0\) at t=1\.5$"):
            make_split(model, "0", "0")
        # the fixture's own split, p1 = p, holds at the midpoints too
        EXAMPLE32.build_split(model)
        # only a midpoint above the window's left edge is checked
        spike = "-(t >= 5)*(t <= 5)"
        make_split(build_model(spike, "0", "1", windows=lambda t_end: [(5.0, 5.0)]), "0", "0")
        with pytest.raises(ModelError, match="at t=5$"):
            make_split(build_model(spike, "0", "1", windows=lambda t_end: [(4.0, 6.0)]), "0", "0")

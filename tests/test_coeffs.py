"""Coefficient models, the closed-form minimum function, and its oracle."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from conftest import random_poly_model
from osc3.coeffs import (
    PROBE_SPAN,
    SIGN_N,
    SIGN_SPAN,
    SPLIT_N,
    VALIDATE_N,
    ModelError,
    build_model,
    check_condition_a,
    cubic_g,
    d_closed,
    d_oracle,
    make_split,
    p_minus,
    probe,
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


class TestProbe:
    def test_a_constant_is_read_once_and_the_rest_once_per_point(self):
        pts = sample_points(1.0, 100.0, 64).tolist()
        calls = []

        def v(t):
            calls.append("v")
            return 2.0 * t

        def c(t):
            calls.append("c")
            return -3.0

        vals = probe({"v": v, "c": c}, pts, {"c"})
        assert vals.tolist() == [[2.0 * t, -3.0] for t in pts]
        assert calls.count("c") == 1 and calls.count("v") == len(pts)

    @pytest.mark.parametrize("fns, constants, message", [
        # a raises at the third point, b is not finite at the second
        ({"a": lambda t: math.log(3.0 - t), "b": lambda t: math.inf if t == 2.0 else 1.0}, (),
         "b is not finite at t=2"),
        # both fail at the first point: the first label is named
        ({"a": lambda t: 1.0 / (t - 1.0), "b": lambda t: math.inf}, ("b",),
         "a undefined at t=1: float division by zero"),
        ({"a": lambda t: t, "b": lambda t: math.nan}, ("b",), "b is not finite at t=1"),
        ({"a": lambda t: t, "b": lambda t: math.nan}, (), "b is not finite at t=1"),
    ])
    def test_names_the_first_bad_point_then_its_first_bad_label(self, fns, constants, message):
        with pytest.raises(ModelError) as err:
            probe(fns, [1.0, 2.0, 3.0], constants)
        assert str(err.value) == message

    def test_build_reads_a_constant_coefficient_once(self, monkeypatch):
        import osc3.expr

        compile_fn, counts = osc3.expr.compile_fn, []

        def counted(ast, params=None):
            fn, i = compile_fn(ast, params), len(counts)
            counts.append(0)

            def wrapped(t):
                counts[i] += 1
                return fn(t)

            return wrapped

        monkeypatch.setattr(osc3.expr, "compile_fn", counted)
        build_model("-2", "-t", "3", d_src="t")
        assert counts == [1, VALIDATE_N, 1, 1, VALIDATE_N]  # p, q, r, p', D


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

    def test_constant_is_read_once_with_todays_witness(self):
        # a constant fails first at the first sample, as the same value
        # written with t does
        first = float(sample_points(1.0, SIGN_SPAN, SIGN_N)[0])
        const = check_condition_a(build_model("1", "1", "-1"))
        with_t = check_condition_a(build_model("1", "1 + 0*t", "-1 + 0*t"))
        assert const == with_t
        assert const.r_positive.witness_t == const.q_nonpositive.witness_t == first

    def test_a_non_finite_sample_is_an_error(self):
        # an r that is infinite at one sample once passed condition (a)
        t = float(sample_points(1.0, SIGN_SPAN, SIGN_N)[500])
        m = build_model("0", "0", f"if(abs(t - {t!r}) < 1e-6, 9e307*9*t, 1)")
        with pytest.raises(ModelError, match=f"^r is not finite at t={t:.6g}$"):
            check_condition_a(m)

    def test_report_is_made_once_per_model(self):
        m = build_model("0", "-3*t^2", "2.5*t^3")
        r_at, calls = m.r_at, []
        m.r_at = lambda t: calls.append(t) or r_at(t)
        reports = [check_condition_a(m) for _ in range(4)]
        assert all(rep is reports[0] for rep in reports)
        assert reports[0].holds
        assert len(calls) == SIGN_N


class TestModelFacts:
    def test_constants_are_recorded(self):
        m = build_model("0", "-a", "b*t^3", {"a": 3.0, "b": 2.0})
        assert m.constants == {"p": 0.0, "q": -3.0, "p'": 0.0}
        assert build_model("t", "0*t", "floor(2.5)").constants == {"p'": 1.0, "r": 2}

    def test_cached_d_is_d_closed_once_per_node(self, monkeypatch):
        import osc3.coeffs

        m = build_model("0", "-3*t^2", "2.5*t^3")
        calls = []
        monkeypatch.setattr(osc3.coeffs, "d_closed", lambda model, t: calls.append(t) or d_closed(model, t))
        for t in (2.0, 3.5, 2.0, 3.5):
            assert m.d_closed_at(t) == m.d_at(t) == d_closed(m, t)
        assert calls == [2.0, 3.5]
        # an override is D; the closed form stays on d_closed_at
        o = build_model("0", "-3*t^2", "2.5*t^3", d_src="t")
        assert (o.d_at(2.0), o.d_closed_at(2.0)) == (2.0, d_closed(o, 2.0))

    def test_model_holds_no_reference_cycle(self):
        # the cached D reads the model through a weak proxy, so the model
        # is freed by reference counting alone, after every theorem has
        # read its facts
        from osc3.kamenev import GeometricGrid, theorem_verdict

        grid = GeometricGrid(1.0, 1.15, 20)
        gc.disable()
        try:
            m = build_model("0", "-3*t^2", "2.5*t^3")
            ref = weakref.ref(m)
            split = make_split(m)
            for theorem in ("THM31", "THM32", "THM33", "LAZER"):
                theorem_verdict(split if theorem == "THM33" else m, theorem, grid=grid)
            del m, split
            assert ref() is None
        finally:
            gc.enable()


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

    @pytest.mark.parametrize("p, p1, p2, message", [
        ("0", "1", "0", "split parts must be nonpositive; violated at t={}"),
        ("0", "-1", "0", "split does not reconstruct min(p, 0) at t={}"),
        ("-2", "-1", "-0.5", "split does not reconstruct min(p, 0) at t={}"),
        ("0", "1/0", "0", "p1 undefined at t={}: division by zero at t={!r}"),
        ("0", "0", "9e307*9", "p2 is not finite at t={}"),
    ])
    def test_constant_split_is_checked_once_with_todays_error(self, p, p1, p2, message):
        # with p, p1 and p2 constant each is read once, and the error names
        # the first probe point, as with p written with t
        first = float(sample_points(1.0, PROBE_SPAN, SPLIT_N)[0])
        text = message.format(f"{first:.6g}", first)
        with pytest.raises(ModelError) as const:
            make_split(build_model(p, "0", "1"), p1, p2)
        assert str(const.value) == text
        with pytest.raises(ModelError) as with_t:
            make_split(build_model(f"{p} + 0*t", "0", "1"), p1, p2)
        assert str(with_t.value) == text

    def test_split_records_its_constants(self):
        sp = make_split(build_model("-2", "0", "1"))
        assert sp.constants == {"p1": 0.0, "p2": -2.0}
        assert make_split(build_model("-t", "0", "1")).constants == {"p1": 0.0}

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

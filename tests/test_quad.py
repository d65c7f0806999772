"""Adaptive quadrature, cumulative-table and weighted-series tests: one
Gauss-Kronrod panel engine behind all three."""

import math
import sys

import numpy as np
import pytest

from osc3.expr import compile_fn, parse
from osc3.fixtures import get_fixture
from osc3.kamenev import GeometricGrid
from osc3.quad import DEFAULT_TOL, CumulativeTable, cumulative, gauss_jacobi, integrate_adaptive

BUMP_SRC = (
    "if(t - floor(t) <= floor(t)^(-5), "
    "-floor(t)^3 * sin(floor(t)^5 * pi * (t - floor(t)))^2, 0)"
)


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _at_depth(depth, fn):
    """fn() called with the stack ``depth`` frames deep."""
    def descend(k):
        return fn() if k <= 0 else descend(k - 1)

    return descend(depth - _stack_depth() - 1)


class _Counted:
    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.f(t)


class TestIntegrateAdaptive:
    def test_constant(self):
        res = integrate_adaptive(lambda t: 1.0, 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert not res.warning

    def test_quartic(self):
        res = integrate_adaptive(lambda t: t**4, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(0.2, abs=1e-12)

    def test_sine_arch(self):
        res = integrate_adaptive(math.sin, 0.0, math.pi, 1e-12)
        assert res.value == pytest.approx(2.0, abs=1e-11)

    def test_empty_interval(self):
        assert integrate_adaptive(lambda t: 5.0, 2.0, 2.0).value == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda t: 1.0, 1.0, 0.0)

    def test_narrow_feature_needs_breakpoints(self):
        # squared bump train sample: one spike of width 1e-5 inside [10, 10.5].
        # Exact mass of the n-th spike is 3 n / 8.
        f = compile_fn(parse(BUMP_SRC))
        g = lambda t: min(f(t), 0.0) ** 2
        edges = [10.0, 10.0 + 10.0**-5]
        blind = integrate_adaptive(g, 10.0, 10.5, 1e-10)
        seen = integrate_adaptive(g, 10.0, 10.5, 1e-10, breakpoints=edges)
        assert blind.value == 0.0  # initial samples all land outside the spike
        assert seen.value == pytest.approx(3.75, rel=1e-6)

    def test_wider_spike_found_either_way(self):
        f = compile_fn(parse(BUMP_SRC))
        g = lambda t: min(f(t), 0.0) ** 2
        res = integrate_adaptive(g, 2.0, 2.9, 1e-10, breakpoints=[2.0, 2.0 + 2.0**-5])
        assert res.value == pytest.approx(0.75, rel=1e-6)

    def test_breakpoints_outside_interval_ignored(self):
        res = integrate_adaptive(lambda t: t, 0.0, 1.0, breakpoints=[-3.0, 7.0])
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_jump_resolved_without_warning(self):
        # the panel holding the jump halves each level, so the estimate
        # converges well before the depth cap
        step = lambda t: 0.0 if t < 1.0 / 3.0 else 1.0
        res = integrate_adaptive(step, 0.0, 1.0, 1e-14)
        assert not res.warning
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_depth_cap_sets_warning(self):
        # integrable singularity at the left edge: error decays too slowly
        # for the requested tolerance, so the recursion bottoms out
        spike = lambda t: 0.0 if t <= 0.0 else t**-0.5
        res = integrate_adaptive(spike, 0.0, 1.0, 1e-14)
        assert res.warning
        assert res.value == pytest.approx(2.0, abs=1e-3)

    def test_eval_count_reported(self):
        res = integrate_adaptive(lambda t: math.sin(10 * t), 0.0, 5.0, 1e-10)
        assert res.evals > 5

    def test_eval_count_equals_integrand_calls(self):
        f = compile_fn(parse(BUMP_SRC))
        counted = _Counted(lambda t: min(f(t), 0.0) ** 2)
        edges = [9.0, 9.0 + 9.0**-5, 10.0, 10.0 + 10.0**-5]
        res = integrate_adaptive(counted, 8.5, 10.5, 1e-10, breakpoints=edges)
        assert res.evals == counted.calls > 0
        # the depth-cap case of test_depth_cap_sets_warning
        spike = _Counted(lambda t: 0.0 if t <= 0.0 else t**-0.5)
        res = integrate_adaptive(spike, 0.0, 1.0, 1e-14)
        assert res.warning
        assert res.evals == spike.calls

    def test_runs_near_the_recursion_limit(self):
        # the refinement needs no stack of its own, so a caller a dozen
        # frames below the limit can still integrate to a tight tolerance
        depth = sys.getrecursionlimit() - 12
        res = _at_depth(depth, lambda: integrate_adaptive(math.sin, 0.0, math.pi, 1e-12))
        assert res.value == pytest.approx(2.0, abs=1e-11)


class TestCumulative:
    def test_matches_prefix_integrals(self):
        f = lambda t: math.sin(t) + 0.2 * t
        grid = np.linspace(1.0, 9.0, 17)
        table = cumulative(f, 1.0, grid, 1e-11)
        assert isinstance(table, CumulativeTable)
        for g, v in zip(table.grid, table.values):
            direct = integrate_adaptive(f, 1.0, float(g), 1e-11).value
            assert v == pytest.approx(direct, abs=1e-9)

    def test_log_antiderivative(self):
        grid = np.linspace(1.0, 50.0, 25)
        table = cumulative(lambda t: 1.0 / t, 1.0, grid, 1e-11)
        assert np.allclose(table.values, np.log(grid), atol=1e-9)

    def test_grid_starting_past_a_gets_anchor_row(self):
        table = cumulative(lambda t: 2.0 * t, 0.0, [1.0, 2.0], 1e-11)
        assert list(table.grid) == [0.0, 1.0, 2.0]
        assert table.values[0] == 0.0
        assert table.values[1] == pytest.approx(1.0, abs=1e-10)
        assert table.values[2] == pytest.approx(4.0, abs=1e-10)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            cumulative(lambda t: 1.0, 0.0, [1.0, 0.5])

    def test_grid_before_start_rejected(self):
        with pytest.raises(ValueError):
            cumulative(lambda t: 1.0, 1.0, [0.5, 2.0])

    def test_breakpoints_forwarded(self):
        f = compile_fn(parse(BUMP_SRC))
        g = lambda t: min(f(t), 0.0) ** 2
        edges = [float(n) for n in range(9, 13)] + [n + n**-5.0 for n in range(9, 13)]
        table = cumulative(g, 9.0, [10.5, 11.5, 12.5], 1e-9, breakpoints=sorted(edges))
        masses = [3.0 * n / 8.0 for n in (9, 10, 11, 12)]
        assert table.values[1] == pytest.approx(sum(masses[:2]), rel=1e-6)
        assert table.values[3] == pytest.approx(sum(masses), rel=1e-6)


class TestWeightedSeries:
    """integrate_adaptive(power=m): int_a^{t_k} (t_k - tau)^m f dtau for a
    whole grid of right ends in one pass."""

    @pytest.mark.parametrize("m", [-0.5, 0.5, 1.5, 2.5])
    def test_gauss_jacobi_matches_scipy(self, m):
        special = pytest.importorskip("scipy.special")
        for n in (7, 15):
            nodes, weights = gauss_jacobi(n, m)
            ref_nodes, ref_weights = special.roots_jacobi(n, m, 0.0)
            assert np.allclose(nodes, ref_nodes, rtol=0.0, atol=1e-14)
            assert np.allclose(weights, ref_weights, rtol=1e-12, atol=0.0)

    # alpha = 0 and 2 give the integer exponents 0 to 3, where the weight is
    # a polynomial and the panel ending at t_k keeps the Kronrod rule
    @pytest.mark.parametrize("alpha", [0.0, 1.5, 2.0, 2.7])
    def test_example31_series_match_scipy(self, alpha):
        integrate = pytest.importorskip("scipy.integrate")
        fx = get_fixture("example31")
        model = fx.build()
        pts = GeometricGrid(1.0, 1.15, 40).points()
        series = (
            (fx.d_fn(), alpha + 1.0),
            (fx.d_fn(), alpha),
            (lambda tau: min(model.p_at(tau), 0.0) ** 2, alpha),
            (lambda tau: min(model.p_at(tau), 0.0), alpha),
        )
        for g, m in series:
            res = integrate_adaptive(g, model.t0, pts, DEFAULT_TOL, power=m)
            assert not res.warning
            for t, got in zip(pts, res.value):
                ref, _ = integrate.quad(lambda tau: (t - tau) ** m * g(tau), model.t0, t,
                                        epsabs=0.0, epsrel=1e-13, limit=200)
                assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref)), (m, t)

    def test_constant_and_linear_exact(self):
        # int_1^t (t - tau)^m dtau = (t-1)^(m+1)/(m+1); with f = tau add
        # (t-1)^(m+2)/((m+1)(m+2)) to the constant part
        pts = [1.0, 1.5, 3.0, 7.25]
        for m in (-0.5, 0.0, 1.5):
            res = integrate_adaptive(lambda tau: tau, 1.0, pts, 1e-12, power=m)
            d = np.array(pts) - 1.0
            expect = d ** (m + 1.0) / (m + 1.0) + d ** (m + 2.0) / ((m + 1.0) * (m + 2.0))
            assert np.allclose(res.value, expect, rtol=1e-13, atol=0.0)

    def test_evals_equal_integrand_calls(self):
        fx = get_fixture("example31")
        counted = _Counted(fx.d_fn())
        res = integrate_adaptive(counted, 1.0, GeometricGrid(1.0, 1.15, 40).points(), DEFAULT_TOL,
                                 power=1.5)
        assert res.evals == counted.calls > 0
        # bisected panels and breakpoints included
        f = compile_fn(parse(BUMP_SRC))
        counted = _Counted(lambda t: min(f(t), 0.0) ** 2)
        edges = [9.0, 9.0 + 9.0**-5, 10.0, 10.0 + 10.0**-5]
        res = integrate_adaptive(counted, 8.5, [9.7, 10.5], 1e-10, breakpoints=edges, power=0.5)
        assert res.evals == counted.calls > 0

    def test_one_pass_is_linear_in_the_grid(self):
        # one pass serves the whole grid: a few panels per gap, not a fresh
        # quadrature from a for every grid point
        fx = get_fixture("example31")
        calls = {}
        for count in (40, 80):
            series_fn = _Counted(fx.d_fn())
            integrate_adaptive(series_fn, 1.0, GeometricGrid(1.0, 1.15, count).points(), DEFAULT_TOL,
                               power=1.5)
            assert series_fn.calls <= 37 * (count - 1)
            calls[count] = series_fn.calls
        assert calls[80] <= 2.2 * calls[40]

    @pytest.mark.parametrize("breakpoints", [None, [9.0, 9.0 + 9.0**-5, 10.0, 10.0 + 10.0**-5]])
    def test_scalar_and_cumulative_forms_are_the_power_zero_series(self, breakpoints):
        # one rule: the single integral is the one-point series at m = 0 and
        # the cumulative table the series along its grid, bit for bit
        f = compile_fn(parse(BUMP_SRC))
        g = lambda t: math.sin(t) + min(f(t), 0.0) ** 2
        grid = [8.5, 9.7, 10.5, 12.0]
        for b in grid:
            one = integrate_adaptive(g, 8.0, b, 1e-10, breakpoints=breakpoints)
            series = integrate_adaptive(g, 8.0, [b], 1e-10, breakpoints=breakpoints, power=0)
            assert (one.value, one.evals, one.warning) == (series.value[0], series.evals, series.warning)
        counted = _Counted(g)
        table = cumulative(counted, 8.0, grid, 1e-10, breakpoints=breakpoints)
        series = integrate_adaptive(g, 8.0, [8.0, *grid], 1e-10, breakpoints=breakpoints, power=0)
        assert table.values.tolist() == series.value.tolist()
        assert counted.calls == series.evals
        assert table.warning == series.warning

    def test_roundoff_limited_bump_sets_warning(self):
        # example32's bump at n = 30 is known only to ulp(30) in t - floor(t),
        # amplified by 30^5 pi: refinement stops on rounding noise, flagged
        fx = get_fixture("example32")
        model = fx.build()
        edges = [x for x in fx.breakpoints(31.0) if 29.5 <= x <= 30.5]
        res = integrate_adaptive(lambda tau: min(model.p_at(tau), 0.0) ** 2, 29.5, [30.5],
                                 DEFAULT_TOL, breakpoints=edges, power=1.5)
        assert res.warning
        # 3 M^2 n / 8 with M = 13, weighted by about 0.5^1.5
        assert res.value[0] == pytest.approx(3.0 * 169.0 * 30.0 / 8.0 * 0.5**1.5, rel=1e-6)

    def test_depth_cap_sets_warning(self):
        # int_0^1 (1 - tau)^0.5 tau^-0.5 dtau = B(1/2, 3/2) = pi / 2; the
        # singular left edge keeps failing to the depth cap
        spike = _Counted(lambda t: 0.0 if t <= 0.0 else t**-0.5)
        res = integrate_adaptive(spike, 0.0, [1.0], 1e-14, power=0.5)
        assert res.warning
        assert res.evals == spike.calls
        assert res.value[0] == pytest.approx(math.pi / 2.0, rel=1e-6)

    def test_right_ends_at_a_give_zero(self):
        res = integrate_adaptive(lambda tau: 1.0, 2.0, [2.0, 2.0, 3.0], power=0.5)
        assert res.value[:2].tolist() == [0.0, 0.0]
        assert res.value[2] == pytest.approx(2.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("a, ends, m", [(1.0, [2.0, 1.5], 0.5), (1.0, [0.5, 2.0], 0.5),
                                            (1.0, [2.0], -1.0), (1.0, [2.0, math.inf], 0.5),
                                            (math.nan, [2.0], 0.5), (1.0, [2.0], math.inf)])
    def test_invalid_input_rejected(self, a, ends, m):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda tau: 1.0, a, ends, power=m)

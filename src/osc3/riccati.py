"""First and second order Riccati machinery.

Three related objects live here.  ``riccati2_residual`` substitutes
y = phi'/phi into an integrated third-order trajectory and evaluates the
second-order equation y'' + (3y + p)y' + y^3 + p y^2 + q y + r pointwise;
with y', y'' reconstructed from the stored state this is an algebraic
identity, so its residual measures nothing but implementation and rounding
consistency, which is exactly what makes it a useful cross-check.
``bernoulli_closed`` evaluates the explicit solution of
u' + (3/2)u^2 + p_-(t) u = 0 by quadrature.  ``solve_riccati1`` integrates a
general scalar Riccati equation y' + f y^2 + g y + h = 0 with finite-time
escape detection, and ``comparison_check`` wires two such problems into the
ordering test: sampled preconditions, the weighted hypothesis trace, and a
pointwise y1 >= y2 verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeffs import CoefficientModel
from .ode import BLOW_UP, COMPLETED, STEP_UNDERFLOW, OdeControls, Trajectory, _dopri
from .quad import integrate_adaptive

AS_WRITTEN = "AS_WRITTEN"
LINEARIZED = "LINEARIZED"

MIN_RESIDUAL_POINTS = 8  # fewest samples riccati2_residual evaluates on
ETA_CHECK_POINTS = 64  # comparison_check samples each eta inequality here ...
ETA_CHECK_TOL = 1e-6  # ... to this relative tolerance
CONTROLS = OdeControls(rel_tol=1e-10, abs_tol=1e-12)  # every Riccati solve steps with these
ESCAPE = 1e12  # a Riccati solution with |y| past this has escaped


def _as_fn(obj) -> Callable[[float], float]:
    if callable(obj):
        return obj
    if isinstance(obj, (int, float)):
        c = float(obj)
        return lambda t: c
    raise TypeError(f"expected callable or number, got {type(obj).__name__}")


@dataclass
class RiccatiProblem:
    """Scalar Riccati equation y' + f(t) y^2 + g(t) y + h(t) = 0."""

    f: object
    g: object
    h: object
    t_start: float
    y_start: float

    def __post_init__(self):
        self.f_at = _as_fn(self.f)
        self.g_at = _as_fn(self.g)
        self.h_at = _as_fn(self.h)


def solve_riccati1(prob: RiccatiProblem, t_max: float) -> Trajectory:
    """Integrate y' = -(f y^2 + g y + h) from (t_start, y_start); y is the
    one column of the returned trajectory.

    Solutions escaping |y| > ESCAPE stop there with status BLOW_UP, so
    ``t_end`` is the escape time; step underflow while chasing a vertical
    asymptote is folded into the same blow-up status.
    """
    if not prob.t_start < t_max < math.inf:
        raise ValueError(f"t_max={t_max!r} must be finite and exceed t_start={prob.t_start!r}")
    f_at, g_at, h_at = prob.f_at, prob.g_at, prob.h_at

    def deriv(t, v, _b, _c):
        return -(f_at(t) * v * v + g_at(t) * v + h_at(t)), 0.0, 0.0

    traj = _dopri(deriv, prob.t_start, (prob.y_start,), t_max, CONTROLS, escape=ESCAPE)
    if traj.status == STEP_UNDERFLOW:
        traj.status = BLOW_UP
        traj.warnings.append(f"step underflow at t={traj.t_end:.6g}, treated as blow-up")
    if traj.status == BLOW_UP:
        traj.warnings.append(f"solution escaped |y|>{ESCAPE:.3g} near t={traj.t_end:.6g}")
    return traj


def bernoulli_closed(u_T1: float, T1: float, p_minus_fn: Callable[[float], float], t: float) -> float:
    """Explicit solution of u' + (3/2)u^2 + p_-(t)u = 0 with u(T1) = u_T1.

    u(t) = u(T1) E(t) / (1 + (3/2) u(T1) int_T1^t E), with
    E(s) = exp(-int_T1^s p_-).  Both integrals are evaluated by adaptive
    quadrature; since u_T1 > 0 and E > 0 the denominator stays positive.
    """
    if u_T1 <= 0.0:
        raise ValueError(f"u_T1 must be positive, got {u_T1!r}")
    if t < T1:
        raise ValueError(f"t={t!r} precedes T1={T1!r}")
    if t == T1:
        return float(u_T1)

    def envelope(s: float) -> float:
        return math.exp(-integrate_adaptive(p_minus_fn, T1, s, 1e-12).value)

    denom_int = integrate_adaptive(envelope, T1, t, 1e-10).value
    return u_T1 * envelope(t) / (1.0 + 1.5 * u_T1 * denom_int)


@dataclass
class ResidualReport:
    t: np.ndarray
    residual: np.ndarray
    max_abs: float
    window: tuple
    n_points: int


def riccati2_residual(
    model: CoefficientModel,
    traj: Trajectory,
    *,
    window: tuple | None = None,
) -> ResidualReport:
    """Residual of y'' + (3y + p)y' + y^3 + p y^2 + q y + r for y = phi'/phi.

    y' and y'' come from the stored state: y' = phi''/phi - y^2 and y''
    uses phi''' = -(p phi'' + q phi' + r phi).  By default the window is the
    longest suffix of samples on which phi keeps one sign; an explicit
    window containing a zero of phi is an error.
    """
    ts = traj.t
    phi = traj.states[:, 0]
    if window is not None:
        lo, hi = window
        mask = (ts >= lo) & (ts <= hi)
        idx = np.nonzero(mask)[0]
        if len(idx) < MIN_RESIDUAL_POINTS:
            raise ValueError(f"window [{lo}, {hi}] holds only {len(idx)} samples")
        sel = phi[idx]
        tiny = 1e-300 + 0.0 * np.max(np.abs(sel))
        if np.any(sel == 0.0) or np.any(np.sign(sel) != np.sign(sel[-1])):
            k = idx[int(np.argmin(np.abs(sel)))]
            raise ValueError(f"phi vanishes near t={ts[k]:.6g} inside the requested window")
    else:
        s_last = np.sign(phi[-1])
        if s_last == 0.0:
            raise ValueError(f"phi vanishes at the final sample t={ts[-1]:.6g}")
        k0 = len(phi)
        while k0 > 0 and np.sign(phi[k0 - 1]) == s_last:
            k0 -= 1
        idx = np.arange(k0, len(phi))
        if len(idx) < MIN_RESIDUAL_POINTS:
            raise ValueError(
                f"constant-sign tail has only {len(idx)} samples "
                f"(phi changes sign near t={ts[max(k0 - 1, 0)]:.6g})"
            )
    t_sel = ts[idx]
    ph = phi[idx]
    dph = traj.states[idx, 1]
    ddph = traj.states[idx, 2]
    p = np.array([model.p_at(t) for t in t_sel])
    q = np.array([model.q_at(t) for t in t_sel])
    r = np.array([model.r_at(t) for t in t_sel])
    dddph = -(p * ddph + q * dph + r * ph)
    y = dph / ph
    yp = ddph / ph - y * y
    ypp = dddph / ph - (ddph / ph) * y - 2.0 * y * yp
    res = ypp + (3.0 * y + p) * yp + y**3 + p * y * y + q * y + r
    return ResidualReport(
        t_sel,
        res,
        float(np.max(np.abs(res))),
        (float(t_sel[0]), float(t_sel[-1])),
        len(idx),
    )


class ComparisonPreconditionError(ValueError):
    """A sampled hypothesis of the comparison test fails before the check runs."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"precondition {name} violated: {detail}")
        self.name = name
        self.detail = detail


@dataclass
class ComparisonReport:
    variant: str
    gamma: float
    window: tuple
    hypothesis_ok: bool
    hypothesis_min: float
    trace_grid: np.ndarray
    trace: np.ndarray
    y1: Trajectory
    y2: Trajectory
    ordering_ok: bool
    first_violation: tuple | None
    preconditions: dict
    warnings: list

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "gamma": self.gamma,
            "window": list(self.window),
            "hypothesis_ok": self.hypothesis_ok,
            "hypothesis_min": self.hypothesis_min,
            "ordering_ok": self.ordering_ok,
            "first_violation": list(self.first_violation) if self.first_violation else None,
            "preconditions": self.preconditions,
            "y1_status": self.y1.status,
            "y2_status": self.y2.status,
            "y1_end": float(self.y1.states[-1, 0]),
            "y2_end": float(self.y2.states[-1, 0]),
            "n_trace_points": int(len(self.trace_grid)),
            "warnings": list(self.warnings),
        }


def _cumtrapz(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _eta_residual_check(name, eta, prob, grid, eta_tol):
    """Sample eta' + f eta^2 + g eta + h and require it >= -tol pointwise.

    eta' comes from a central difference, so the check screens for
    qualitatively wrong comparison functions rather than certifying the
    inequality to rounding level; eta built by interpolating an integrated
    trajectory carries noise around 1e-12 per evaluation and the step and
    tolerance are sized so that survives.
    """
    worst = math.inf
    worst_t = grid[0]
    span = grid[-1] - grid[0]
    dh = max(1e-5 * span, 1e-8)
    for t in grid:
        e0 = eta(t)
        d_eta = (eta(t + dh) - eta(t - dh)) / (2.0 * dh)
        f, g, h = prob.f_at(t), prob.g_at(t), prob.h_at(t)
        res = d_eta + f * e0 * e0 + g * e0 + h
        tol = eta_tol * (1.0 + abs(f * e0 * e0) + abs(g * e0) + abs(h) + abs(d_eta))
        if res + tol < worst:
            worst = res + tol
            worst_t = t
        if res < -tol:
            raise ComparisonPreconditionError(
                name, f"inequality residual {res:.3e} < -{tol:.1e} at t={t:.6g}"
            )
    return {"ok": True, "min_residual_margin": worst, "at": float(worst_t)}


def comparison_check(
    prob1: RiccatiProblem,
    prob2: RiccatiProblem,
    eta1,
    eta2,
    gamma: float,
    t_max: float,
    variant: str = AS_WRITTEN,
    *,
    n_grid: int = 400,
) -> ComparisonReport:
    """Ordering test for two scalar Riccati equations.

    Solves both problems, verifies the sampled preconditions (f1 >= 0, the
    eta functions satisfy their differential inequalities, gamma sits in
    [y2(t0), eta1(t0)], y2(t0) <= eta_k(t0)), accumulates the weighted
    hypothesis trace

        gamma - y2(t0) + int exp{int [f1 (eta1+eta2) + g1]} [D(tau)] dtau

    where D is (f2-f1)^2 y2^2 + (g2-g1) y2 + h2 - h1 for variant AS_WRITTEN
    and (f2-f1) y2^2 + ... for LINEARIZED, then reports whether y1 >= y2
    pointwise up to tol = max(1e-8, 1e-6 |y2|) on the shared window,
    sampled at ``n_grid`` >= 2 points.
    """
    if variant not in (AS_WRITTEN, LINEARIZED):
        raise ValueError(f"unknown variant {variant!r}")
    if n_grid < 2:
        raise ValueError(f"n_grid must be at least 2, got {n_grid}")
    if prob1.t_start != prob2.t_start:
        raise ValueError("both problems must share t_start")
    t0 = prob1.t_start
    eta1_fn = _as_fn(eta1)
    eta2_fn = _as_fn(eta2)
    y2 = solve_riccati1(prob2, t_max)
    y1 = solve_riccati1(prob1, t_max)
    warnings = list(y1.warnings) + list(y2.warnings)
    t_hi = min(y1.t_end, y2.t_end)
    if t_hi <= t0:
        raise ValueError("empty comparison window: a solution escaped immediately")
    grid = np.linspace(t0, t_hi, n_grid)

    preconditions = {}
    # f1 >= 0 sampled
    f1_vals = np.array([prob1.f_at(t) for t in grid])
    if np.any(f1_vals < -1e-12):
        k = int(np.argmin(f1_vals))
        raise ComparisonPreconditionError("f1_nonnegative", f"f1({grid[k]:.6g}) = {f1_vals[k]:.3e}")
    preconditions["f1_nonnegative"] = {"ok": True, "min": float(np.min(f1_vals))}

    y2_t0 = float(y2.states[0, 0])
    for name, fn in (("eta1", eta1_fn), ("eta2", eta2_fn)):
        v0 = fn(t0)
        if y2_t0 > v0 + 1e-12 * (1.0 + abs(v0)):
            raise ComparisonPreconditionError(
                f"{name}_initial", f"y2(t0)={y2_t0:.6g} exceeds {name}(t0)={v0:.6g}"
            )
    eta1_t0 = eta1_fn(t0)
    if not (y2_t0 - 1e-12 * (1.0 + abs(y2_t0)) <= gamma <= eta1_t0 + 1e-12 * (1.0 + abs(eta1_t0))):
        raise ComparisonPreconditionError(
            "gamma_range", f"gamma={gamma:.6g} outside [y2(t0), eta1(t0)] = [{y2_t0:.6g}, {eta1_t0:.6g}]"
        )
    preconditions["gamma_range"] = {"ok": True, "low": y2_t0, "high": float(eta1_t0)}

    eta_grid = np.linspace(t0, t_hi, ETA_CHECK_POINTS)
    preconditions["eta1_inequality"] = _eta_residual_check(
        "eta1_inequality", eta1_fn, prob1, eta_grid, ETA_CHECK_TOL
    )
    preconditions["eta2_inequality"] = _eta_residual_check(
        "eta2_inequality", eta2_fn, prob2, eta_grid, ETA_CHECK_TOL
    )

    # weighted hypothesis trace along the grid
    w = np.array([prob1.f_at(t) * (eta1_fn(t) + eta2_fn(t)) + prob1.g_at(t) for t in grid])
    expo = _cumtrapz(grid, w)
    y2_vals = np.array([y2.at(t)[0] for t in grid])
    df = np.array([prob2.f_at(t) - prob1.f_at(t) for t in grid])
    dg = np.array([prob2.g_at(t) - prob1.g_at(t) for t in grid])
    dhh = np.array([prob2.h_at(t) - prob1.h_at(t) for t in grid])
    f_term = df**2 if variant == AS_WRITTEN else df
    integrand = np.exp(expo) * (f_term * y2_vals**2 + dg * y2_vals + dhh)
    trace = gamma - y2_t0 + _cumtrapz(grid, integrand)
    hyp_min = float(np.min(trace))
    hyp_tol = 1e-9 * (1.0 + float(np.max(np.abs(trace))))
    hypothesis_ok = bool(hyp_min >= -hyp_tol)

    y1_vals = np.array([y1.at(t)[0] for t in grid])
    tol = np.maximum(1e-8, 1e-6 * np.abs(y2_vals))
    viol = np.nonzero(y1_vals < y2_vals - tol)[0]
    if len(viol):
        k = int(viol[0])
        first_violation = (float(grid[k]), float(y1_vals[k]), float(y2_vals[k]))
        ordering_ok = False
    else:
        first_violation = None
        ordering_ok = True

    if y1.status != COMPLETED or y2.status != COMPLETED:
        warnings.append(f"comparison window truncated to [{t0:.6g}, {t_hi:.6g}]")
    return ComparisonReport(
        variant,
        float(gamma),
        (float(t0), float(t_hi)),
        hypothesis_ok,
        hyp_min,
        grid,
        trace,
        y1,
        y2,
        ordering_ok,
        first_violation,
        preconditions,
        warnings,
    )

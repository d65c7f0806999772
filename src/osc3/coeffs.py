"""Coefficient models for phi''' + p phi'' + q phi' + r phi = 0.

A model bundles the three coefficient expressions, the symbolic derivative
p', bound parameter values and the left endpoint t0, with the two facts
about the equation that every consumer shares: its minimum function D
(``d_at``: an override, or ``d_closed``) and the narrow active windows of
its coefficients (``windows``), where quadrature panels split and integrator
steps shorten.  On top of it live the pointwise quantities the averaged
oscillation criteria consume:

* ``p_minus``   -- the negative part min(p(t), 0);
* ``cubic_g``   -- G(t, u) = u^3 + p u^2 + (q - p') u + r;
* ``d_closed``  -- inf over u >= 0 of G(t, u), in closed form;
* ``d_oracle``  -- the same infimum by grid scan plus golden-section
                   refinement, kept as an independent cross-check.

The closed form: G' has discriminant p^2 + 3(p' - q) (up to a factor).  When
it is negative G is strictly increasing, so the infimum on u >= 0 sits at
u = 0 with value r.  Otherwise the larger critical point
u* = (sqrt(p^2 + 3(p' - q)) - p) / 3 is the local minimum; when u* >= 0 the
infimum is min(r, G(u*)), and when u* < 0 the cubic is again increasing on
u >= 0 and the answer is r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr

_GOLDEN_FRAC = 0.6180339887498949  # (sqrt(5) - 1) / 2
PROBE_SPAN = 1e4  # probe samples [t0, t0 + PROBE_SPAN] ...
VALIDATE_N = 256  # ... at this many points for build_model and a D override
SPLIT_N = 1024  # make_split probes p1, p2 and their sum at this many points
SIGN_SPAN = 1e4  # condition (a) and p == 0 are sampled on [t0, t0 + SIGN_SPAN] ...
SIGN_N = 1024  # ... and condition (a) at this many points
ORACLE_N_GRID = 1000  # d_oracle scans this many cells of [0, u_max] ...
ORACLE_U_TOL = 1e-10  # ... and refines the best one to this width


class ModelError(ValueError):
    pass


def sample_points(t0: float, span: float = 1e4, n: int = 1024) -> np.ndarray:
    """Deterministic jittered sample grid on [t0, t0 + span].

    Stratified points with a golden-ratio offset inside each cell: low
    discrepancy, never aligned with integer breakpoints or simple periods,
    and identical on every run.
    """
    k = np.arange(n)
    offsets = (k + 1) * _GOLDEN_FRAC % 1.0
    return t0 + span * (k + offsets) / n


@dataclass
class CoefficientModel:
    p: expr.ExprAst
    q: expr.ExprAst
    r: expr.ExprAst
    p_prime: expr.ExprAst
    params: dict
    t0: float
    p_at: Callable[[float], float] = field(repr=False, default=None)
    q_at: Callable[[float], float] = field(repr=False, default=None)
    r_at: Callable[[float], float] = field(repr=False, default=None)
    p_prime_at: Callable[[float], float] = field(repr=False, default=None)
    d_at: Callable[[float], float] = field(repr=False, default=None)  # the minimum function D
    # t_end -> the narrow active windows [(lo, hi), ...] up to t_end, or None
    windows: Callable[[float], list] | None = field(repr=False, default=None)


def probe(
    fns: Mapping[str, Callable[[float], float]],
    t0: float,
    n: int = VALIDATE_N,
    extra: Sequence[float] = (),
) -> list:
    """Values of each labelled function at the jittered points over
    [t0, t0 + PROBE_SPAN], then at the ``extra`` points.

    Returns one (t, values) row per point.  A domain error or a non-finite
    value is a ModelError that names the label and the point.
    """
    rows = []
    for t in sample_points(t0, PROBE_SPAN, n).tolist() + list(extra):
        values = []
        for label, fn in fns.items():
            try:
                v = fn(t)
            except (ArithmeticError, ValueError) as exc:
                # ExprError, or what floor/sin/cos raise on an inf or nan argument
                raise ModelError(f"{label} undefined at t={t:.6g}: {exc}") from exc
            if not math.isfinite(v):
                raise ModelError(f"{label} is not finite at t={t:.6g}")
            values.append(v)
        rows.append((t, values))
    return rows


def build_model(
    p_src: str,
    q_src: str,
    r_src: str,
    params: Mapping[str, float] | None = None,
    t0: float = 1.0,
    d_src: str | None = None,
    windows: Callable[[float], list] | None = None,
) -> CoefficientModel:
    """Parse the three coefficient sources and differentiate p symbolically.

    ``d_src`` overrides the minimum function D, which is otherwise
    ``d_closed``; ``windows`` maps t_end to the coefficients' narrow active
    windows up to t_end.  The four resulting expressions and the override
    are probed on a jittered grid over [t0, t0 + 1e4]; a non-finite
    parameter, a domain error or a non-finite value is a ModelError.
    """
    if not math.isfinite(t0):
        raise ModelError(f"t0={t0} is not finite")
    params = dict(params or {})
    for name, value in params.items():
        if not math.isfinite(value):
            raise ModelError(f"parameter {name}={value} is not finite")
    names = tuple(params)
    try:
        p = expr.parse(p_src, names)
        q = expr.parse(q_src, names)
        r = expr.parse(r_src, names)
    except expr.ExprError as exc:
        raise ModelError(f"cannot parse coefficients: {exc}") from exc
    p_prime = expr.differentiate(p)
    model = CoefficientModel(p, q, r, p_prime, params, float(t0))
    model.p_at = expr.compile_fn(p, params)
    model.q_at = expr.compile_fn(q, params)
    model.r_at = expr.compile_fn(r, params)
    model.p_prime_at = expr.compile_fn(p_prime, params)
    fns = {"p": model.p_at, "q": model.q_at, "r": model.r_at, "p'": model.p_prime_at}
    if d_src:
        model.d_at = fns["D"] = expr.compile_fn(expr.parse(d_src, names), params)
    else:
        model.d_at = lambda t: d_closed(model, t)
    model.windows = windows
    probe(fns, model.t0)
    return model


def p_minus(model: CoefficientModel, t: float) -> float:
    """Negative part of p: min(p(t), 0)."""
    return min(model.p_at(t), 0.0)


def cubic_g(model: CoefficientModel, t: float, u: float) -> float:
    """G(t, u) = u^3 + p u^2 + (q - p') u + r, evaluated by Horner."""
    p = model.p_at(t)
    c = model.q_at(t) - model.p_prime_at(t)
    return ((u + p) * u + c) * u + model.r_at(t)


def d_closed(model: CoefficientModel, t: float) -> float:
    """Infimum over u >= 0 of G(t, u), via the critical-point formula."""
    p = model.p_at(t)
    pp = model.p_prime_at(t)
    q = model.q_at(t)
    r = model.r_at(t)
    disc = p * p + 3.0 * (pp - q)
    if disc < 0.0:
        return r
    u = (math.sqrt(disc) - p) / 3.0
    if u < 0.0:
        return r
    g = ((u + p) * u + (q - pp)) * u + r
    return min(r, g)


def _golden_min(f, lo, hi, tol):
    a, b = lo, hi
    x1 = b - _GOLDEN_FRAC * (b - a)
    x2 = a + _GOLDEN_FRAC * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN_FRAC * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN_FRAC * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def d_oracle(model: CoefficientModel, t: float) -> float:
    """Infimum over u >= 0 of G(t, u) by brute scan, refined by golden section.

    Independent of :func:`d_closed` on purpose; the scanned [0, u_max]
    always contains the interior critical point of the cubic.
    """
    p = model.p_at(t)
    c = model.q_at(t) - model.p_prime_at(t)
    r = model.r_at(t)
    u_max = 10.0 * (1.0 + abs(p) + math.sqrt(abs(c)))
    grid = np.linspace(0.0, u_max, ORACLE_N_GRID + 1)
    vals = ((grid + p) * grid + c) * grid + r
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, ORACLE_N_GRID)]
    g_scalar = lambda u: ((u + p) * u + c) * u + r
    _, fmin = _golden_min(g_scalar, lo, hi, ORACLE_U_TOL)
    return min(fmin, float(vals[k]), r)


@dataclass
class ConditionStatus:
    holds: bool
    witness_t: float | None  # first sampled violation, if any
    witness_value: float | None


@dataclass
class SignReport:
    """Sampled check of the sign hypotheses r(t) > 0 (strict) and q(t) <= 0."""

    holds: bool  # both hypotheses hold at every sample
    r_positive: ConditionStatus
    q_nonpositive: ConditionStatus
    n_samples: int
    span: float


def check_condition_a(model: CoefficientModel) -> SignReport:
    r_stat = ConditionStatus(True, None, None)
    q_stat = ConditionStatus(True, None, None)
    for t in sample_points(model.t0, SIGN_SPAN, SIGN_N).tolist():
        if r_stat.holds:
            rv = model.r_at(t)
            if not rv > 0.0:
                r_stat = ConditionStatus(False, t, rv)
        if q_stat.holds:
            qv = model.q_at(t)
            if qv > 0.0:
                q_stat = ConditionStatus(False, t, qv)
        if not r_stat.holds and not q_stat.holds:
            break
    return SignReport(r_stat.holds and q_stat.holds, r_stat, q_stat, SIGN_N, SIGN_SPAN)


@dataclass
class SplitModel:
    """Decomposition p_- = p1 + p2 with both parts nonpositive.

    Used by the criterion that needs an integrable part plus a bounded part.
    """

    base: CoefficientModel
    p1: expr.ExprAst
    p2: expr.ExprAst
    p1_at: Callable[[float], float] = field(repr=False, default=None)
    p2_at: Callable[[float], float] = field(repr=False, default=None)


def make_split(
    model: CoefficientModel,
    p1_src: str | None = None,
    p2_src: str | None = None,
) -> SplitModel:
    """Build and validate a split of p_-.

    Defaults to the trivial split p1 = 0, p2 = min(p, 0), which is valid
    whenever p_- itself is bounded.  Validation probes p1 and p2 like the
    coefficients, at SPLIT_N points and then at the midpoint of every
    window (lo, hi) of the model's up to t0 + PROBE_SPAN whose midpoint is
    above lo in double precision, so that a bump narrower than the probe
    spacing is not missed.  It requires p1 <= 0, p2 <= 0 (tolerance 1e-12) and
    p1 + p2 = p_- to a relative tolerance of 1e-9.
    """
    names = tuple(model.params)
    if p1_src is None:
        p1_src = "0"
    if p2_src is None:
        p2_src = f"min({model.p.source}, 0)"
    try:
        p1 = expr.parse(p1_src, names)
        p2 = expr.parse(p2_src, names)
    except expr.ExprError as exc:
        raise ModelError(f"cannot parse split: {exc}") from exc
    split = SplitModel(model, p1, p2)
    split.p1_at = expr.compile_fn(p1, model.params)
    split.p2_at = expr.compile_fn(p2, model.params)
    windows = model.windows(model.t0 + PROBE_SPAN) if model.windows else ()
    midpoints = [mid for lo, hi in windows if (mid := 0.5 * (lo + hi)) > lo]
    for t, (v1, v2) in probe({"p1": split.p1_at, "p2": split.p2_at}, model.t0, SPLIT_N, midpoints):
        if v1 > 1e-12 or v2 > 1e-12:
            raise ModelError(f"split parts must be nonpositive; violated at t={t:.6g}")
        pm = p_minus(model, t)
        if abs((v1 + v2) - pm) > 1e-9 * (1.0 + abs(pm)):
            raise ModelError(f"split does not reconstruct min(p, 0) at t={t:.6g}")
    return split

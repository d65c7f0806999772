"""Coefficient models for phi''' + p phi'' + q phi' + r phi = 0.

A model bundles the three coefficient expressions, the symbolic derivative
p', bound parameter values and the left endpoint t0.  On top of it live the
pointwise quantities the averaged oscillation criteria consume:

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
from typing import Callable, Mapping

import numpy as np

from . import expr

_GOLDEN_FRAC = 0.6180339887498949  # (sqrt(5) - 1) / 2


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

    def sources(self) -> dict:
        return {"p": self.p.source, "q": self.q.source, "r": self.r.source}


def build_model(
    p_src: str,
    q_src: str,
    r_src: str,
    params: Mapping[str, float] | None = None,
    t0: float = 1.0,
    *,
    validate_n: int = 256,
) -> CoefficientModel:
    """Parse the three coefficient sources and differentiate p symbolically.

    The four resulting expressions are probed on a jittered grid over
    [t0, t0 + 1e4]; a non-finite parameter, a domain error or a non-finite
    value is a ModelError.
    """
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
    for t in sample_points(model.t0, n=validate_n).tolist():
        for label, fn in (("p", model.p_at), ("q", model.q_at), ("r", model.r_at), ("p'", model.p_prime_at)):
            try:
                v = fn(t)
            except expr.ExprError as exc:
                raise ModelError(f"{label} undefined at t={t:.6g}: {exc}") from exc
            if not math.isfinite(v):
                raise ModelError(f"{label} is not finite at t={t:.6g}")
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

def d_oracle(
    model: CoefficientModel,
    t: float,
    *,
    u_max: float | None = None,
    n_grid: int = 1000,
    u_tol: float = 1e-10,
) -> float:
    """Infimum over u >= 0 of G(t, u) by brute scan, refined by golden section.

    Independent of :func:`d_closed` on purpose; the default ``u_max`` always
    contains the interior critical point of the cubic.
    """
    p = model.p_at(t)
    c = model.q_at(t) - model.p_prime_at(t)
    r = model.r_at(t)
    if u_max is None:
        u_max = 10.0 * (1.0 + abs(p) + math.sqrt(abs(c)))
    grid = np.linspace(0.0, u_max, n_grid + 1)
    vals = ((grid + p) * grid + c) * grid + r
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, n_grid)]
    g_scalar = lambda u: ((u + p) * u + c) * u + r
    _, fmin = _golden_min(g_scalar, lo, hi, u_tol)
    return min(fmin, float(vals[k]), r)


@dataclass
class ConditionStatus:
    holds: bool
    witness_t: float | None  # first sampled violation, if any
    witness_value: float | None


@dataclass
class SignReport:
    """Sampled check of the sign hypotheses r(t) > 0 (strict) and q(t) <= 0."""

    r_positive: ConditionStatus
    q_nonpositive: ConditionStatus
    n_samples: int
    span: float

    @property
    def holds(self) -> bool:
        return self.r_positive.holds and self.q_nonpositive.holds


def check_condition_a(model: CoefficientModel, span: float = 1e4, n: int = 1024) -> SignReport:
    pts = sample_points(model.t0, span, n)
    r_stat = ConditionStatus(True, None, None)
    q_stat = ConditionStatus(True, None, None)
    for t in pts:
        if r_stat.holds:
            rv = model.r_at(t)
            if not rv > 0.0:
                r_stat = ConditionStatus(False, float(t), rv)
        if q_stat.holds:
            qv = model.q_at(t)
            if qv > 0.0:
                q_stat = ConditionStatus(False, float(t), qv)
        if not r_stat.holds and not q_stat.holds:
            break
    return SignReport(r_stat, q_stat, n, span)


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
    *,
    n_check: int = 1024,
) -> SplitModel:
    """Build and validate a split of p_-.

    Defaults to the trivial split p1 = 0, p2 = min(p, 0), which is valid
    whenever p_- itself is bounded.  Validation samples a jittered grid and
    requires p1 <= 0, p2 <= 0 (tolerance 1e-12) and p1 + p2 = p_- to a
    relative tolerance of 1e-9.
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
    for t in sample_points(model.t0, n=n_check).tolist():
        v1 = split.p1_at(t)
        v2 = split.p2_at(t)
        if v1 > 1e-12 or v2 > 1e-12:
            raise ModelError(f"split parts must be nonpositive; violated at t={t:.6g}")
        pm = p_minus(model, t)
        if abs((v1 + v2) - pm) > 1e-9 * (1.0 + abs(pm)):
            raise ModelError(f"split does not reconstruct min(p, 0) at t={t:.6g}")
    return split

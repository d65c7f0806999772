"""Weighted-average oscillation criteria and the numerical verdict engine.

The criteria all reduce to a scalar function S(t) sampled along a geometric
grid: either a plain running integral of the minimum function D, or a
weighted average of the form (1/t^m) int (t-tau)^m [...] dtau.  A limsup or
liminf statement about S is then replaced by a documented finite-horizon
classification (DIVERGES / BOUNDED / INCONCLUSIVE) with its evidence
attached, since no finite computation can decide a limsup.

Every series, running integral (m = 0) or weighted average (integer or
not), is int_{t0}^{t_k} (t_k - tau)^m g(tau) dtau at every grid point t_k,
and each costs one call of the Gauss-Kronrod panel engine,
``quad.integrate_adaptive(..., power=m)``: one pass over [t0, t_end]
instead of one quadrature per grid point.  The tests hold it to an outside
reference quadrature at every grid point.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coeffs import (
    SIGN_SPAN,
    CoefficientModel,
    SplitModel,
    check_condition_a,
    d_closed,
    p_minus,
    sample_points,
)
from .quad import integrate_adaptive

THM31B = "THM31B"
THM32C = "THM32C"
THM32D = "THM32D"
THM33E = "THM33E"
THM33G = "THM33G"
LAZER = "LAZER"

DIVERGES = "DIVERGES"
BOUNDED = "BOUNDED"
INCONCLUSIVE = "INCONCLUSIVE"

APPLIES = "APPLIES"
DOES_NOT_APPLY = "DOES_NOT_APPLY"

LAZER_CONST = 2.0 / (3.0 * math.sqrt(3.0))
TOL = 1e-9  # quadrature tolerance of every criterion
HORIZON_33F = 1e4  # check_33f integrates |p1| out to this t


@dataclass(frozen=True)
class GeometricGrid:
    """Sample points t_k = t_start * ratio^k, k = 0 .. count-1."""

    t_start: float
    ratio: float = 1.15
    count: int = 120

    def __post_init__(self):
        if not 0.0 < self.t_start < math.inf:
            raise ValueError(f"t_start must be positive and finite, got {self.t_start!r}")
        if not 1.0 < self.ratio < math.inf:
            raise ValueError(f"ratio must be finite and exceed 1, got {self.ratio!r}")
        if self.count < 16:
            raise ValueError(f"count must be at least 16, got {self.count!r}")
        try:
            end_ok = math.isfinite(self.t_end)
        except OverflowError:
            end_ok = False
        if not end_ok:
            raise ValueError(f"grid end t_start * ratio^(count - 1) overflows for ratio={self.ratio!r}, "
                             f"count={self.count!r}")

    def points(self) -> np.ndarray:
        return self.t_start * self.ratio ** np.arange(self.count)

    @property
    def t_end(self) -> float:
        return float(self.t_start * self.ratio ** (self.count - 1))


@dataclass(frozen=True)
class LimsupPolicy:
    """Finite-horizon stand-in for limsup = +infinity.

    The threshold is theta_scale * (1 + |S at the reference index|), so a
    criterion whose early samples are already large is judged on growth
    beyond that scale rather than on an absolute number.  Only the threshold
    and the growth factor are settable; the other three are fixed, and a
    report records all five.
    """

    theta_scale: float = 1e3
    growth_rho: float = 2.0
    window_fraction: float = field(init=False, default=0.25)
    bounded_rel: float = field(init=False, default=0.05)
    theta_ref_index: int = field(init=False, default=4)

    def __post_init__(self):
        for name in ("theta_scale", "growth_rho"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass
class Verdict:
    kind: str
    evidence: dict


def classify_limsup(samples, policy: LimsupPolicy | None = None) -> Verdict:
    """Classify whether a sampled S(t_k) looks like limsup = +infinity.

    DIVERGES: the last-window max exceeds the threshold and grew by at
    least growth_rho over the previous window (or rose from <= 0).
    BOUNDED: everything stays under the threshold and the window maxima
    have either stabilized (within bounded_rel) or are declining, meaning
    the running sup was already attained.  Anything else is INCONCLUSIVE.
    """
    policy = policy or LimsupPolicy()
    s = np.asarray(samples, dtype=float)
    if len(s) < 16:
        raise ValueError(f"need at least 16 samples, got {len(s)}")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    ref = abs(float(s[min(policy.theta_ref_index, len(s) - 1)]))
    theta = policy.theta_scale * (1.0 + ref)
    w = max(int(len(s) * policy.window_fraction), 4)
    m_last = float(np.max(s[-w:]))
    m_prev = float(np.max(s[-2 * w : -w]))
    run = float(np.max(s))
    growth = m_last / m_prev if m_prev > 0.0 else None
    evidence = {
        "running_max": run,
        "max_last_window": m_last,
        "max_prev_window": m_prev,
        "growth_factor": growth,
        "threshold": theta,
        "window_size": w,
        "n_samples": int(len(s)),
    }
    if m_last > theta and (m_prev <= 0.0 or m_last >= policy.growth_rho * m_prev):
        return Verdict(DIVERGES, evidence)
    if run < theta:
        scale = max(abs(m_last), abs(m_prev), 1e-12)
        if abs(m_last - m_prev) <= policy.bounded_rel * scale:
            return Verdict(BOUNDED, evidence)
        if m_last < m_prev:
            return Verdict(BOUNDED, evidence)
    return Verdict(INCONCLUSIVE, evidence)


def classify_bounded_below(samples, policy: LimsupPolicy | None = None) -> Verdict:
    """Classify whether S(t_k) stays bounded below (liminf finite).

    BOUNDED means established; DIVERGES means the samples are marching to
    minus infinity; INCONCLUSIVE otherwise.  Implemented as classify_limsup
    of the negated samples with the evidence relabeled.
    """
    neg = classify_limsup(np.negative(np.asarray(samples, dtype=float)), policy)
    ev = neg.evidence
    growth = ev["growth_factor"]
    evidence = {
        "running_min": -ev["running_max"],
        "min_last_window": -ev["max_last_window"],
        "min_prev_window": -ev["max_prev_window"],
        "decline_factor": growth,
        "lower_threshold": -ev["threshold"],
        "window_size": ev["window_size"],
        "n_samples": ev["n_samples"],
    }
    return Verdict(neg.kind, evidence)


@dataclass
class CriterionTrajectory:
    criterion_id: str
    alpha: float | None
    t: np.ndarray
    values: np.ndarray
    verdict: Verdict
    warnings: list = field(default_factory=list)

    @property
    def samples(self) -> list:
        return [(float(a), float(b)) for a, b in zip(self.t, self.values)]


def kamenev_transform(f: Callable[[float], float], T: float, alpha: float, t: float, *, tol: float = 1e-9) -> float:
    """Weighted average (alpha(alpha+1)/t^(alpha+1)) int_T^t (t-tau)^(alpha-1) f dtau.

    The one-point case of the weighted series: Gauss-Jacobi rules for the
    weight (t-tau)^(alpha-1) take its endpoint singularity for alpha < 1.
    """
    if T <= 0.0:
        raise ValueError(f"T must be positive, got {T!r}")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if t <= T:
        raise ValueError(f"t={t!r} must exceed T={T!r}")
    res = integrate_adaptive(f, T, [t], tol, power=alpha - 1.0)
    if res.warning:
        _warnings.warn(f"quadrature depth cap reached in kamenev_transform at t={t:.6g}", RuntimeWarning)
    return alpha * (alpha + 1.0) / t ** (alpha + 1.0) * float(res.value[0])


def _as_base(model_or_split) -> CoefficientModel:
    if isinstance(model_or_split, SplitModel):
        return model_or_split.base
    return model_or_split


def _d_fn_for(model: CoefficientModel, d_fn) -> Callable[[float], float]:
    if d_fn is not None:
        return d_fn
    return lambda t: d_closed(model, t)


def cumulative_D(
    model: CoefficientModel,
    grid: GeometricGrid,
    criterion_id: str = THM32C,
    *,
    d_fn=None,
    breakpoints=None,
    policy: LimsupPolicy | None = None,
) -> CriterionTrajectory:
    """Running integral S(t_k) = int_{t0}^{t_k} D, classified per criterion.

    THM32C asks for divergence to +infinity; THM33E only for boundedness
    below, so the two share samples but not verdict logic.
    """
    if criterion_id not in (THM32C, THM33E):
        raise ValueError(f"criterion_id must be {THM32C} or {THM33E}, got {criterion_id!r}")
    pts = grid.points()
    if pts[0] < model.t0:
        raise ValueError(f"grid starts at {pts[0]!r} before t0={model.t0!r}")
    d = _d_fn_for(model, d_fn)
    res = integrate_adaptive(d, model.t0, pts, TOL, breakpoints=breakpoints, power=0)
    warnings = ["quadrature depth cap reached"] if res.warning else []
    if criterion_id == THM32C:
        verdict = classify_limsup(res.value, policy)
    else:
        verdict = classify_bounded_below(res.value, policy)
    return CriterionTrajectory(criterion_id, None, pts, res.value, verdict, warnings)


def criterion_kamenev(
    model_or_split,
    alpha: float,
    mode: str,
    grid: GeometricGrid,
    *,
    d_fn=None,
    breakpoints=None,
    policy: LimsupPolicy | None = None,
) -> CriterionTrajectory:
    """Weighted-average criteria sampled along the grid.

    THM31B: S(t) = t^-(a+1) int (t-tau)^a [(t-tau) D - ((a+1)/9) p_-^2] dtau, a > 0
    THM32D: same weight with -(a+1) p_- in place of -((a+1)/9) p_-^2, a > 0
    THM33G: S(t) = t^-a int (t-tau)^a D dtau, a > 1

    The exponent conventions differ between the modes on purpose; each is
    evaluated exactly as displayed.
    """
    model = _as_base(model_or_split)
    if mode in (THM31B, THM32D):
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"{mode} needs a finite alpha > 0, got {alpha!r}")
    elif mode == THM33G:
        if not 1.0 < alpha < math.inf:
            raise ValueError(f"{THM33G} needs a finite alpha > 1, got {alpha!r}")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    pts = grid.points()
    if pts[0] < model.t0:
        raise ValueError(f"grid starts at {pts[0]!r} before t0={model.t0!r}")
    a0 = model.t0
    d = _d_fn_for(model, d_fn)
    warnings = []
    if mode == THM33G:
        res = integrate_adaptive(d, a0, pts, TOL, breakpoints=breakpoints, power=alpha)
        vals = res.value / pts ** alpha
        warn = res.warning
    else:
        d_part = integrate_adaptive(d, a0, pts, TOL, breakpoints=breakpoints, power=alpha + 1.0)
        if mode == THM31B:
            def pen(tau):
                v = p_minus(model, tau)
                return v * v

            coeff = (alpha + 1.0) / 9.0
        else:
            def pen(tau):
                return p_minus(model, tau)

            coeff = alpha + 1.0
        p_part = integrate_adaptive(pen, a0, pts, TOL, breakpoints=breakpoints, power=alpha)
        vals = (d_part.value - coeff * p_part.value) / pts ** (alpha + 1.0)
        warn = d_part.warning or p_part.warning
    if warn:
        warnings.append("quadrature depth cap reached")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{mode} produced non-finite samples")
    verdict = classify_limsup(vals, policy)
    return CriterionTrajectory(mode, float(alpha), pts, vals, verdict, warnings)


def lazer_integrand(model: CoefficientModel) -> Callable[[float], float]:
    """r(t) - (2/(3 sqrt 3)) (-q(t))^(3/2), with -q clamped at 0."""

    def fn(t: float) -> float:
        q = model.q_at(t)
        neg_q = -q if q < 0.0 else 0.0
        return model.r_at(t) - LAZER_CONST * neg_q ** 1.5

    return fn


def criterion_lazer(
    model: CoefficientModel,
    grid: GeometricGrid,
    *,
    policy: LimsupPolicy | None = None,
    breakpoints=None,
) -> CriterionTrajectory:
    """Classical integral test: S(t) = int_{t0}^t [r - (2/(3 sqrt 3))(-q)^(3/2)].

    Meaningful when p is identically zero and q <= 0.  This computes the
    integral alone, with (-q)^(3/2) clamped at 0 where q > 0;
    ``theorem_verdict`` decides both hypotheses, with witnesses, in its
    ``p_zero`` and (a) conditions.
    """
    pts = grid.points()
    if pts[0] < model.t0:
        raise ValueError(f"grid starts at {pts[0]!r} before t0={model.t0!r}")
    warnings = []
    res = integrate_adaptive(lazer_integrand(model), model.t0, pts, TOL, breakpoints=breakpoints, power=0)
    if res.warning:
        warnings.append("quadrature depth cap reached")
    verdict = classify_limsup(res.value, policy)
    return CriterionTrajectory(LAZER, None, pts, res.value, verdict, warnings)


@dataclass
class Check33fReport:
    holds: bool
    integrable_ok: bool
    integral_verdict: Verdict
    integral_tail: float
    bounded_ok: bool
    sup_by_decade: list
    horizon: float


def check_33f(
    split: SplitModel,
    horizon: float = HORIZON_33F,
    *,
    breakpoints=None,
    policy: LimsupPolicy | None = None,
) -> Check33fReport:
    """Split-coefficient condition: int |p1| finite and p2 bounded.

    Integrability is judged by running int |p1| out to the horizon on a
    geometric grid and requiring the BOUNDED classification; boundedness of
    p2 samples the sup per decade and requires the last decade's sup not to
    exceed the earlier ones by more than 5%.
    """
    model = split.base
    t0 = max(model.t0, 1e-6)
    ratio = 1.15
    count = max(int(math.ceil(math.log(horizon / t0) / math.log(ratio))) + 1, 16)
    grid = GeometricGrid(t0, ratio, count)
    pts = grid.points()

    def abs_p1(t: float) -> float:
        return abs(split.p1_at(t))

    res = integrate_adaptive(abs_p1, model.t0, pts, TOL, breakpoints=breakpoints, power=0)
    verdict = classify_limsup(res.value, policy)
    integrable_ok = verdict.kind == BOUNDED

    decades = max(int(math.ceil(math.log10(horizon / t0))), 1)
    sups = []
    lo = t0
    for _ in range(decades):
        hi = min(lo * 10.0, horizon)
        seg = sample_points(lo, span=hi - lo, n=256)
        sups.append(float(np.max([abs(split.p2_at(t)) for t in seg])))
        lo = hi
    finite = all(math.isfinite(s) for s in sups)
    if len(sups) > 1:
        prev_max = max(sups[:-1])
        stable = sups[-1] <= 1.05 * prev_max + 1e-12
    else:
        stable = True
    bounded_ok = finite and stable
    return Check33fReport(
        integrable_ok and bounded_ok,
        integrable_ok,
        verdict,
        float(res.value[-1]),
        bounded_ok,
        sups,
        float(horizon),
    )


@dataclass
class TheoremReport:
    theorem: str
    alpha: float | None
    condition_results: dict
    overall: str
    grid: GeometricGrid
    policy: LimsupPolicy
    trajectories: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


_THEOREMS = ("THM31", "THM32", "THM33", "LAZER")
_DEFAULT_ALPHA = {"THM31": 1.0, "THM32": 1.0, "THM33": 2.0, "LAZER": None}


def _outcome(letter: str, result) -> bool | None:
    """True when a condition is established, False when it is refuted and
    None when it is undecided.  Condition (e) asks S to stay bounded below,
    so its verdict is wanted BOUNDED; every other verdict is wanted DIVERGES.
    Sampled conditions are decided by their ``holds``."""
    if isinstance(result, Verdict):
        if result.kind == INCONCLUSIVE:
            return None
        return result.kind == (BOUNDED if letter == "e" else DIVERGES)
    return result.holds


@dataclass
class PZeroCheck:
    """Sampled check that p vanishes, relative to the size of q and r."""

    holds: bool
    max_abs_p: float
    at: float


def _p_zero_check(model: CoefficientModel) -> PZeroCheck:
    probe = sample_points(model.t0, span=SIGN_SPAN, n=512)
    worst_t, worst = model.t0, 0.0
    scale = 1.0
    for t in probe.tolist():
        v = abs(model.p_at(t))
        scale = max(scale, abs(model.q_at(t)) + abs(model.r_at(t)))
        if v > worst:
            worst, worst_t = v, t
    return PZeroCheck(worst <= 1e-9 * (1.0 + scale), worst, worst_t)


def theorem_verdict(
    model_or_split,
    theorem: str,
    *,
    alpha: float | None = None,
    grid: GeometricGrid | None = None,
    policy: LimsupPolicy | None = None,
    d_fn=None,
    breakpoints=None,
) -> TheoremReport:
    """Evaluate every condition of one theorem and combine the verdicts.

    Required conditions: THM31 needs (a),(b); THM32 needs (a),(c),(d);
    THM33 needs (a),(e),(f),(g) and a SplitModel; LAZER needs p == 0, (a),
    and the divergent integral.  Overall is APPLIES only when every piece
    is positively established, DOES_NOT_APPLY when any piece is
    definitively refuted, INCONCLUSIVE otherwise.
    """
    if theorem not in _THEOREMS:
        raise ValueError(f"theorem must be one of {_THEOREMS}, got {theorem!r}")
    split = model_or_split if isinstance(model_or_split, SplitModel) else None
    model = _as_base(model_or_split)
    if theorem == "THM33" and split is None:
        raise ValueError("THM33 requires a SplitModel (conditions on p1, p2)")
    if alpha is None:
        alpha = _DEFAULT_ALPHA[theorem]
    grid = grid or GeometricGrid(model.t0)
    policy = policy or LimsupPolicy()
    conditions: dict = {}
    trajectories: dict = {}
    warnings: list = []

    conditions["a"] = check_condition_a(model)

    def run(letter, traj):
        trajectories[letter] = traj
        conditions[letter] = traj.verdict
        warnings.extend(f"({letter}) {w}" for w in traj.warnings)

    if theorem == "THM31":
        run("b", criterion_kamenev(model, alpha, THM31B, grid, d_fn=d_fn, breakpoints=breakpoints, policy=policy))
    elif theorem == "THM32":
        run("c", cumulative_D(model, grid, THM32C, d_fn=d_fn, breakpoints=breakpoints, policy=policy))
        run("d", criterion_kamenev(model, alpha, THM32D, grid, d_fn=d_fn, breakpoints=breakpoints, policy=policy))
    elif theorem == "THM33":
        run("e", cumulative_D(model, grid, THM33E, d_fn=d_fn, breakpoints=breakpoints, policy=policy))
        conditions["f"] = check_33f(split, breakpoints=breakpoints, policy=policy)
        run("g", criterion_kamenev(model, alpha, THM33G, grid, d_fn=d_fn, breakpoints=breakpoints, policy=policy))
    else:
        conditions["p_zero"] = _p_zero_check(model)
        run("integral", criterion_lazer(model, grid, policy=policy, breakpoints=breakpoints))

    outcomes = [_outcome(k, v) for k, v in conditions.items()]
    if all(outcomes):
        overall = APPLIES
    elif False in outcomes:
        overall = DOES_NOT_APPLY
    else:
        overall = INCONCLUSIVE
    return TheoremReport(theorem, alpha, conditions, overall, grid, policy, trajectories, warnings)

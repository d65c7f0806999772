"""Weighted-average oscillation criteria and the numerical verdict engine.

The criteria all reduce to a scalar function S(t) sampled along a geometric
grid: either a plain running integral of the minimum function D, or a
weighted average of the form (1/t^m) int (t-tau)^m [...] dtau.  A limsup or
liminf statement about S is then replaced by a documented finite-horizon
classification (DIVERGES / BOUNDED / INCONCLUSIVE) with its evidence
attached, since no finite computation can decide a limsup.

Every criterion, running integral (m = 0) or weighted average (integer or
not), is a sum of terms c int_{t0}^{t_k} (t_k - tau)^m g(tau) dtau at every
grid point t_k (a Kamenev average, Kamenev 1978), and ``_series`` is the one
place that computes it: one call of the Gauss-Kronrod panel engine,
``quad.integrate_adaptive(..., power=m)``, per term, each one pass over
[t0, t_end] split at the edges of the model's windows up to t_end instead of
one quadrature per grid point, and one ``SHORTFALL`` note when any pass
stops at the depth cap.  The tests hold it to an outside reference
quadrature at every grid point.  The criteria integrate the model's own D,
``model.d_at``; Lazer's criterion is their p = 0 case and integrates the
closed form, which there is r - (2/(3 sqrt 3)) (-q)^(3/2).  Without an
override both read the model's ``d_closed_at``, which computes D once per
node for every pass.  A term that is identically 0 because a coefficient
is a constant (a p_- penalty when p >= 0, |p1| when p1 = 0) is not
integrated: it would add exactly 0.
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
    p_minus,
    probe,
    sample_points,
)
from .quad import integrate_adaptive

THM31B = "THM31B"
THM32C = "THM32C"
THM32D = "THM32D"
THM33E = "THM33E"
THM33F = "THM33F"
THM33G = "THM33G"
LAZER = "LAZER"

DIVERGES = "DIVERGES"
BOUNDED = "BOUNDED"
INCONCLUSIVE = "INCONCLUSIVE"

APPLIES = "APPLIES"
DOES_NOT_APPLY = "DOES_NOT_APPLY"

TOL = 1e-9  # quadrature tolerance of every criterion
SHORTFALL = "quadrature depth cap reached"  # the note of a pass that stopped short
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
        _warnings.warn(f"{SHORTFALL} in kamenev_transform at t={t:.6g}", RuntimeWarning)
    return alpha * (alpha + 1.0) / t ** (alpha + 1.0) * float(res.value[0])


def _as_base(model_or_split) -> CoefficientModel:
    if isinstance(model_or_split, SplitModel):
        return model_or_split.base
    return model_or_split


def _series(model: CoefficientModel, pts: np.ndarray, terms, label: str) -> tuple:
    """The sum over ``terms`` (c, g, m) of c int_{t0}^{t_k} (t_k - tau)^m g(tau)
    dtau at every grid point t_k, one engine pass per term in order, and
    its warnings: ``[SHORTFALL]`` when any pass stopped at the depth cap.
    Panels split at the edges of the model's windows up to the last t_k,
    leaving out a window that double precision holds as a single point.

    A sum that is not finite, as when a coefficient overflows past the span
    its model was probed on, is an error that names ``label`` and the first
    t_k; numpy's overflow warnings inside the passes are not printed, since
    the sums are checked.  An integrand that raises there is an error that
    names ``label`` and the node where it raised."""
    if pts[0] < model.t0:
        raise ValueError(f"grid starts at {pts[0]!r} before t0={model.t0!r}")
    windows = model.windows(float(pts[-1])) if model.windows else ()
    edges = [x for lo, hi in windows if lo < hi for x in (lo, hi)]
    with np.errstate(over="ignore", invalid="ignore"):
        passes = []
        for _, g, m in terms:
            run = lambda f, m=m: integrate_adaptive(f, model.t0, pts, TOL, breakpoints=edges, power=m)
            try:
                passes.append(run(g))
            except (ArithmeticError, ValueError):
                # the same pass again, only to name the node that raises
                run(_naming(label, g))
                raise
        parts = [c * res.value for (c, _, _), res in zip(terms, passes)]
        total = sum(parts[1:], parts[0])
    _require_finite(label, pts, total)
    short = any(res.warning for res in passes)
    return total, [SHORTFALL] if short else []


def _naming(label: str, g: Callable[[float], float]) -> Callable[[float], float]:
    """``g``, with what it raises turned into a ValueError that names
    ``label`` and the node."""
    def named(tau):
        try:
            return g(tau)
        except (ArithmeticError, ValueError) as exc:
            # ExprError, or what floor/sin/cos raise on an inf or nan argument
            raise ValueError(f"{label} series is undefined at t={tau:.6g}: {exc}") from exc

    return named


def _require_finite(label: str, pts: np.ndarray, vals: np.ndarray) -> None:
    """A ValueError naming ``label`` and the first pts[k] where vals[k] is
    not finite, if there is one."""
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"{label} series is not finite at t={pts[int(bad.argmax())]:.6g}")


def cumulative_D(
    model: CoefficientModel,
    grid: GeometricGrid,
    criterion_id: str = THM32C,
    *,
    policy: LimsupPolicy | None = None,
) -> CriterionTrajectory:
    """Running integral S(t_k) = int_{t0}^{t_k} D, classified per criterion.

    THM32C asks for divergence to +infinity; THM33E only for boundedness
    below, so the two share samples but not verdict logic.
    """
    if criterion_id not in (THM32C, THM33E):
        raise ValueError(f"criterion_id must be {THM32C} or {THM33E}, got {criterion_id!r}")
    pts = grid.points()
    vals, warnings = _series(model, pts, [(1.0, model.d_at, 0)], criterion_id)
    classify = classify_limsup if criterion_id == THM32C else classify_bounded_below
    return CriterionTrajectory(criterion_id, None, pts, vals, classify(vals, policy), warnings)


def criterion_kamenev(
    model_or_split,
    alpha: float,
    mode: str,
    grid: GeometricGrid,
    *,
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
    power = alpha if mode == THM33G else alpha + 1.0
    terms = [(1.0, model.d_at, power)]
    p = model.constants.get("p")
    if p is not None and p >= 0.0:
        pass  # p_- is 0, and so is the penalty term
    elif mode == THM31B:
        def pen_squared(tau):
            v = p_minus(model, tau)
            return v * v

        terms.append((-power / 9.0, pen_squared, alpha))
    elif mode == THM32D:
        terms.append((-power, lambda tau: p_minus(model, tau), alpha))
    vals, warnings = _series(model, pts, terms, mode)
    vals = vals / pts ** power
    _require_finite(mode, pts, vals)
    verdict = classify_limsup(vals, policy)
    return CriterionTrajectory(mode, float(alpha), pts, vals, verdict, warnings)


def criterion_lazer(
    model: CoefficientModel,
    grid: GeometricGrid,
    *,
    policy: LimsupPolicy | None = None,
) -> CriterionTrajectory:
    """Classical integral test (Lazer 1966): S(t) = int_{t0}^t D, the THM32C
    series of the closed-form D.

    Meaningful when p is identically zero and q <= 0, where D is
    r - (2/(3 sqrt 3))(-q)^(3/2); ``theorem_verdict`` decides both
    hypotheses, with witnesses, in its ``p_zero`` and (a) conditions.  A D
    override is an input of the theorems, not of this test, so it is not
    read.
    """
    pts = grid.points()
    vals, warnings = _series(model, pts, [(1.0, model.d_closed_at, 0)], LAZER)
    return CriterionTrajectory(LAZER, None, pts, vals, classify_limsup(vals, policy), warnings)


@dataclass
class Check33fReport:
    holds: bool
    integrable_ok: bool
    integral_verdict: Verdict
    integral_tail: float
    bounded_ok: bool
    sup_by_decade: list
    horizon: float
    warnings: list


def check_33f(
    split: SplitModel,
    horizon: float = HORIZON_33F,
    *,
    policy: LimsupPolicy | None = None,
) -> Check33fReport:
    """Split-coefficient condition: int |p1| finite and p2 bounded.

    Integrability is judged by running int |p1| out to the horizon on a
    geometric grid and requiring the BOUNDED classification; boundedness of
    p2 samples the sup per decade and requires the last decade's sup not to
    exceed the earlier ones by more than 5%.  A constant p1 = 0 gives the
    zero series.
    """
    model = split.base
    t0 = max(model.t0, 1e-6)
    ratio = 1.15
    count = max(int(math.ceil(math.log(horizon / t0) / math.log(ratio))) + 1, 16)
    grid = GeometricGrid(t0, ratio, count)
    if split.constants.get("p1") == 0.0:
        vals, warnings = np.zeros(count), []
    else:
        vals, warnings = _series(model, grid.points(), [(1.0, lambda t: abs(split.p1_at(t)), 0)], THM33F)
    verdict = classify_limsup(vals, policy)
    integrable_ok = verdict.kind == BOUNDED

    decades = max(int(math.ceil(math.log10(horizon / t0))), 1)
    segments = []
    lo = t0
    for _ in range(decades):
        hi = min(lo * 10.0, horizon)
        segments.append(sample_points(lo, hi - lo, 256))
        lo = hi
    p2 = probe({"p2": split.p2_at}, np.concatenate(segments), split.constants)
    sups = np.abs(p2).reshape(decades, 256).max(axis=1).tolist()
    bounded_ok = len(sups) == 1 or sups[-1] <= 1.05 * max(sups[:-1]) + 1e-12
    return Check33fReport(
        integrable_ok and bounded_ok,
        integrable_ok,
        verdict,
        float(vals[-1]),
        bounded_ok,
        sups,
        float(horizon),
        warnings,
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
    """The largest |p| at 512 jittered points over [t0, t0 + SIGN_SPAN],
    where it is first reached, against 1e-9 (1 + max |q| + |r|).  A p that
    vanishes at every point holds, with |p| = 0 reported at t0, and q and r
    are not read."""
    pts = sample_points(model.t0, SIGN_SPAN, 512).tolist()
    p = np.abs(probe({"p": model.p_at}, pts, model.constants)[:, 0])
    k = int(np.argmax(p))
    if p[k] == 0.0:
        return PZeroCheck(True, 0.0, model.t0)
    q, r = probe({"q": model.q_at, "r": model.r_at}, pts, model.constants).T
    scale = max(1.0, float(np.max(np.abs(q) + np.abs(r))))
    return PZeroCheck(bool(p[k] <= 1e-9 * (1.0 + scale)), float(p[k]), pts[k])


def theorem_verdict(
    model_or_split,
    theorem: str,
    *,
    alpha: float | None = None,
    grid: GeometricGrid | None = None,
    policy: LimsupPolicy | None = None,
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
        run("b", criterion_kamenev(model, alpha, THM31B, grid, policy=policy))
    elif theorem == "THM32":
        run("c", cumulative_D(model, grid, THM32C, policy=policy))
        run("d", criterion_kamenev(model, alpha, THM32D, grid, policy=policy))
    elif theorem == "THM33":
        run("e", cumulative_D(model, grid, THM33E, policy=policy))
        f = conditions["f"] = check_33f(split, policy=policy)
        warnings.extend(f"(f) {w}" for w in f.warnings)
        run("g", criterion_kamenev(model, alpha, THM33G, grid, policy=policy))
    else:
        conditions["p_zero"] = _p_zero_check(model)
        run("integral", criterion_lazer(model, grid, policy=policy))

    outcomes = [_outcome(k, v) for k, v in conditions.items()]
    if all(outcomes):
        overall = APPLIES
    elif False in outcomes:
        overall = DOES_NOT_APPLY
    else:
        overall = INCONCLUSIVE
    return TheoremReport(theorem, alpha, conditions, overall, grid, policy, trajectories, warnings)

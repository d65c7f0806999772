"""Direct integration of phi''' + p phi'' + q phi' + r phi = 0.

One stepper, ``_dopri``, serves both equations osc3 integrates: the linear
third-order system here and the scalar Riccati equation in ``riccati``.  It
is a Dormand-Prince 5(4) embedded pair with FSAL, step-size control on a
mixed absolute/relative error norm, and a hard cap ``h_max`` on accepted
steps so that stored samples are dense enough for zero counting.
It returns one ``Trajectory``: the accepted nodes with the state and the
right side at each.  ``Trajectory.at`` interpolates every column between
nodes by the cubic Hermite polynomial of those values and slopes, which
keeps refined zero locations honest to well below the sample spacing.

The equation is linear and homogeneous, so any positive rescaling of the
state is again a solution with the same zeros.  The integrator exploits
this: when the state norm passes ``RENORM_THRESHOLD`` it is scaled back to
order one and the accumulated log factor is recorded per sample.  That
lets solutions growing like exp(t^3) be followed across hundreds of
decades of magnitude, which direct storage in floats cannot do; sign
patterns and zero locations are exact under the rescaling.  Consumers
that need true magnitudes (the Wronskian) reapply the stored factors.

The nonlinear Riccati equation cannot be rescaled, so its caller passes an
``escape`` bound instead: a solution that leaves |state| > escape is
truncated and flagged rather than raised, since a genuinely growing mode
is an informative outcome there, not a failure.  Coefficients with narrow
active windows (bump trains) can supply ``feature_windows`` so steps never
leap over a bump unsampled.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coeffs import CoefficientModel

COMPLETED = "completed"
BLOW_UP = "blow_up"
STEP_UNDERFLOW = "step_underflow"
ZERO_TOL = 1e-9  # count_zeros refines each zero to a bracket this wide
RENORM_THRESHOLD = 1e150  # the linear system's state is rescaled past this norm
MAX_STEPS = 10**6  # _dopri refuses a span longer than this many steps of h_max


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0


@dataclass
class OdeControls:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    h_max: float = 0.1
    zero_tol: float = field(init=False, default=ZERO_TOL)  # recorded in reports, not settable
    feature_windows: Sequence[tuple] | None = None  # [(lo, hi), ...] narrow active regions

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "h_max"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def as_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "h_max": self.h_max,
            "zero_tol": self.zero_tol,
            "renorm_threshold": RENORM_THRESHOLD,
            "feature_windows": len(self.feature_windows) if self.feature_windows else 0,
        }


class _StepLimiter:
    """Caps step size near declared feature windows.

    Steps never cross a window edge, and inside a window the step is at most
    an eighth of the window width, so even a bump of width n^-5 contributes
    several resolved steps instead of vanishing inside one stride.
    """

    def __init__(self, windows):
        ws = sorted((float(lo), float(hi)) for lo, hi in windows)
        self.los = [w[0] for w in ws]
        self.his = [w[1] for w in ws]
        edges = sorted({e for w in ws for e in w})
        self.edges = edges

    def cap(self, t, h):
        i = bisect.bisect_right(self.los, t) - 1
        if i >= 0 and t < self.his[i] - 1e-300:
            width = self.his[i] - self.los[i]
            h = min(h, max(width / 8.0, 1e-300))
        j = bisect.bisect_right(self.edges, t * (1 + 1e-15) + 1e-15)
        if j < len(self.edges):
            gap = self.edges[j] - t
            if 0.0 < gap < h:
                h = gap
        return h


def _hermite(t0, t1, p0, d0, p1, d1, t):
    """Cubic Hermite interpolant at t of values p0, p1 and slopes d0, d1
    given at t0 and t1."""
    h = t1 - t0
    s = (t - t0) / h
    return (
        (1.0 + 2.0 * s) * (1.0 - s) ** 2 * p0
        + s * (1.0 - s) ** 2 * h * d0
        + s * s * (3.0 - 2.0 * s) * p1
        + s * s * (s - 1.0) * h * d1
    )


@dataclass
class Trajectory:
    """The accepted nodes of one ``_dopri`` run.

    ``states[k]`` and ``slopes[k]`` are the state and the right side at
    ``t[k]``, both stored divided by exp(log_scale[k]); ``log_scale`` is all
    zeros when nothing was rescaled.  The columns are (phi, phi', phi'') for
    the third-order system and y alone for a scalar Riccati equation.
    """

    t: np.ndarray
    states: np.ndarray
    slopes: np.ndarray
    log_scale: np.ndarray
    status: str
    stats: StepStats
    warnings: list = field(default_factory=list)

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def _segment(self, t: float) -> int:
        """Index k of the step [t[k], t[k+1]] that holds t."""
        ts = self.t
        if not (ts[0] <= t <= ts[-1]):
            raise ValueError(f"t={t!r} outside trajectory span [{ts[0]}, {ts[-1]}]")
        return min(int(np.searchsorted(ts, t, side="right")) - 1, len(ts) - 2)

    def at(self, t: float) -> np.ndarray:
        """Every column at t by cubic Hermite interpolation of the stored
        states and slopes, in the scale of node k = ``_segment(t)``."""
        k = self._segment(t)
        t0, t1 = self.t[k], self.t[k + 1]
        ratio = math.exp(float(self.log_scale[k + 1]) - float(self.log_scale[k]))
        return _hermite(
            t0, t1, self.states[k], self.slopes[k], self.states[k + 1] * ratio, self.slopes[k + 1] * ratio, t
        )


def _dopri(deriv, t0: float, init, t_max: float, controls: OdeControls, escape: float | None = None):
    """Dormand-Prince 5(4) on a state of up to three components, unrolled in
    plain floats.  The coefficient evaluations dominate the cost, and this
    loop avoids paying numpy dispatch on 3-vectors on top of them.

    ``deriv(t, a, b, c)`` returns the right side as a 3-tuple.  A shorter
    ``init`` is padded with zeros, which ``deriv`` must keep at zero
    derivative; the error norm is the RMS over the ``len(init)`` given
    components, and the trajectory keeps only those columns.  A step with a
    non-finite stage is rejected and retried at a fifth of its size.

    The right side at every node is the FSAL stage, so the returned
    ``Trajectory`` keeps it as ``slopes`` at no extra evaluation.  With no
    ``escape`` the state is rescaled to unit norm whenever it passes
    ``RENORM_THRESHOLD``, which is only valid for right sides that are
    1-homogeneous in the state (linear equations).  With ``escape`` the run
    ends as BLOW_UP at the first node with |state| > escape.

    A span longer than ``MAX_STEPS`` steps of ``controls.h_max`` is refused
    up front, since stepping through it would not finish.
    """
    rel_tol, abs_tol, h_max = controls.rel_tol, controls.abs_tol, controls.h_max
    if t_max - t0 > MAX_STEPS * h_max:
        raise ValueError(
            f"t_max={t_max!r} is more than {MAX_STEPS} steps of h_max={h_max!r} past t0={t0!r}"
        )
    windows = controls.feature_windows
    renorm_threshold = RENORM_THRESHOLD
    a21 = 0.2
    a31, a32 = 3.0 / 40.0, 9.0 / 40.0
    a41, a42, a43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
    a51, a52, a53, a54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
    a61, a62, a63, a64, a65 = (
        9017.0 / 3168.0,
        -355.0 / 33.0,
        46732.0 / 5247.0,
        49.0 / 176.0,
        -5103.0 / 18656.0,
    )
    a71, a73, a74, a75, a76 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
    c2, c3, c4, c5 = 0.2, 0.3, 0.8, 8.0 / 9.0
    # error weights, fifth minus fourth order (the second is zero)
    e1, e3, e4, e5, e6, e7 = (
        71.0 / 57600.0,
        -71.0 / 16695.0,
        71.0 / 1920.0,
        -17253.0 / 339200.0,
        22.0 / 525.0,
        -1.0 / 40.0,
    )
    isfinite = math.isfinite

    dim = len(init)
    ya, yb, yc = (float(v) for v in tuple(init) + (0.0,) * (3 - dim))
    t = float(t0)
    stats = StepStats()
    limiter = _StepLimiter(windows) if windows else None
    ts = [t]
    ys = [(ya, yb, yc)]
    k1a, k1b, k1c = deriv(t, ya, yb, yc)
    dys = [(k1a, k1b, k1c)]
    log_scale = 0.0
    scales = [0.0]
    status = COMPLETED
    h = min(h_max, 1e-2, max(t_max - t0, 1e-12))
    while t < t_max:
        h = min(h, h_max, t_max - t)
        if limiter is not None:
            h = limiter.cap(t, h)
        if h < 1e-14 * max(1.0, abs(t)):
            status = STEP_UNDERFLOW
            break
        tt = t + c2 * h
        sa = ya + h * (a21 * k1a)
        sb = yb + h * (a21 * k1b)
        sc = yc + h * (a21 * k1c)
        k2a, k2b, k2c = deriv(tt, sa, sb, sc)
        tt = t + c3 * h
        sa = ya + h * (a31 * k1a + a32 * k2a)
        sb = yb + h * (a31 * k1b + a32 * k2b)
        sc = yc + h * (a31 * k1c + a32 * k2c)
        k3a, k3b, k3c = deriv(tt, sa, sb, sc)
        tt = t + c4 * h
        sa = ya + h * (a41 * k1a + a42 * k2a + a43 * k3a)
        sb = yb + h * (a41 * k1b + a42 * k2b + a43 * k3b)
        sc = yc + h * (a41 * k1c + a42 * k2c + a43 * k3c)
        k4a, k4b, k4c = deriv(tt, sa, sb, sc)
        tt = t + c5 * h
        sa = ya + h * (a51 * k1a + a52 * k2a + a53 * k3a + a54 * k4a)
        sb = yb + h * (a51 * k1b + a52 * k2b + a53 * k3b + a54 * k4b)
        sc = yc + h * (a51 * k1c + a52 * k2c + a53 * k3c + a54 * k4c)
        k5a, k5b, k5c = deriv(tt, sa, sb, sc)
        tt = t + h
        sa = ya + h * (a61 * k1a + a62 * k2a + a63 * k3a + a64 * k4a + a65 * k5a)
        sb = yb + h * (a61 * k1b + a62 * k2b + a63 * k3b + a64 * k4b + a65 * k5b)
        sc = yc + h * (a61 * k1c + a62 * k2c + a63 * k3c + a64 * k4c + a65 * k5c)
        k6a, k6b, k6c = deriv(tt, sa, sb, sc)
        na = ya + h * (a71 * k1a + a73 * k3a + a74 * k4a + a75 * k5a + a76 * k6a)
        nb = yb + h * (a71 * k1b + a73 * k3b + a74 * k4b + a75 * k5b + a76 * k6b)
        nc = yc + h * (a71 * k1c + a73 * k3c + a74 * k4c + a75 * k5c + a76 * k6c)
        k7a, k7b, k7c = deriv(tt, na, nb, nc)
        erra = h * (e1 * k1a + e3 * k3a + e4 * k4a + e5 * k5a + e6 * k6a + e7 * k7a)
        errb = h * (e1 * k1b + e3 * k3b + e4 * k4b + e5 * k5b + e6 * k6b + e7 * k7b)
        errc = h * (e1 * k1c + e3 * k3c + e4 * k4c + e5 * k5c + e6 * k6c + e7 * k7c)
        den = abs_tol + rel_tol * max(abs(ya), abs(na))
        ra = erra / den
        den = abs_tol + rel_tol * max(abs(yb), abs(nb))
        rb = errb / den
        den = abs_tol + rel_tol * max(abs(yc), abs(nc))
        rc = errc / den
        err = math.sqrt((ra * ra + rb * rb + rc * rc) / dim)
        if not (isfinite(na) and isfinite(nb) and isfinite(nc) and isfinite(err)):
            stats.rejected += 1
            h *= 0.2
            continue
        if err <= 1.0:
            t = tt
            ya, yb, yc = na, nb, nc
            k1a, k1b, k1c = k7a, k7b, k7c  # FSAL
            ts.append(t)
            ys.append((ya, yb, yc))
            dys.append((k1a, k1b, k1c))
            scales.append(log_scale)
            stats.accepted += 1
            norm = max(abs(ya), abs(yb), abs(yc))
            if escape is None:
                if norm > renorm_threshold:
                    inv = 1.0 / norm
                    ya *= inv
                    yb *= inv
                    yc *= inv
                    k1a *= inv
                    k1b *= inv
                    k1c *= inv
                    log_scale += math.log(norm)
            elif norm > escape:
                status = BLOW_UP
                break
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            stats.rejected += 1
            fac = max(0.1, 0.9 * err ** -0.2)
        h *= fac
    return Trajectory(
        np.array(ts), np.array(ys)[:, :dim], np.array(dys)[:, :dim], np.array(scales), status, stats
    )


def _linear_rhs(model: CoefficientModel):
    """Right side of the third order equation as a first order system in
    (phi, phi', phi''): phi''' = -(p phi'' + q phi' + r phi)."""
    p_at, q_at, r_at = model.p_at, model.q_at, model.r_at

    def deriv(t, a, b, c):
        return b, c, -(p_at(t) * c + q_at(t) * b + r_at(t) * a)

    return deriv


def integrate_third_order(
    model: CoefficientModel,
    initial: Sequence[float],
    t_max: float,
    controls: OdeControls | None = None,
) -> Trajectory:
    """Integrate one solution from state (phi, phi', phi'') at model.t0."""
    if not model.t0 < t_max < math.inf:
        raise ValueError(f"t_max={t_max} must be finite and exceed t0={model.t0}")
    traj = _dopri(_linear_rhs(model), model.t0, initial, t_max, controls or OdeControls())
    if traj.status == STEP_UNDERFLOW:
        traj.warnings.append(f"trajectory truncated at t={traj.t_end:.6g}: step size underflow")
    return traj


def fundamental_basis(
    model: CoefficientModel, t_max: float, controls: OdeControls | None = None
) -> list:
    """The three solutions with identity initial data at t0."""
    eye = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    return [integrate_third_order(model, init, t_max, controls) for init in eye]


@dataclass
class ZeroRecord:
    t: float
    bracket_lo: float
    bracket_hi: float


def count_zeros(traj: Trajectory) -> list:
    """Sign-change zeros of phi, refined by bisection on the Hermite
    interpolant to a bracket of width <= ZERO_TOL."""
    ts = traj.t.tolist()
    phi = traj.states[:, 0].tolist()
    dphi = traj.states[:, 1].tolist()
    log_scale = traj.log_scale
    zeros = []
    for k in range(len(ts) - 1):
        a = ts[k]
        fa, fb = phi[k], phi[k + 1]
        if fa == 0.0:
            if not zeros or zeros[-1].t != a:
                zeros.append(ZeroRecord(a, a, a))
            continue
        # the factor to the scale of node k is >= 1, so it cannot decide the
        # sign; signs are compared, not the product, which can underflow to 0
        if fb == 0.0 or (fa < 0.0) == (fb < 0.0):
            continue
        ratio = math.exp(float(log_scale[k + 1]) - float(log_scale[k]))
        b, fb, da, db = ts[k + 1], fb * ratio, dphi[k], dphi[k + 1] * ratio
        lo, hi, flo = a, b, fa
        for _ in range(200):
            if hi - lo <= ZERO_TOL:
                break
            mid = 0.5 * (lo + hi)
            fm = _hermite(a, b, fa, da, fb, db, mid)
            if fm == 0.0 or (flo < 0.0) != (fm < 0.0):
                hi = mid
            else:
                lo, flo = mid, fm
        zeros.append(ZeroRecord(0.5 * (lo + hi), lo, hi))
    if len(ts) and phi[-1] == 0.0:
        t_last = ts[-1]
        if not zeros or zeros[-1].t != t_last:
            zeros.append(ZeroRecord(t_last, t_last, t_last))
    return zeros


TAIL_FRACTION = 0.25  # classify_lemma21 reads the final quarter of the span

TYPE_2_1 = "TYPE_2_1"
TYPE_3_2 = "TYPE_3_2"
OSCILLATORY_EVIDENCE = "OSCILLATORY_EVIDENCE"
UNCLASSIFIED = "UNCLASSIFIED"


def classify_lemma21(
    traj: Trajectory,
    *,
    min_zeros: int = 5,
    zeros: list | None = None,
) -> str:
    """Classify the tail behaviour of one nontrivial solution.

    OSCILLATORY_EVIDENCE: at least ``min_zeros`` sign changes overall and the
    last one falls in the final decade of the (possibly truncated) span.
    TYPE_2_1: tail has phi*phi' <= 0 with sgn phi = sgn phi'' != sgn phi' and
    |phi'|, |phi''| shrinking -- the decaying monotone pattern.
    TYPE_3_2: tail has one sign and phi*phi' >= 0 -- the growing pattern
    (reported for either sign of phi; a solution and its negative match the
    same pattern).  Everything else is UNCLASSIFIED.
    """
    if zeros is None:
        zeros = count_zeros(traj)
    t_end = traj.t_end
    if len(zeros) >= min_zeros and zeros[-1].t > t_end / 10.0:
        return OSCILLATORY_EVIDENCE
    t_tail = t_end - TAIL_FRACTION * (t_end - float(traj.t[0]))
    mask = traj.t >= t_tail
    if int(np.sum(mask)) < 8:
        return UNCLASSIFIED
    phi = traj.states[mask, 0]
    dphi = traj.states[mask, 1]
    ddphi = traj.states[mask, 2]
    scale = float(np.max(np.abs(phi)))
    if scale == 0.0:
        return UNCLASSIFIED
    eps = 1e-12 * scale
    sign = 1.0 if phi[np.argmax(np.abs(phi))] > 0 else -1.0
    phi_n = sign * phi
    dphi_n = sign * dphi
    ddphi_n = sign * ddphi
    one_signed = bool(np.all(phi_n > -eps))
    if not one_signed:
        return UNCLASSIFIED
    if np.all(phi_n * dphi_n <= eps * np.max(np.abs(dphi) + 1e-300)):
        pattern = np.all(dphi_n <= eps) and np.all(ddphi_n >= -eps)
        half = len(phi) // 2
        shrinking = (
            np.max(np.abs(dphi[half:])) <= np.max(np.abs(dphi[:half])) + eps
            and np.max(np.abs(ddphi[half:])) <= np.max(np.abs(ddphi[:half])) + eps
        )
        if pattern and shrinking:
            return TYPE_2_1
    if np.all(phi_n * dphi_n >= -eps * np.max(np.abs(dphi) + 1e-300)) and np.all(phi_n > eps):
        return TYPE_3_2
    return UNCLASSIFIED


@dataclass
class SolutionSummary:
    label: str
    initial: tuple
    zero_count: int
    last_zero: float | None
    classification: str
    status: str
    t_end: float


@dataclass
class OscillationReport:
    solutions: list
    has_oscillatory_evidence: bool
    warnings: list


def oscillation_report(
    model: CoefficientModel,
    t_max: float,
    n_random: int = 5,
    seed: int = 0,
    controls: OdeControls | None = None,
    *,
    min_zeros: int = 5,
) -> OscillationReport:
    """Integrate the fundamental basis plus seeded random unit combinations
    and classify each; evidence is declared if any solution oscillates."""
    if n_random < 0:
        raise ValueError(f"n_random must be nonnegative, got {n_random}")
    controls = controls or OdeControls()
    rng = np.random.default_rng(seed)
    runs = [(f"e{i+1}", init) for i, init in enumerate(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))]
    for i in range(n_random):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        runs.append((f"combo{i+1}", tuple(float(x) for x in v)))
    summaries = []
    warnings = []
    for label, init in runs:
        traj = integrate_third_order(model, init, t_max, controls)
        zeros = count_zeros(traj)
        cls = classify_lemma21(traj, zeros=zeros, min_zeros=min_zeros)
        summaries.append(
            SolutionSummary(
                label,
                tuple(init),
                len(zeros),
                zeros[-1].t if zeros else None,
                cls,
                traj.status,
                traj.t_end,
            )
        )
        for w in traj.warnings:
            warnings.append(f"{label}: {w}")
    evidence = any(s.classification == OSCILLATORY_EVIDENCE for s in summaries)
    return OscillationReport(summaries, evidence, warnings)


def wronskian(basis: Sequence[Trajectory], t: float) -> float:
    """Determinant of the basis state matrix at t (columns are solutions).

    Renormalized trajectories store rescaled samples; the recorded log
    factors are reapplied so the determinant refers to the true solutions.
    When every basis solution is dominated by the same growth mode the
    stored columns become numerically parallel and the determinant loses
    all significance regardless of bookkeeping, so consistency checks
    against the first-order trace formula should stay at moderate t.
    """
    cols = [traj.at(t) for traj in basis]
    log_total = sum(float(traj.log_scale[traj._segment(t)]) for traj in basis)
    det = float(np.linalg.det(np.column_stack(cols)))
    if log_total == 0.0 or det == 0.0:
        return det
    # combine in log space so a huge scale factor against a tiny stored
    # determinant still lands inside the representable range
    log_value = log_total + math.log(abs(det))
    if log_value > 700.0:
        return math.inf if det > 0 else -math.inf
    return math.copysign(math.exp(log_value), det)

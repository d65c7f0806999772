"""Direct integration of phi''' + p phi'' + q phi' + r phi = 0.

One Dormand-Prince 5(4) step loop, ``_DOPRI_TEMPLATE``, serves both
equations osc3 integrates: the linear third-order system here and the
scalar Riccati equation in ``riccati``.  It is an embedded pair with FSAL,
step-size control on a mixed absolute/relative error norm, and a hard cap
``h_max`` on accepted steps so that stored samples are dense enough for
zero counting.  ``_stepper(width)`` expands the loop into plain float code
for a state of that many components, once per width: 3 for one solution,
9 for the fundamental matrix, 1 for a Riccati solution.  ``_dopri`` runs it
and returns one ``Trajectory``: the accepted nodes with the state and the
right side at each.  ``Trajectory.at`` interpolates every column between
nodes by the cubic Hermite polynomial of those values and slopes, which
keeps refined zero locations honest to well below the sample spacing.

The equation is linear, so every solution is Phi(t) v, where Phi is the
fundamental matrix with Phi(t0) = I (Coddington & Levinson 1955, ch. 3).
``oscillation_report`` and ``fundamental_basis`` integrate Phi once, with
p, q and r evaluated once per stage for all nine entries, and read each
solution off it with ``Trajectory.solution(v)``.

The equation is also homogeneous, so any positive rescaling of the state
is again a solution with the same zeros.  The integrator exploits this:
when the state's max norm passes ``RENORM_THRESHOLD`` it is scaled back to
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
import functools
import math
import re
from array import array
from dataclasses import dataclass, field, replace
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
    one solution of the third-order system, the nine entries of the
    fundamental matrix Phi row by row for a matrix solve, and y alone for a
    scalar Riccati equation.
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

    def solution(self, v) -> Trajectory:
        """The solution Phi v of a fundamental-matrix trajectory, on the same
        nodes and log scale.  States and slopes are linear in v, so ``at``,
        ``count_zeros`` and ``classify_lemma21`` read it like a single
        solve from initial state Phi(t0) v."""
        v = np.asarray(v, dtype=float)
        states, slopes = (a.reshape(len(self.t), 3, 3) @ v for a in (self.states, self.slopes))
        return replace(self, states=states, slopes=slopes, warnings=list(self.warnings))


# The one Dormand-Prince 5(4) step loop, written once for a state of any
# width.  ``_stepper(width)`` expands it for the components y0, y1, ...: a
# line holding ``@`` is repeated once per component with ``@`` replaced by
# the index, and ``<pattern|sep>`` becomes the pattern for every component
# joined by sep.  The expansion is plain float code, unrolled like a loop
# written by hand, so a 3-vector pays no numpy dispatch per stage and a
# 3x3 matrix evaluates the coefficients once per stage for all nine entries.
_DOPRI_TEMPLATE = """
def dopri(deriv, t, init, t_max, rel_tol, abs_tol, h_max, limiter, escape):
    a21 = 0.2
    a31, a32 = 3.0 / 40.0, 9.0 / 40.0
    a41, a42, a43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
    a51, a52, a53, a54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
    a61, a62, a63, a64, a65 = (
        9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0
    )
    a71, a73, a74, a75, a76 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
    c2, c3, c4, c5 = 0.2, 0.3, 0.8, 8.0 / 9.0
    # error weights, fifth minus fourth order (the second is zero)
    e1, e3, e4, e5, e6, e7 = (
        71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0
    )
    isfinite = math.isfinite
    dim = len(init)
    <y@|, >, = init
    stats = StepStats()
    ts = array("d", (t,))
    ys = array("d", init)
    <k1_@|, >, = deriv(t, <y@|, >)
    dys = array("d", (<k1_@|, >,))
    log_scale = 0.0
    scales = array("d", (0.0,))
    status = COMPLETED
    h = min(h_max, 1e-2, max(t_max - t, 1e-12))
    while t < t_max:
        h = min(h, h_max, t_max - t)
        if limiter is not None:
            h = limiter.cap(t, h)
        if h < 1e-14 * max(1.0, abs(t)):
            status = STEP_UNDERFLOW
            break
        tt = t + c2 * h
        s@ = y@ + h * (a21 * k1_@)
        <k2_@|, >, = deriv(tt, <s@|, >)
        tt = t + c3 * h
        s@ = y@ + h * (a31 * k1_@ + a32 * k2_@)
        <k3_@|, >, = deriv(tt, <s@|, >)
        tt = t + c4 * h
        s@ = y@ + h * (a41 * k1_@ + a42 * k2_@ + a43 * k3_@)
        <k4_@|, >, = deriv(tt, <s@|, >)
        tt = t + c5 * h
        s@ = y@ + h * (a51 * k1_@ + a52 * k2_@ + a53 * k3_@ + a54 * k4_@)
        <k5_@|, >, = deriv(tt, <s@|, >)
        tt = t + h
        s@ = y@ + h * (a61 * k1_@ + a62 * k2_@ + a63 * k3_@ + a64 * k4_@ + a65 * k5_@)
        <k6_@|, >, = deriv(tt, <s@|, >)
        n@ = y@ + h * (a71 * k1_@ + a73 * k3_@ + a74 * k4_@ + a75 * k5_@ + a76 * k6_@)
        <k7_@|, >, = deriv(tt, <n@|, >)
        d@ = h * (e1 * k1_@ + e3 * k3_@ + e4 * k4_@ + e5 * k5_@ + e6 * k6_@ + e7 * k7_@)
        r@ = d@ / (abs_tol + rel_tol * max(abs(y@), abs(n@)))
        err = math.sqrt((<r@ * r@| + >) / dim)
        if not (<isfinite(n@)| and > and isfinite(err)):
            stats.rejected += 1
            h *= 0.2
            continue
        if err <= 1.0:
            t = tt
            y@ = n@
            k1_@ = k7_@  # FSAL
            ts.append(t)
            ys.extend((<y@|, >,))
            dys.extend((<k1_@|, >,))
            scales.append(log_scale)
            stats.accepted += 1
            norm = max((<abs(y@)|, >,))
            if escape is None:
                if norm > RENORM_THRESHOLD:
                    inv = 1.0 / norm
                    y@ *= inv
                    k1_@ *= inv
                    log_scale += math.log(norm)
            elif norm > escape:
                status = BLOW_UP
                break
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            stats.rejected += 1
            fac = max(0.1, 0.9 * err ** -0.2)
        h *= fac
    return ts, ys, dys, scales, status, stats
"""


@functools.lru_cache(maxsize=None)
def _stepper(width: int):
    """The step loop of ``_DOPRI_TEMPLATE`` expanded for ``width`` components."""
    lines = []
    for line in _DOPRI_TEMPLATE.splitlines():
        line = re.sub(
            r"<(.*?)\|(.*?)>",
            lambda m: m[2].join(m[1].replace("@", str(i)) for i in range(width)),
            line,
        )
        if "@" in line:
            lines.extend(line.replace("@", str(i)) for i in range(width))
        else:
            lines.append(line)
    scope = {"array": array, "math": math, "StepStats": StepStats, "COMPLETED": COMPLETED,
             "BLOW_UP": BLOW_UP, "STEP_UNDERFLOW": STEP_UNDERFLOW, "RENORM_THRESHOLD": RENORM_THRESHOLD}
    exec(compile("\n".join(lines), f"<dopri width {width}>", "exec"), scope)
    return scope["dopri"]


def _dopri(deriv, t0: float, init, t_max: float, controls: OdeControls, escape: float | None = None):
    """Dormand-Prince 5(4) from state ``init`` at t0, by the step loop
    expanded for ``len(init)`` components.

    ``deriv(t, y0, y1, ...)`` returns the right side as a tuple of the same
    width.  The error norm is the RMS over the components.  A step with a
    non-finite stage is rejected and retried at a fifth of its size.

    The right side at every node is the FSAL stage, so the returned
    ``Trajectory`` keeps it as ``slopes`` at no extra evaluation.  The nodes
    are stored flat in ``array('d')`` and read with ``np.frombuffer``.  With
    no ``escape`` the state is rescaled to unit max norm whenever it passes
    ``RENORM_THRESHOLD``, which is only valid for right sides that are
    1-homogeneous in the state (linear equations).  With ``escape`` the run
    ends as BLOW_UP at the first node with |state| > escape.

    A span longer than ``MAX_STEPS`` steps of ``controls.h_max`` is refused
    up front, since stepping through it would not finish.
    """
    h_max = controls.h_max
    if t_max - t0 > MAX_STEPS * h_max:
        raise ValueError(
            f"t_max={t_max!r} is more than {MAX_STEPS} steps of h_max={h_max!r} past t0={t0!r}"
        )
    windows = controls.feature_windows
    limiter = _StepLimiter(windows) if windows else None
    init = [float(v) for v in init]
    width = len(init)
    ts, ys, dys, scales, status, stats = _stepper(width)(
        deriv, float(t0), init, t_max, controls.rel_tol, controls.abs_tol, h_max, limiter, escape
    )
    states = np.frombuffer(ys).reshape(-1, width)
    slopes = np.frombuffer(dys).reshape(-1, width)
    return Trajectory(np.frombuffer(ts), states, slopes, np.frombuffer(scales), status, stats)


def _linear_rhs(model: CoefficientModel, width: int = 3):
    """Right side of the third order equation as a first order system in
    (phi, phi', phi''): phi''' = -(p phi'' + q phi' + r phi).  At width 9
    the state is a 3x3 matrix stored row by row (row i holds the i-th
    derivative of the three columns), and p, q and r are evaluated once for
    all three columns."""
    p_at, q_at, r_at = model.p_at, model.q_at, model.r_at
    if width == 3:

        def deriv(t, a, b, c):
            return b, c, -(p_at(t) * c + q_at(t) * b + r_at(t) * a)

        return deriv

    def deriv_matrix(t, a0, a1, a2, b0, b1, b2, c0, c1, c2):
        p, q, r = p_at(t), q_at(t), r_at(t)
        return (
            b0, b1, b2, c0, c1, c2,
            -(p * c0 + q * b0 + r * a0), -(p * c1 + q * b1 + r * a1), -(p * c2 + q * b2 + r * a2),
        )

    return deriv_matrix


def integrate_third_order(
    model: CoefficientModel,
    initial,
    t_max: float,
    controls: OdeControls | None = None,
) -> Trajectory:
    """Integrate one solution from state (phi, phi', phi'') at model.t0, or,
    when ``initial`` is a 3x3 matrix whose columns are such states, the
    fundamental matrix Phi with Phi(t0) = initial: one solve with one step
    size, error norm and log scale for all nine entries, stored row by row.
    ``Trajectory.solution(v)`` reads the solution Phi v off it."""
    if not model.t0 < t_max < math.inf:
        raise ValueError(f"t_max={t_max} must be finite and exceed t0={model.t0}")
    init = np.ravel(initial).tolist()
    if len(init) not in (3, 9):
        raise ValueError(f"initial must be a 3-vector or a 3x3 matrix, got {len(init)} values")
    traj = _dopri(_linear_rhs(model, len(init)), model.t0, init, t_max, controls or OdeControls())
    if traj.status == STEP_UNDERFLOW:
        traj.warnings.append(f"trajectory truncated at t={traj.t_end:.6g}: step size underflow")
    return traj


def fundamental_basis(
    model: CoefficientModel, t_max: float, controls: OdeControls | None = None
) -> list:
    """The three solutions with identity initial data at t0: the columns of
    one fundamental-matrix solve, so they share its nodes and log scale."""
    phi = integrate_third_order(model, np.eye(3), t_max, controls)
    return [phi.solution(e) for e in np.eye(3)]


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
    """Classify the fundamental basis plus seeded random unit combinations;
    evidence is declared if any solution oscillates.  The equation is solved
    once, for the fundamental matrix Phi, and each solution is read off it
    as Phi v."""
    if n_random < 0:
        raise ValueError(f"n_random must be nonnegative, got {n_random}")
    rng = np.random.default_rng(seed)
    runs = [(f"e{i+1}", init) for i, init in enumerate(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))]
    for i in range(n_random):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        runs.append((f"combo{i+1}", tuple(float(x) for x in v)))
    phi = integrate_third_order(model, np.eye(3), t_max, controls)
    summaries = []
    for label, init in runs:
        traj = phi.solution(init)
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
    evidence = any(s.classification == OSCILLATORY_EVIDENCE for s in summaries)
    return OscillationReport(summaries, evidence, list(phi.warnings))


def wronskian(basis: Sequence[Trajectory], t: float) -> float:
    """Determinant of the basis state matrix at t (columns are solutions).

    The basis is the three columns of one matrix solve, as
    ``fundamental_basis`` returns it: they share one node set and one log
    scale, so the stored determinant at t, in the scale of the node k below
    t, is multiplied by exp(3 log_scale[k]) to refer to the true solutions.
    When every basis solution is dominated by the same growth mode the
    stored columns become numerically parallel and the determinant loses
    all significance regardless of bookkeeping, so consistency checks
    against the first-order trace formula should stay at moderate t.
    """
    cols = [traj.at(t) for traj in basis]
    first = basis[0]
    log_total = 3.0 * float(first.log_scale[first._segment(t)])
    det = float(np.linalg.det(np.column_stack(cols)))
    if log_total == 0.0 or det == 0.0:
        return det
    # combine in log space so a huge scale factor against a tiny stored
    # determinant still lands inside the representable range
    log_value = log_total + math.log(abs(det))
    if log_value > 700.0:
        return math.inf if det > 0 else -math.inf
    return math.copysign(math.exp(log_value), det)

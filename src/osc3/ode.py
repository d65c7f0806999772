"""Direct integration of phi''' + p phi'' + q phi' + r phi = 0.

One explicit Runge-Kutta step loop, ``_STEP_TEMPLATE``, serves both
equations osc3 integrates: the linear third-order system here and the
scalar Riccati equation in ``riccati``.  Its coefficients, ``_TABLEAU``,
are Tsitouras' 5(4) pair: seven stages, the last at the new node (FSAL),
so six new evaluations of the right side per step.  The loop has
step-size control on a mixed absolute/relative error norm, and a hard cap
``h_max`` on accepted steps so that stored samples are dense enough for
zero counting.  ``_stepper(width, frame)`` expands the loop into plain
float code for a state of that many components, once per width: 3 for one
solution, 9 for the fundamental matrix, 1 for a Riccati solution.
``_integrate`` runs it and returns one ``Trajectory``: the accepted nodes
with the state and the right side at each.

The equation is linear, so every solution is Phi(t) v, where Phi is the
fundamental matrix with Phi(t0) = I (Coddington & Levinson 1955, ch. 3).
``oscillation_report`` and ``fundamental_basis`` integrate Phi once, with
p, q and r evaluated once per stage for all nine entries, and read each
solution off it with ``Trajectory.solution(v)``.  The loop of the linear
system calls p_at, q_at and r_at itself and has the right side written
into it, so a stage makes no other Python call, bar ``_rate`` at the FSAL
stage.

The equation is also homogeneous, so any positive multiple of a solution
is a solution with the same zeros.  The linear solve steps in a moving
exponential frame: psi = exp(-M) (phi, phi', phi''), where M grows on
each step at mu, the largest real part among the roots of
x^3 + p x^2 + q x + r at the step's start.  At frozen coefficients the
dominant solution grows like exp(mu t), so psi stays near rest and the
step size follows how the coefficients change, not how fast phi grows.
mu comes in closed form (``_rate``) from the p, q and r the FSAL stage
already evaluated, so the frame costs no coefficient call.  M is stored
per node as ``log_scale``; past ``RENORM_THRESHOLD`` the state is also
rescaled to order one, so solutions growing like exp(t^3) are followed
across any number of decades.  Sign patterns and zero locations do not
depend on the scale; consumers that need true magnitudes (the Wronskian,
``classify_lemma21``) reapply it.

The state of a third-order system is its own jet: a node holds phi, phi'
and phi'', and its slope adds phi'''.  ``Trajectory.at`` and
``count_zeros`` read each solution between nodes as the degree-7 Hermite
interpolant of both nodes' jets, which keeps refined zero locations at
the accuracy of the solve on the frame's long steps; ``count_zeros`` also
reads its sign at interior points of each step, so that a long step does
not hide a pair of zeros between its nodes.

The nonlinear Riccati equation has neither frame nor rescaling, so its
caller passes an ``escape`` bound instead: a solution that leaves
|state| > escape is truncated and flagged rather than raised, since a
genuinely growing mode is an informative outcome there, not a failure.
Its one column is read by cubic Hermite interpolation.  A model whose
coefficients have narrow active windows (bump trains) carries them, and
``integrate_third_order`` hands them to the stepper so that steps never
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
ZERO_SAMPLES = 7  # count_zeros also reads each step at this many interior points
MIN_ZEROS = 5  # classify_lemma21 calls a solution oscillatory from this many zeros
RENORM_THRESHOLD = 1e150  # the linear system's state is rescaled past this norm
MAX_STEPS = 10**6  # _integrate refuses a span longer than this many steps of h_max


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


def _septic(h, f0, f1, f2, f3, g0, g1, g2, g3):
    """Coefficients c0..c7 in tau = t - t0 of the degree-7 Hermite
    interpolant with derivatives 0 to 3 equal to f0..f3 at t0 and to g0..g3
    at t0 + h.  The first four are the Taylor coefficients at t0, so the
    value and first two derivatives at t0 come back exactly.  Works
    elementwise on floats and numpy arrays alike."""
    # in s = tau / h: a is the Taylor part's coefficients, d what the right
    # end's derivatives need beyond the Taylor part
    a1, a2, a3 = f1 * h, f2 * (0.5 * h * h), f3 * (h * h * h / 6.0)
    d0 = g0 - (f0 + a1 + a2 + a3)
    d1 = g1 * h - (a1 + 2.0 * a2 + 3.0 * a3)
    d2 = g2 * (h * h) - (2.0 * a2 + 6.0 * a3)
    d3 = g3 * (h * h * h) - 6.0 * a3
    # s^4 (c4 + c5 s + c6 s^2 + c7 s^3) matches d at s = 1
    c4 = 35.0 * d0 - 15.0 * d1 + 2.5 * d2 - d3 / 6.0
    c5 = -84.0 * d0 + 39.0 * d1 - 7.0 * d2 + 0.5 * d3
    c6 = 70.0 * d0 - 34.0 * d1 + 6.5 * d2 - 0.5 * d3
    c7 = -20.0 * d0 + 10.0 * d1 - 2.0 * d2 + d3 / 6.0
    h4 = h * h * h * h
    return f0, f1, 0.5 * f2, f3 / 6.0, c4 / h4, c5 / (h4 * h), c6 / (h4 * h * h), c7 / (h4 * h * h * h)


def _horner(c, tau):
    """The polynomial with coefficients c (lowest first) at tau."""
    value = c[-1]
    for ck in c[-2::-1]:
        value = value * tau + ck
    return value


@dataclass
class Trajectory:
    """The accepted nodes of one ``_integrate`` run.

    ``states[k]`` and ``slopes[k]`` are the state and the right side at
    ``t[k]``, both stored divided by exp(log_scale[k]): the frame's M plus
    any rescaling for a linear solve, all zeros for a Riccati solve.  The
    columns are (phi, phi', phi'') for one solution of the third-order
    system, the nine entries of the fundamental matrix Phi row by row for a
    matrix solve, and y alone for a scalar Riccati equation.
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

    def _segment(self, t):
        """Index k of the step [t[k], t[k+1]] that holds t, elementwise
        when t is an array."""
        ts = self.t
        if not np.all((ts[0] <= t) & (t <= ts[-1])):
            raise ValueError(f"t={t!r} outside trajectory span [{ts[0]}, {ts[-1]}]")
        return np.minimum(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2)

    def at(self, t: float) -> np.ndarray:
        """The state at t, in the scale of node k = ``_segment(t)``.

        A state of width 3 or 9 holds (phi, phi', phi'') of one or three
        solutions, and the slope's last row holds phi''', so every node
        carries each solution's jet to third order: each solution is read
        as the degree-7 Hermite interpolant P of both nodes' jets, and the
        rows returned are (P, P', P'').  A Riccati state (width 1) is read
        by the cubic Hermite polynomial of its values and slopes."""
        k = self._segment(t)
        if self.states.shape[1] != 1:
            return self._jets(np.array([t], dtype=float), np.array([k]))[0]
        t0, t1 = self.t[k], self.t[k + 1]
        ratio = math.exp(float(self.log_scale[k + 1]) - float(self.log_scale[k]))
        return _hermite(
            t0, t1, self.states[k], self.slopes[k], self.states[k + 1] * ratio, self.slopes[k + 1] * ratio, t
        )

    def _step_polynomials(self, ks: np.ndarray) -> tuple:
        """The coefficients c0..c7 of ``_septic`` on each step ks[i], one
        column per solution, in the scale of node ks[i], and the step
        lengths h, for a state of width 3 or 9."""
        n = self.states.shape[1] // 3
        ratio = np.exp(self.log_scale[ks + 1] - self.log_scale[ks])[:, None]
        y0, y1 = self.states[ks], self.states[ks + 1] * ratio
        f3, g3 = self.slopes[ks, 2 * n:], self.slopes[ks + 1, 2 * n:] * ratio
        h = (self.t[ks + 1] - self.t[ks])[:, None]
        c = _septic(h, y0[:, :n], y0[:, n:2 * n], y0[:, 2 * n:], f3, y1[:, :n], y1[:, n:2 * n], y1[:, 2 * n:], g3)
        return c, h

    def _jets(self, ts: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """The rows (P, P', P'') of ``at`` at each ts[i] in step ks[i], in
        the scale of node ks[i], for a state of width 3 or 9."""
        c, _ = self._step_polynomials(ks)
        dc = [j * cj for j, cj in enumerate(c)][1:]
        ddc = [j * cj for j, cj in enumerate(dc)][1:]
        tau = (ts - self.t[ks])[:, None]
        return np.hstack([_horner(c, tau), _horner(dc, tau), _horner(ddc, tau)])

    def solution(self, v) -> Trajectory:
        """The solution Phi v of a fundamental-matrix trajectory, on the same
        nodes and log scale.  States and slopes are linear in v, so ``at``,
        ``count_zeros`` and ``classify_lemma21`` read it like a single
        solve from initial state Phi(t0) v."""
        v = np.asarray(v, dtype=float)
        states, slopes = (a.reshape(len(self.t), 3, 3) @ v for a in (self.states, self.slopes))
        return replace(self, states=states, slopes=slopes, warnings=list(self.warnings))


# Tsitouras' 5(4) pair (Comput. Math. Appl. 62 (2011) 770-775), the
# coefficients of the one step loop.  Stage i sits at t + c[i] h with row i
# of ``a`` its weights of the earlier stages, and ``b`` is the solution's
# weights.  The seventh stage's row is ``b`` at c7 = 1, so that stage is
# the right side at the new node, the next step's first (FSAL), and a step
# makes six new evaluations of the right side.  ``e`` is the fifth-order
# weights minus the fourth-order ones.
_TABLEAU = {
    "c": (0.0, 0.161, 0.327, 0.9, 0.9800255409045097, 1.0, 1.0),
    "a": (
        (),
        (0.161,),
        (-0.008480655492356989, 0.335480655492357),
        (2.897153057105493, -6.359448489975075, 4.3622954328695815),
        (5.325864828439257, -11.748883564062828, 7.4955393428898365, -0.09249506636175525),
        (5.86145544294642, -12.92096931784711, 8.159367898576159, -0.071584973281401, -0.028269050394068383),
        (0.09646076681806523, 0.01, 0.4798896504144996, 1.379008574103742, -3.290069515436081, 2.324710524099774),
    ),
    "b": (0.09646076681806523, 0.01, 0.4798896504144996, 1.379008574103742, -3.290069515436081, 2.324710524099774, 0.0),
    "e": (
        -0.00178001105222577714, -0.0008164344596567469, 0.007880878010261995, -0.1447110071732629,
        0.5823571654525552, -0.45808210592918697, 0.015151515151515152,
    ),
}

# The one step loop, written once for a state of any width.
# ``_stepper(width, frame)`` expands it for the components y0, y1, ...: a
# line holding ``@`` is repeated once per component with ``@`` replaced by
# the index, and ``<pattern|sep>`` becomes the pattern for every component
# joined by sep.  The line ending in ``# tableau`` becomes one assignment
# per coefficient of ``_TABLEAU``: a21 .. a76, c1 .. c7, b1 .. b7 and
# e1 .. e7.  A line ending in ``# frame`` is kept only in the moving-frame
# loop of a linear system, one ending in ``# plain`` only in the loop with
# an escape bound.  The expansion is plain float code, unrolled like a loop
# written by hand, so a 3-vector pays no numpy dispatch per stage and a
# 3x3 matrix evaluates the coefficients once per stage for all nine
# entries.
#
# The plain loop calls ``deriv(t, y0, y1, ...)``.  The frame loop is given
# the coefficients (p_at, q_at, r_at) of the linear system and writes its
# right side out: in a line holding ``@``, ``rhs(x)@`` becomes component @
# of the right side at the state x0, x1, ... (``_linear_component``).  It
# steps psi = exp(-M) y with M' = mu, where mu is held at the rate of the
# step's start: every stage is A s - mu s, the stored slope is the raw
# right side A psi, and M is the log scale.
_STEP_TEMPLATE = """
def step_loop(rhs, t, init, t_max, rel_tol, abs_tol, h_max, limiter, escape):
    ...  # tableau
    deriv = rhs  # plain
    p_at, q_at, r_at = rhs  # frame
    isfinite = math.isfinite
    dim = len(init)
    <y@|, >, = init
    stats = StepStats()
    ts = array("d", (t,))
    ys = array("d", init)
    <f@|, >, = deriv(t, <y@|, >)  # plain
    k1_@ = f@  # plain
    p, q, r = p_at(t), q_at(t), r_at(t)  # frame
    f@ = rhs(y)@  # frame
    mu = _rate(p, q, r)  # frame
    k1_@ = f@ - mu * y@  # frame
    dys = array("d", (<f@|, >,))
    log_scale = 0.0
    scales = array("d", (0.0,))
    atol = abs_tol  # the error scale's absolute part, abs_tol * exp(-log_scale) in the frame
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
        <k2_@|, >, = deriv(tt, <s@|, >)  # plain
        p, q, r = p_at(tt), q_at(tt), r_at(tt)  # frame
        k2_@ = rhs(s)@ - mu * s@  # frame
        tt = t + c3 * h
        s@ = y@ + h * (a31 * k1_@ + a32 * k2_@)
        <k3_@|, >, = deriv(tt, <s@|, >)  # plain
        p, q, r = p_at(tt), q_at(tt), r_at(tt)  # frame
        k3_@ = rhs(s)@ - mu * s@  # frame
        tt = t + c4 * h
        s@ = y@ + h * (a41 * k1_@ + a42 * k2_@ + a43 * k3_@)
        <k4_@|, >, = deriv(tt, <s@|, >)  # plain
        p, q, r = p_at(tt), q_at(tt), r_at(tt)  # frame
        k4_@ = rhs(s)@ - mu * s@  # frame
        tt = t + c5 * h
        s@ = y@ + h * (a51 * k1_@ + a52 * k2_@ + a53 * k3_@ + a54 * k4_@)
        <k5_@|, >, = deriv(tt, <s@|, >)  # plain
        p, q, r = p_at(tt), q_at(tt), r_at(tt)  # frame
        k5_@ = rhs(s)@ - mu * s@  # frame
        tt = t + h  # c6 = c7 = 1
        s@ = y@ + h * (a61 * k1_@ + a62 * k2_@ + a63 * k3_@ + a64 * k4_@ + a65 * k5_@)
        <k6_@|, >, = deriv(tt, <s@|, >)  # plain
        p, q, r = p_at(tt), q_at(tt), r_at(tt)  # frame
        k6_@ = rhs(s)@ - mu * s@  # frame
        n@ = y@ + h * (b1 * k1_@ + b2 * k2_@ + b3 * k3_@ + b4 * k4_@ + b5 * k5_@ + b6 * k6_@)
        <f@|, >, = deriv(tt, <n@|, >)  # plain
        k7_@ = f@  # plain
        p, q, r = p_at(tt), q_at(tt), r_at(tt)  # frame
        f@ = rhs(n)@  # frame
        mu_next = _rate(p, q, r)  # frame
        k7_@ = f@ - mu * n@  # frame
        d@ = h * (e1 * k1_@ + e2 * k2_@ + e3 * k3_@ + e4 * k4_@ + e5 * k5_@ + e6 * k6_@ + e7 * k7_@)
        d@ /= atol + rel_tol * max(abs(y@), abs(n@))
        err = math.sqrt((<d@ * d@| + >) / dim)
        if not (<isfinite(n@)| and > and isfinite(err)):
            stats.rejected += 1
            h *= 0.2
            continue
        if err <= 1.0:
            t = tt
            y@ = n@
            log_scale += mu * h  # frame
            mu = mu_next  # frame
            k1_@ = k7_@  # plain
            k1_@ = f@ - mu * y@  # frame
            ts.append(t)
            ys.extend((<y@|, >,))
            dys.extend((<f@|, >,))
            scales.append(log_scale)
            stats.accepted += 1
            norm = max((<abs(y@)|, >,))
            if norm > escape:  # plain
                status = BLOW_UP  # plain
                break  # plain
            if norm > RENORM_THRESHOLD:  # frame
                inv = 1.0 / norm  # frame
                y@ *= inv  # frame
                k1_@ *= inv  # frame
                log_scale += math.log(norm)  # frame
            atol = max(abs_tol * math.exp(min(-log_scale, 700.0)), 1e-300)  # frame
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            stats.rejected += 1
            fac = max(0.1, 0.9 * err ** -0.2)
        h *= fac
    return ts, ys, dys, scales, status, stats
"""


def _tableau_lines() -> list:
    """One assignment per coefficient of ``_TABLEAU`` (a21, c1, b1, e1, ...),
    as lines of the step loop's body."""
    rows = [(f"a{i + 1}", row) for i, row in enumerate(_TABLEAU["a"])] + [(key, _TABLEAU[key]) for key in "cbe"]
    return [f"    {name}{j + 1} = {value!r}" for name, row in rows for j, value in enumerate(row)]


def _linear_component(x: str, i: int, width: int) -> str:
    """Component i of the right side of phi''' = -(p phi'' + q phi' + r phi)
    at the state x0, x1, ... of ``width`` components, (phi, phi', phi'') of
    width // 3 solutions row by row: x[i + n] in the first two rows, and
    -(p phi'' + q phi' + r phi) of solution j in the third."""
    n = width // 3
    if i < 2 * n:
        return f"{x}{i + n}"
    return f"-(p * {x}{i} + q * {x}{i - n} + r * {x}{i - 2 * n})"


@functools.lru_cache(maxsize=None)
def _stepper(width: int, frame: bool):
    """The step loop of ``_STEP_TEMPLATE`` expanded for ``width``
    components, in the moving frame or with an escape bound."""
    lines = []
    drop = "# plain" if frame else "# frame"
    for line in _STEP_TEMPLATE.splitlines():
        if line.endswith(drop):
            continue
        if line.endswith("# tableau"):
            lines.extend(_tableau_lines())
            continue
        line = re.sub(
            r"<(.*?)\|(.*?)>",
            lambda m: m[2].join(m[1].replace("@", str(i)) for i in range(width)),
            line,
        )
        if "@" in line:
            lines.extend(
                re.sub(r"rhs\((\w+)\)@", lambda m: _linear_component(m[1], i, width), line).replace("@", str(i))
                for i in range(width)
            )
        else:
            lines.append(line)
    scope = {"array": array, "math": math, "StepStats": StepStats, "COMPLETED": COMPLETED, "_rate": _rate,
             "BLOW_UP": BLOW_UP, "STEP_UNDERFLOW": STEP_UNDERFLOW, "RENORM_THRESHOLD": RENORM_THRESHOLD}
    exec(compile("\n".join(lines), f"<step loop width {width}{' frame' if frame else ''}>", "exec"), scope)
    return scope["step_loop"]


def _integrate(
    rhs, t0: float, init, t_max: float, controls: OdeControls, escape: float | None = None, windows=None,
):
    """Tsitouras' 5(4) pair from state ``init`` at t0, by the step loop
    expanded for ``len(init)`` components.

    The error norm is the RMS over the components.  A step with a
    non-finite stage is rejected and retried at a fifth of its size.  The
    right side at every node is the FSAL stage, so the returned
    ``Trajectory`` keeps it as ``slopes`` at no extra evaluation.  The nodes
    are stored flat in ``array('d')`` and read with ``np.frombuffer``.

    - With ``escape``, ``rhs`` is ``deriv(t, y0, y1, ...)``, which returns
      the right side as a tuple of the same width, and the run ends as
      BLOW_UP at the first node with |state| > escape.
    - Without, ``rhs`` is the coefficients ``(p_at, q_at, r_at)`` of
      phi''' + p phi'' + q phi' + r phi = 0, the state is (phi, phi', phi'')
      of one or three solutions, row by row, and each stage calls p_at,
      q_at and r_at once.  The loop steps psi = exp(-M) y with M growing at
      ``_rate`` of the p, q and r at the step's start, from the FSAL stage's
      call, and stores psi with M as ``log_scale``; past
      ``RENORM_THRESHOLD`` the state is also rescaled to unit max norm.  The
      error scale is ``abs_tol * exp(-M) + rel_tol * |psi|``, so ``abs_tol``
      bounds the error of y itself.

    ``windows``, narrow active regions [(lo, hi), ...], shorten the steps
    near them (``_StepLimiter``).  A span longer than ``MAX_STEPS`` steps of
    ``controls.h_max`` is refused up front, since stepping through it would
    not finish.
    """
    h_max = controls.h_max
    if t_max - t0 > MAX_STEPS * h_max:
        raise ValueError(
            f"t_max={t_max!r} is more than {MAX_STEPS} steps of h_max={h_max!r} past t0={t0!r}"
        )
    limiter = _StepLimiter(windows) if windows else None
    init = [float(v) for v in init]
    width = len(init)
    ts, ys, dys, scales, status, stats = _stepper(width, escape is None)(
        rhs, float(t0), init, t_max, controls.rel_tol, controls.abs_tol, h_max, limiter, escape
    )
    states = np.frombuffer(ys).reshape(-1, width)
    slopes = np.frombuffer(dys).reshape(-1, width)
    return Trajectory(np.frombuffer(ts), states, slopes, np.frombuffer(scales), status, stats)


def _rate(p: float, q: float, r: float) -> float:
    """The largest real part among the roots of x^3 + p x^2 + q x + r, in
    closed form: the growth rate of the equation with p, q and r frozen.

    With x = z - p/3 the cubic is z^3 + a z + b.  Three real roots take
    Viete's cosine form; otherwise the real root u + v comes from Cardano's
    formula with u the cube root free of cancellation, and the complex pair
    has real part -(u + v)/2.  Coefficients too large for the formula give
    0: the frame stands still and rescaling alone keeps the state in range.
    """
    s = p / 3.0
    a = q - p * s
    b = r - s * (q - 2.0 * s * s)
    half, third = 0.5 * b, a / 3.0
    disc = half * half + third * third * third
    if disc < 0.0:
        m = math.sqrt(-third)
        z = 2.0 * m * math.cos(math.acos(max(-1.0, min(1.0, -half / (m * m * m)))) / 3.0)
    else:
        u = -math.copysign((abs(half) + math.sqrt(disc)) ** (1.0 / 3.0), half)
        z = u - third / u if u != 0.0 else 0.0
        z = max(z, -0.5 * z)
    mu = z - s
    return mu if math.isfinite(mu) else 0.0


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
    windows = model.windows(t_max) if model.windows else None
    coefficients = (model.p_at, model.q_at, model.r_at)
    traj = _integrate(coefficients, model.t0, init, t_max, controls or OdeControls(), windows=windows)
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


def _bisect(c, a, lo, hi, flo):
    """The zero of the polynomial c (in t - a) in [lo, hi], where it has
    the sign of flo at lo and not at hi, bisected to width <= ZERO_TOL."""
    for _ in range(200):
        if hi - lo <= ZERO_TOL:
            break
        mid = 0.5 * (lo + hi)
        fm = _horner(c, mid - a)
        if fm == 0.0 or (flo < 0.0) != (fm < 0.0):
            hi = mid
        else:
            lo, flo = mid, fm
    return ZeroRecord(0.5 * (lo + hi), lo, hi)


def count_zeros(traj: Trajectory) -> list:
    """Sign-change zeros of phi for one solution (a state of width 3),
    refined by bisection on the degree-7 interpolant P of ``Trajectory.at``
    to a bracket of width <= ZERO_TOL.

    Each step is read at its two nodes and at ``ZERO_SAMPLES`` evenly
    spaced interior points of P, so a pair of zeros inside one step is
    counted unless the two lie between neighbouring samples.  A step whose
    samples change sign once is bisected over the whole step; one with
    more changes, between the samples that bracket each change."""
    if traj.states.shape[1] != 3:
        raise ValueError(f"count_zeros reads one solution (width 3), got width {traj.states.shape[1]}")
    ts = traj.t
    phi = traj.states[:, 0]
    zeros = []
    if len(ts) > 1:
        # the factor to the scale of node k is positive, so it cannot decide
        # a sign; signs are compared, not products, which can underflow
        c, h = traj._step_polynomials(np.arange(len(ts) - 1))
        tau = h * (np.arange(1, ZERO_SAMPLES + 1) / (ZERO_SAMPLES + 1))
        samples = np.hstack([phi[:-1, None], _horner(c, tau), phi[1:, None]])
        tau = np.hstack([np.zeros_like(h), tau, h])
        nonzero = samples != 0.0
        negative = samples < 0.0
        change = nonzero[:, :-1] & nonzero[:, 1:] & (negative[:, :-1] != negative[:, 1:])
        # a zero sample is a zero; the right node's is taken by the next step
        touch = ~nonzero[:, :-1]
        for k in np.flatnonzero(change.any(axis=1) | touch.any(axis=1)).tolist():
            a = float(ts[k])
            ck = [float(ci[k, 0]) for ci in c]
            whole = change[k].sum() == 1 and not touch[k].any()
            for j in range(ZERO_SAMPLES + 1):
                if touch[k, j]:
                    t = a + float(tau[k, j])
                    if not zeros or zeros[-1].t != t:
                        zeros.append(ZeroRecord(t, t, t))
                elif change[k, j]:
                    if whole:
                        lo, hi, flo = a, float(ts[k + 1]), samples[k, 0]
                    else:
                        lo, hi, flo = a + float(tau[k, j]), a + float(tau[k, j + 1]), samples[k, j]
                    zeros.append(_bisect(ck, a, lo, hi, float(flo)))
    if len(ts) and phi[-1] == 0.0:
        t_last = float(ts[-1])
        if not zeros or zeros[-1].t != t_last:
            zeros.append(ZeroRecord(t_last, t_last, t_last))
    return zeros


TAIL_FRACTION = 0.25  # classify_lemma21 reads the final quarter of the span ...
TAIL_SAMPLES = 64  # ... at this many evenly spaced points
JET_EPS = 1e-12  # a sample's sign test tolerance, relative to its node's jet

TYPE_2_1 = "TYPE_2_1"
TYPE_3_2 = "TYPE_3_2"
OSCILLATORY_EVIDENCE = "OSCILLATORY_EVIDENCE"
UNCLASSIFIED = "UNCLASSIFIED"


def classify_lemma21(traj: Trajectory, *, zeros: list | None = None) -> str:
    """Classify the tail behaviour of one nontrivial solution.

    OSCILLATORY_EVIDENCE: at least ``MIN_ZEROS`` sign changes overall and the
    last one falls in the final decade of the (possibly truncated) span.
    TYPE_2_1: tail has phi*phi' <= 0 with sgn phi = sgn phi'' != sgn phi' and
    |phi'|, |phi''| shrinking -- the decaying monotone pattern.
    TYPE_3_2: tail has one sign and phi*phi' >= 0 -- the growing pattern
    (reported for either sign of phi; a solution and its negative match the
    same pattern).  Everything else is UNCLASSIFIED.

    The tail is the final ``TAIL_FRACTION`` of the span, read through
    ``Trajectory.at`` at ``TAIL_SAMPLES`` evenly spaced points, so the step
    sizes do not decide how many samples it holds.  Each sample's signs are
    judged against the size of its own node's jet, and |phi'|, |phi''| are
    compared across the tail in true magnitude (log scale included), so a
    tail spanning many decades or a rescale keeps its pattern.
    """
    if zeros is None:
        zeros = count_zeros(traj)
    t_end = traj.t_end
    if len(zeros) >= MIN_ZEROS and zeros[-1].t > t_end / 10.0:
        return OSCILLATORY_EVIDENCE
    if len(traj.t) < 2:
        return UNCLASSIFIED
    ts = np.linspace(t_end - TAIL_FRACTION * (t_end - float(traj.t[0])), t_end, TAIL_SAMPLES)
    ks = traj._segment(ts)
    # each sample divided by the size of its node's jet: both are in that
    # node's scale, so no magnitude is compared across scales here
    size = np.max(np.abs(traj.states[ks]), axis=1)
    if not np.all(size > 0.0):
        return UNCLASSIFIED
    jets = traj._jets(ts, ks)
    phi, dphi, ddphi = (jets / size[:, None]).T
    # true magnitudes in log form: log |value| plus the node's log scale
    with np.errstate(divide="ignore"):
        log_phi, log_dphi, log_ddphi = (np.log(np.abs(jets)) + traj.log_scale[ks, None]).T
    sign = 1.0 if phi[np.argmax(log_phi)] > 0 else -1.0
    phi_n, dphi_n, ddphi_n = sign * phi, sign * dphi, sign * ddphi
    if not np.all(phi_n > -JET_EPS):
        return UNCLASSIFIED
    if np.all(phi_n * dphi_n <= JET_EPS):
        pattern = np.all(dphi_n <= JET_EPS) and np.all(ddphi_n >= -JET_EPS)
        half = TAIL_SAMPLES // 2
        shrinking = (
            np.max(log_dphi[half:]) <= np.max(log_dphi[:half])
            and np.max(log_ddphi[half:]) <= np.max(log_ddphi[:half])
        )
        if pattern and shrinking:
            return TYPE_2_1
    if np.all(phi_n * dphi_n >= -JET_EPS) and np.all(phi_n > JET_EPS):
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
        cls = classify_lemma21(traj, zeros=zeros)
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

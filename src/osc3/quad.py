"""Adaptive quadrature: Simpson for single integrals and cumulative tables,
Gauss-Kronrod panels for weighted series along a grid.

The integrator is the classic adaptive Simpson scheme with Richardson
extrapolation: a panel is accepted when the two-half refinement agrees with
the single-panel estimate to 15x the local tolerance.  Tolerances mix an
absolute share (distributed by panel width) with a relative term, so both
tiny and astronomically large integrals come out with ~9 correct digits.

The refinement runs as one loop over an explicit task stack, not as a
recursion, so its cost does not depend on how deep the caller's stack is.
The left half is refined before the right and the two halves' results are
added once, when both are done, which is the order a depth-first recursion
would give.  ``MAX_DEPTH`` caps how many times a panel between breakpoints
may be halved; a panel that hits it unconverged sets the result's
``warning`` flag.

Narrow features (the bump-train coefficients used in the worked fixtures
concentrate all their mass in intervals of width n^-5) are invisible to any
sampling scheme unless the caller says where they are, so both entry points
take an optional ``breakpoints`` sequence and split panels there.  Interior
panel midpoints then live at dyadic offsets of those edges, which keeps
sample points off the integer lattice where piecewise definitions switch.

Weighted series, int_a^{t_k} (t_k - tau)^m f(tau) dtau at every point t_k
of a grid, take a second path through the same entry point (``power=m``):
one pass over panels whose edges are ``a``, the grid points and the
breakpoints.  Each panel is evaluated once with Gauss-Kronrod 7/15 for
every t_k to its right, the weights (t_k - tau)^m applied with numpy; the
panel that ends at t_k, where the weight is not smooth unless m is an
integer, gets Gauss-Jacobi rules of orders 7 and 15 for that weight
instead.  A panel that misses the tolerance for any t_k it feeds is
bisected, until the depth cap or until its halves show that rounding, not
the rule, limits it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9
MAX_DEPTH = 60
# Panels are bisected this many times before the Richardson error estimate
# may be believed.  A single Simpson estimate over several periods of an
# oscillatory integrand can agree with its own refinement by accident; a
# few forced splits make that coincidence vanishingly unlikely.
MIN_DEPTH = 3

# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK's qk15): the 15 Kronrod nodes in
# increasing order, whose odd-indexed entries are the 7 Gauss nodes
_XK_HALF = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
            0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
            0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
            0.207784955007898467600689403773245)
_WK_HALF = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
            0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
            0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
            0.204432940075298892414161999234649)
_WG_HALF = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
            0.381830050505118944950369775488975)
_XK = np.array([-x for x in _XK_HALF] + [0.0] + list(reversed(_XK_HALF)))
_WK = np.array(list(_WK_HALF) + [0.209482141084727828012999174891714] + list(reversed(_WK_HALF)))
_WG = np.array(list(_WG_HALF) + [0.417959183673469387755102040816327] + list(reversed(_WG_HALF)))
# A bisected panel is limited by rounding when its halves reproduce its
# value to this relative accuracy without a smaller error estimate
# (QUADPACK's test, Piessens et al. 1983).  Like the Simpson estimate, the
# test is believed only on a panel already bisected MIN_DEPTH times: on a
# wide panel a good Kronrod value beside a poor Gauss one can pass it.
ROUNDOFF_REL = 1e-5


@dataclass
class QuadResult:
    value: float | np.ndarray  # one value per right end for a weighted series
    warning: bool  # True when some panel stopped refining unconverged
    evals: int  # integrand calls (Simpson: 3 per panel plus 2 per refined node)


def _panel_edges(a: float, b: float, breakpoints: Iterable[float] | None):
    """``a``, the distinct breakpoints strictly inside (a, b) in order, ``b``."""
    inside = {float(x) for x in breakpoints or () if a < x < b}
    return [a, *sorted(inside), b]


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    *,
    breakpoints: Sequence[float] | None = None,
    power: float | None = None,
) -> QuadResult:
    """Integrate ``f`` over ``[a, b]``.

    ``breakpoints`` are interior points where panels must split (feature
    edges, discontinuities of a derivative, bump boundaries).  The depth cap
    turns into a ``warning`` flag on the result rather than an exception.

    With ``power`` m > -1, ``b`` is a nondecreasing sequence of right ends
    t_k >= a and the value is the array of int_a^{t_k} (t_k - tau)^m f(tau)
    dtau, all from one pass of the Gauss-Kronrod panel engine.
    """
    if power is not None:
        return _weighted_series(f, a, b, power, tol, breakpoints)
    if b < a:
        raise ValueError("integrate_adaptive requires a <= b")
    if a == b:
        return QuadResult(0.0, False, 0)
    edges = _panel_edges(a, b, breakpoints)
    total = b - a
    value = 0.0
    evals = 0
    warning = False
    for lo, hi in zip(edges[:-1], edges[1:]):
        fa = f(lo)
        m = 0.5 * (lo + hi)
        fm = f(m)
        fb = f(hi)
        evals += 3
        whole = (hi - lo) * (fa + 4.0 * fm + fb) / 6.0  # Simpson's rule
        # a task is a node to refine, or None: add the last two results
        tasks = [(lo, m, hi, fa, fm, fb, whole, (hi - lo) / total, 0)]
        push, pop = tasks.append, tasks.pop
        done = []
        while tasks:
            task = pop()
            if task is None:
                last = done.pop()
                done[-1] = done[-1] + last
                continue
            x0, xm, x1, f0, fxm, f1, whole, frac, depth = task
            lm = 0.5 * (x0 + xm)
            rm = 0.5 * (xm + x1)
            flm = f(lm)
            frm = f(rm)
            evals += 2
            left = (xm - x0) * (f0 + 4.0 * flm + fxm) / 6.0
            right = (x1 - xm) * (fxm + 4.0 * frm + f1) / 6.0
            s2 = left + right
            err = s2 - whole
            # 15x the local tolerance: an absolute share proportional to
            # panel width, plus relative slack
            allow = 15.0 * (tol * frac + tol * abs(s2))
            if abs(err) <= allow and depth >= MIN_DEPTH or depth >= MAX_DEPTH:
                if depth >= MAX_DEPTH and abs(err) > allow:
                    warning = True
                done.append(s2 + err / 15.0)
            else:
                half = 0.5 * frac
                push(None)
                push((xm, rm, x1, fxm, frm, f1, right, half, depth + 1))
                push((x0, lm, xm, f0, flm, fxm, left, half, depth + 1))
        value += done[0]
    return QuadResult(value, warning, evals)


@functools.lru_cache(maxsize=64)
def gauss_jacobi(n: int, m: float) -> tuple:
    """Nodes and weights of the n-point Gauss rule on [-1, 1] for the
    weight (1 - x)^m, m > -1: the eigenvalues of the Jacobi matrix and the
    squared first components of its eigenvectors (Golub & Welsch 1969).
    Cached, so the arrays are read-only."""
    k = np.arange(1.0, n)
    s = 2.0 * k + m
    diag = np.empty(n)
    diag[0] = -m / (m + 2.0)
    diag[1:] = -m * m / (s * (s + 2.0))
    off = 2.0 * k * (k + m) / (s * np.sqrt(s * s - 1.0))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 ** (m + 1.0) / (m + 1.0) * vecs[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _weighted_series(f, a, ends, m, tol, breakpoints) -> QuadResult:
    """int_a^{t_k} (t_k - tau)^m f(tau) dtau for every t_k in ``ends``.

    A panel [lo, hi] feeds every t_k >= hi.  Its value and error estimate
    for t_k > hi come from Gauss-Kronrod 7/15; for t_k == hi from
    Gauss-Jacobi 15 and 7 with the weight (hi - tau)^m, which the last
    sub-panel below a grid point keeps as it is bisected.  The panel passes
    when every estimate meets 15 tol (width / (t_k - a) + |value|), the
    tolerance split of the Simpson path.
    """
    if m <= -1.0:
        raise ValueError(f"power must exceed -1, got {m!r}")
    t = np.asarray(ends, dtype=float)
    if np.any(t[1:] < t[:-1]) or (len(t) and t[0] < a):
        raise ValueError("a weighted series needs nondecreasing right ends >= a")
    out = np.zeros(len(t))
    if not len(t) or t[-1] == a:
        return QuadResult(out, False, 0)
    jacobi = (gauss_jacobi(7, m), gauss_jacobi(15, m))
    evals = 0
    warning = False

    def panel(lo, hi, fed, n_end):
        """Values and error estimates of [lo, hi] for the ends ``fed``, the
        first ``n_end`` of which equal hi."""
        nonlocal evals
        hw = 0.5 * (hi - lo)
        mid = lo + hw
        vals = np.empty(len(fed))
        errs = np.empty(len(fed))
        if n_end:
            (x7, w7), (x15, w15) = jacobi
            g7 = [f(x) for x in (mid + hw * x7).tolist()]
            g15 = [f(x) for x in (mid + hw * x15).tolist()]
            evals += 22
            scale = hw ** (m + 1.0)
            v15 = scale * float(w15 @ g15)
            vals[:n_end] = v15
            errs[:n_end] = abs(v15 - scale * float(w7 @ g7))
        if n_end < len(fed):
            nodes = mid + hw * _XK
            gv = np.array([f(x) for x in nodes.tolist()])
            evals += 15
            w = (fed[n_end:, None] - nodes) ** m
            kron = hw * (w @ (_WK * gv))
            vals[n_end:] = kron
            errs[n_end:] = np.abs(kron - hw * (w[:, 1::2] @ (_WG * gv[1::2])))
        return vals, errs

    edges = _panel_edges(a, float(t[-1]), [*(breakpoints or ()), *t.tolist()])
    for lo0, hi0 in zip(edges[:-1], edges[1:]):
        j0 = int(np.searchsorted(t, hi0, "left"))
        fed = t[j0:]
        n_end = int(np.searchsorted(t, hi0, "right")) - j0
        span = fed - a
        tasks = [(lo0, hi0, n_end, 0, *panel(lo0, hi0, fed, n_end))]
        while tasks:
            lo, hi, ends_here, depth, vals, errs = tasks.pop()
            bad = errs > 15.0 * tol * ((hi - lo) / span + np.abs(vals))
            if not bad.any():
                out[j0:] += vals
                continue
            if depth >= MAX_DEPTH:
                warning = True
                out[j0:] += vals
                continue
            mid = 0.5 * (lo + hi)
            left = panel(lo, mid, fed, 0)
            right = panel(mid, hi, fed, ends_here)
            halves = left[0] + right[0]
            if (
                depth >= MIN_DEPTH
                and np.all(np.abs(halves - vals)[bad] <= ROUNDOFF_REL * np.abs(halves[bad]))
                and np.all((left[1] + right[1])[bad] >= errs[bad])
            ):
                warning = True
                out[j0:] += halves
                continue
            tasks.append((mid, hi, ends_here, depth + 1, *right))
            tasks.append((lo, mid, 0, depth + 1, *left))
    return QuadResult(out, warning, evals)


@dataclass
class CumulativeTable:
    """Running integral of f from ``a`` along a grid.

    ``grid[0] == a`` and ``values[0] == 0`` always hold; if the caller's grid
    starts past ``a``, the start point is prepended.
    """

    grid: np.ndarray
    values: np.ndarray
    a: float
    tol: float
    warning: bool


def cumulative(
    f: Callable[[float], float],
    a: float,
    grid: Sequence[float],
    tol: float = DEFAULT_TOL,
    *,
    breakpoints: Sequence[float] | None = None,
) -> CumulativeTable:
    """Cumulative integral over a nondecreasing grid, one panel per gap.

    Cost is linear in the grid: each inter-point panel is integrated once and
    summed, rather than restarting from ``a`` for every grid point.
    """
    pts = [float(x) for x in grid]
    if any(y < x for x, y in zip(pts, pts[1:])):
        raise ValueError("cumulative requires a nondecreasing grid")
    if not pts or pts[0] < a:
        raise ValueError("cumulative requires grid[0] >= a")
    if pts[0] > a:
        pts = [a] + pts
    values = [0.0]
    warning = False
    running = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        res = integrate_adaptive(f, lo, hi, tol, breakpoints=breakpoints)
        warning = warning or res.warning
        running += res.value
        values.append(running)
    return CumulativeTable(np.asarray(pts), np.asarray(values), a, tol, warning)

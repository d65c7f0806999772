"""Adaptive quadrature on Gauss-Kronrod panels: one engine for single
integrals, cumulative tables and weighted series along a grid.

The engine computes int_a^{t_k} (t_k - tau)^m f(tau) dtau for every point
t_k of a nondecreasing grid in one pass over panels whose edges are ``a``,
the grid points and the caller's breakpoints.  A panel feeds every t_k to
its right and is evaluated once with Gauss-Kronrod 7/15 (QUADPACK's qk15,
Piessens et al. 1983), the weights (t_k - tau)^m applied with numpy.  On
the panel that ends at t_k the weight is not smooth unless m is a
nonnegative integer, so for any other m that panel gets Gauss-Jacobi rules
of orders 7 and 15 for the weight instead, built only when first needed.
A single integral is the one-point series at m = 0, and a cumulative table
the series at m = 0 along its grid.

Tolerances mix an absolute share, distributed by panel width, with a
relative term, so both tiny and astronomically large integrals come out
with ~9 correct digits.  A panel that misses the tolerance for any t_k it
feeds is bisected.  Refinement runs as one loop over an explicit task
stack, so its cost does not depend on how deep the caller's stack is.  It
stops at ``MAX_DEPTH`` halvings of a panel between edges, or when a
panel's halves show that rounding, not the rule, limits it; either way the
result's ``warning`` flag is set.

Narrow features (the bump-train coefficients used in the worked fixtures
concentrate all their mass in intervals of width n^-5) are invisible to any
sampling scheme unless the caller says where they are, so the engine takes
an optional ``breakpoints`` sequence and splits panels there.  The Kronrod
nodes lie inside each panel, so samples stay off the edges, where
piecewise definitions switch.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9
MAX_DEPTH = 60
# The roundoff test below is believed only on a panel already bisected this
# many times: on a wide panel a good Kronrod value beside a poor Gauss one
# can pass it by accident.
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
# value to this relative accuracy and either their error estimate is no
# smaller or the panel is too narrow to split in double precision
# (QUADPACK's tests in dqagse, Piessens et al. 1983).
ROUNDOFF_REL = 1e-5
_NARROW = 1.0 + 100.0 * math.ulp(1.0)


@dataclass
class QuadResult:
    value: float | np.ndarray  # a float for one interval, an array for a series
    warning: bool  # True when some panel stopped refining unconverged
    evals: int  # integrand calls: 15 per Kronrod panel, 22 per Gauss-Jacobi one


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
    dtau, all from one pass of the panel engine.  Without it the value is
    the engine's one-point series at m = 0.
    """
    if power is not None:
        return _weighted_series(f, a, b, power, tol, breakpoints)
    res = _weighted_series(f, a, [b], 0.0, tol, breakpoints)
    return QuadResult(float(res.value[0]), res.warning, res.evals)


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
    come from Gauss-Kronrod 7/15, except for t_k == hi when m is not a
    nonnegative integer: there they come from Gauss-Jacobi 15 and 7 with
    the weight (hi - tau)^m, which the last sub-panel below a grid point
    keeps as it is bisected.  The panel passes when every estimate meets
    15 tol (width / (t_k - a) + |value|).
    """
    if not -1.0 < m < math.inf:
        raise ValueError(f"power must be finite and exceed -1, got {m!r}")
    t = np.asarray(ends, dtype=float)
    # plain floats, and builtin any/all over lists in the loop below: numpy's
    # any/all run Python frames of their own, and on a cold first call an
    # ABC subclass check, which a caller near the recursion limit may not have
    ts = t.tolist()
    if not (math.isfinite(a) and all(map(math.isfinite, ts))):
        raise ValueError("quadrature needs a finite start and finite right ends")
    if any(map(operator.lt, ts[1:], ts)) or (ts and ts[0] < a):
        raise ValueError("quadrature needs nondecreasing right ends >= a")
    out = np.zeros(len(t))
    if not len(t) or t[-1] == a:
        return QuadResult(out, False, 0)
    # a polynomial weight needs no rule of its own at the right end
    jacobi = not float(m).is_integer()
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
        k = n_end if jacobi else 0
        if k:
            (x7, w7), (x15, w15) = gauss_jacobi(7, m), gauss_jacobi(15, m)
            g7 = [f(x) for x in (mid + hw * x7).tolist()]
            g15 = [f(x) for x in (mid + hw * x15).tolist()]
            evals += 22
            scale = hw ** (m + 1.0)
            v15 = scale * float(w15 @ g15)
            vals[:k] = v15
            errs[:k] = abs(v15 - scale * float(w7 @ g7))
        if k < len(fed):
            nodes = mid + hw * _XK
            gv = np.array([f(x) for x in nodes.tolist()])
            evals += 15
            if m:
                w = (fed[k:, None] - nodes) ** m
                kron = hw * (w @ (_WK * gv))
                gauss = hw * (w[:, 1::2] @ (_WG * gv[1::2]))
            else:  # the weight is 1: one value serves every end
                kron = hw * float(_WK @ gv)
                gauss = hw * float(_WG @ gv[1::2])
            vals[k:] = kron
            errs[k:] = np.abs(kron - gauss)
        return vals, errs

    edges = _panel_edges(a, float(t[-1]), [*(breakpoints or ()), *t.tolist()])
    for lo0, hi0 in zip(edges[:-1], edges[1:]):
        j0 = int(t.searchsorted(hi0, "left"))
        fed = t[j0:]
        n_end = int(t.searchsorted(hi0, "right")) - j0
        span = fed - a
        tasks = [(lo0, hi0, n_end, 0, *panel(lo0, hi0, fed, n_end))]
        while tasks:
            lo, hi, ends_here, depth, vals, errs = tasks.pop()
            bad = errs > 15.0 * tol * ((hi - lo) / span + np.abs(vals))
            if not any(bad.tolist()):
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
                and all((np.abs(halves - vals)[bad] <= ROUNDOFF_REL * np.abs(halves[bad])).tolist())
                and (
                    all(((left[1] + right[1])[bad] >= errs[bad]).tolist())
                    or max(abs(lo), abs(hi)) <= _NARROW * abs(mid)
                )
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
    """Cumulative integral over a nondecreasing grid: the engine's series at
    m = 0, so each panel is integrated once for the whole table."""
    pts = [float(x) for x in grid]
    if any(y < x for x, y in zip(pts, pts[1:])):
        raise ValueError("cumulative requires a nondecreasing grid")
    if not pts or pts[0] < a:
        raise ValueError("cumulative requires grid[0] >= a")
    if pts[0] > a:
        pts = [a] + pts
    res = integrate_adaptive(f, a, pts, tol, breakpoints=breakpoints, power=0)
    return CumulativeTable(np.asarray(pts), res.value, a, tol, res.warning)

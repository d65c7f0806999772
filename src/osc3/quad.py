"""Adaptive quadrature on Gauss-Kronrod panels: one engine for single
integrals, cumulative tables and weighted series along a grid.

The engine computes int_a^{t_k} (t_k - tau)^m f(tau) dtau for every point
t_k of a nondecreasing grid in one pass over panels whose edges are ``a``,
the grid points and the caller's breakpoints.  A panel feeds every t_k to
its right and is evaluated once with Gauss-Kronrod 7/15 (QUADPACK's qk15,
Piessens et al. 1983), the weights (t_k - tau)^m applied with numpy.  On
the panel that ends at t_k the weight is not smooth unless m is a
nonnegative integer, so for any other m that panel gets Gauss-Jacobi rules
of orders 7 and 15 for the weight instead, built once per m and cached.
A single integral is the one-point series at m = 0, and a cumulative table
the series at m = 0 along its grid.

Tolerances mix an absolute share, distributed by panel width, with a
relative term, so both tiny and astronomically large integrals come out
with ~9 correct digits.  A panel that misses the tolerance for any t_k it
feeds is bisected.  It stops at ``MAX_DEPTH`` halvings of a panel between
edges, when a panel's halves show that rounding, not the rule, limits it,
or once the pass has made ``MAX_EVALS`` integrand calls; any of these sets
the result's ``warning`` flag.  The budget bounds a pass whose integrand
is rounding noise, which no tolerance and no roundoff test can pass: past
it the panels already split are evaluated once more and none is bisected.

Refinement runs a level at a time over runs of panels.  A run's nodes go
to the integrand in one sweep, one float per call; its values, error
estimates, weights (t_k - tau)^m, tolerance tests and stops are array
operations over every (panel, fed end) pair; and the halves of its failing
panels form the next level's runs.  Base intervals enter, and each level
is split, in runs of about ``_RUN`` pairs and nodes, which wait on an
explicit stack, so memory stays bounded whatever the number of panels (no
weight block beyond ``_RUN`` x 15 doubles) and the cost does not depend on
how deep the caller's stack is.  The decisions are the ones a
panel-by-panel loop makes; only the order of evaluation and of summation
differs.

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
from typing import Callable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9
MAX_DEPTH = 60
MAX_EVALS = 2 ** 23  # integrand calls after which a pass bisects no panel
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
# Refinement holds a value and an estimate for every (panel, fed end) pair,
# 15 nodes for every panel, and weights (t_k - tau)^m for 15 nodes a pair.
# Panels are refined in runs of about this many pairs and nodes, and a
# weight block covers at most this many pairs: 61,440 doubles.
_RUN = 2 ** 12


@dataclass
class QuadResult:
    value: float | np.ndarray  # a float for one interval, an array for a series
    warning: bool  # True when some panel stopped refining unconverged
    # integrand calls: 15 per Kronrod panel, 22 per Gauss-Jacobi one, 37 for
    # a Gauss-Jacobi panel that also feeds later ends
    evals: int


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
    and the evaluation budget turn into a ``warning`` flag on the result
    rather than an exception.

    With ``power`` m > -1, ``b`` is a nondecreasing sequence of right ends
    t_k >= a and the value is the array of int_a^{t_k} (t_k - tau)^m f(tau)
    dtau, all from one pass of the panel engine.  Without it the value is
    the engine's one-point series at m = 0.

    A panel [lo, hi] feeds every t_k >= hi.  Its value and error estimate
    come from Gauss-Kronrod 7/15, except for t_k == hi when m is not a
    nonnegative integer: there they come from Gauss-Jacobi 15 and 7 with
    the weight (hi - tau)^m, which the last sub-panel below a grid point
    keeps as it is bisected.  The panel passes when every estimate meets
    15 tol (width / (t_k - a) + |value|).
    """
    m = 0.0 if power is None else power
    if not -1.0 < m < math.inf:
        raise ValueError(f"power must be finite and exceed -1, got {m!r}")
    t = np.asarray([b] if power is None else b, dtype=float)
    # plain floats and builtin any/all here; below, one loop that calls no
    # helper, only ufuncs (maximum and minimum standing in for the logical
    # or/and reductions), ndarray methods and numpy's C functions, because
    # every frame, and numpy's Python-level functions, logical reductions
    # and cold first calls, use stack that a caller near the recursion
    # limit may not have
    ts = t.tolist()
    if not (math.isfinite(a) and all(map(math.isfinite, ts))):
        raise ValueError("quadrature needs a finite start and finite right ends")
    if any(map(operator.lt, ts[1:], ts)) or (ts and ts[0] < a):
        raise ValueError("quadrature needs nondecreasing right ends >= a")
    n = len(t)
    out = np.zeros(n)
    if not n or t[-1] == a:
        return QuadResult(0.0 if power is None else out, False, 0)
    span = t - a
    # panel edges: a, the distinct breakpoints and grid points strictly
    # inside (a, t[-1]) in order, and t[-1]
    inner = np.concatenate((np.array([*(breakpoints or ())], dtype=float), t))
    inner.sort()
    inner = inner[(a < inner) & (inner < ts[-1])]
    edges = np.concatenate(([a], inner[:1], inner[1:][inner[1:] != inner[:-1]], ts[-1:]))
    j0 = t.searchsorted(edges[1:], "left")
    # a polynomial weight needs no rule of its own at the right end
    if float(m).is_integer():
        k = np.zeros(len(j0), dtype=j0.dtype)
    else:
        k = t.searchsorted(edges[1:], "right") - j0
        (x7, w7), (x15, w15) = gauss_jacobi(7, m), gauss_jacobi(15, m)
        xj = np.concatenate((x7, x15))
    base = (edges[:-1], edges[1:], j0, k)
    evals = 0
    warning = False
    # consecutive base intervals in runs of about _RUN pairs and nodes
    size = n - j0 + 15
    block = (size.cumsum() - size) // _RUN
    cuts = [0, *((block[1:] != block[:-1]).nonzero()[0] + 1).tolist(), len(size)]
    for r0, r1 in zip(cuts, cuts[1:]):
        # each entry: a depth, panels [lo, hi] whose first k fed ends equal
        # hi, and, when they are the halves of panels bisected at least
        # MIN_DEPTH times, those panels' values, estimates and bad flags
        stack = [(0, [x[r0:r1] for x in base], None)]
        while stack:
            depth, (lo, hi, j0, k), halved = stack.pop()
            # the (panel, fed end) pairs, panel by panel: each pair's panel
            # and end, and each panel's first pair
            nfed = n - j0
            first = nfed.cumsum() - nfed
            pp = np.arange(len(j0)).repeat(nfed)
            pe = np.arange(len(pp)) - first[pp] + j0[pp]
            # every node of the run in one sweep, then the pairs' values
            hw = 0.5 * (hi - lo)
            centre = lo + hw
            jp = k.nonzero()[0]
            kron = k < nfed
            kp = kron.nonzero()[0] if len(jp) else slice(None)
            xk = centre[kp, None] + hw[kp, None] * _XK
            nodes = xk.ravel()
            if len(jp):
                nodes = np.concatenate((nodes, (centre[jp, None] + hw[jp, None] * xj).ravel()))
            xs = nodes.tolist()
            g = np.fromiter(map(f, xs), float, len(xs))
            evals += len(xs)
            gk = g[:xk.size].reshape(xk.shape)
            vals = np.empty(len(pp))
            errs = np.empty(len(pp))
            if len(jp):
                gj = g[xk.size:].reshape(len(jp), 22)
                scale = hw[jp] ** (m + 1.0)
                v15 = scale * (gj[:, 7:] @ w15)
                at_hi = pe < (j0 + k)[pp]
                qj = at_hi.nonzero()[0]
                row = ((k > 0).cumsum() - 1)[pp[qj]]
                vals[qj] = v15[row]
                errs[qj] = np.abs(v15 - scale * (gj[:, :7] @ w7))[row]
                qk = (~at_hi).nonzero()[0]
                row = (kron.cumsum() - 1)[pp[qk]]
            else:
                qk, row = slice(None), pp
            hk = hw[kp]
            if m:
                end = pe[qk]
                kv = np.empty(len(end))
                gv = np.empty(len(end))
                for s in range(0, len(end), _RUN):
                    r = row[s:s + _RUN]
                    # (t_k - tau)^m f(tau) at each pair's nodes
                    w = t[end[s:s + _RUN], None] - xk[r]
                    w **= m
                    w *= gk[r]
                    kv[s:s + _RUN] = hk[r] * (w @ _WK)
                    gv[s:s + _RUN] = hk[r] * (w[:, 1::2] @ _WG)
            else:  # the weight is 1: one value serves every end
                kv = (hk * (gk @ _WK))[row]
                gv = (hk * (gk[:, 1::2] @ _WG))[row]
            vals[qk] = kv
            errs[qk] = np.abs(kv - gv)
            if halved is not None:
                # the bisected panels are limited by rounding when, on every
                # bad pair, their halves agree with them and either estimate
                # no better or the panel is too narrow to split; the left
                # halves come first, each with the pairs of its panel
                h = len(lo) // 2
                p_vals, p_errs, p_bad = halved
                q = len(p_vals)
                halves = vals[:q] + vals[q:]
                same = ~p_bad | (np.abs(halves - p_vals) <= ROUNDOFF_REL * np.abs(halves))
                worse = ~p_bad | (errs[:q] + errs[q:] >= p_errs)
                narrow = np.maximum(np.abs(lo[:h]), np.abs(hi[h:])) <= _NARROW * np.abs(hi[:h])
                stop = np.minimum.reduceat(same, first[:h]) & (np.minimum.reduceat(worse, first[:h]) | narrow)
                if np.maximum.reduce(stop):
                    warning = True
                    at = stop[pp[:q]]
                    np.add.at(out, pe[:q][at], halves[at])
                    # those halves are counted: they pass below and add 0
                    at = np.concatenate((at, at))
                    vals[at] = errs[at] = 0.0
            bad = errs > 15.0 * tol * ((hi - lo)[pp] / span[pe] + np.abs(vals))
            fail = np.maximum.reduceat(bad, first)
            if not np.maximum.reduce(fail):
                np.add.at(out, pe, vals)
                continue
            if depth >= MAX_DEPTH or evals >= MAX_EVALS:
                warning = True
                np.add.at(out, pe, vals)
                continue
            failing = fail[pp]
            np.add.at(out, pe, np.where(failing, 0.0, vals))
            failed = fail.nonzero()[0]
            q = failing.nonzero()[0]
            lo, hi, j0, k, nfed = lo[failed], hi[failed], j0[failed], k[failed], nfed[failed]
            vals, errs, bad = vals[q], errs[q], bad[q]
            mid = 0.5 * (lo + hi)
            # bisect in runs of about _RUN pairs and nodes: the left halves,
            # none of which ends at a grid point, then the right ones, so the
            # halves' pairs are the panels' pairs twice over
            first = nfed.cumsum() - nfed
            size = 2 * (nfed + 15)
            block = (size.cumsum() - size) // _RUN
            cuts = [0, *((block[1:] != block[:-1]).nonzero()[0] + 1).tolist(), len(size)]
            for g0, g1 in zip(cuts, cuts[1:]):
                g = slice(g0, g1)
                qs = slice(first[g0], first[g1 - 1] + nfed[g1 - 1])
                kids = [np.concatenate((lo[g], mid[g])), np.concatenate((mid[g], hi[g])),
                        np.concatenate((j0[g], j0[g])), np.concatenate((0 * k[g], k[g]))]
                stack.append((depth + 1, kids, (vals[qs], errs[qs], bad[qs]) if depth >= MIN_DEPTH else None))
    return QuadResult(float(out[0]) if power is None else out, warning, evals)



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

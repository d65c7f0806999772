"""Adaptive Simpson quadrature with cumulative tables.

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
"""

from __future__ import annotations

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


@dataclass
class QuadResult:
    value: float
    warning: bool  # True when some panel hit the depth cap unconverged
    evals: int  # integrand calls: 3 per panel plus 2 per refined node


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
) -> QuadResult:
    """Integrate ``f`` over ``[a, b]``.

    ``breakpoints`` are interior points where panels must split (feature
    edges, discontinuities of a derivative, bump boundaries).  The depth cap
    turns into a ``warning`` flag on the result rather than an exception.
    """
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

"""References computed apart from osc3, with numpy and scipy only.

Nothing here imports osc3: each reference restates the equation or the
integral in its own terms, so a fault in osc3's expression compiler,
quadrature or stepper cannot make a reference agree with it by accident.

* ``bump_thm31b``: the THM31B functional of the bump-train fixture, with
  each bump integrated by Gauss-Legendre in the local coordinate
  s = tau - n, where the narrow window [0, n^-5] is exact in floating point.
* ``zero_counts``: zeros of phi for phi''' + p phi'' + q phi' + r phi = 0,
  integrated by scipy's DOP853 at rtol 1e-12 over short chunks, with every
  solution rescaled to unit norm between chunks (a positive rescaling of a
  solution of a linear homogeneous equation keeps its zeros).
"""

from __future__ import annotations

import math

import numpy as np

# Chunk length for the rescaled integration.  Over one chunk the growth
# factor is at most exp(max growth rate * CHUNK), far inside double range
# for every equation the benchmark integrates (rates below 10^3).
CHUNK = 0.05
# Dense-output samples per chunk when looking for sign changes.
SAMPLES_PER_CHUNK = 16


def bump_thm31b(ts, M: float, r0: float = 1.0, t0: float = 1.0, nodes: int = 40):
    """THM31B with alpha = 2 for p = bump train, q = 0, D = r0.

    S(t) = t^-3 [ r0 (t - t0)^4 / 4 - (1/3) sum_n int_bump (t - tau)^2 p_-(tau)^2 dtau ]
    with p_- = -M n^3 sin^2(n^5 pi s) on s = tau - n in [0, n^-5].

    Returns (S, scale): ``scale`` is t^-3 times the sum of the magnitudes of
    the two terms, the size against which a rounding-level tolerance is set.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    x01 = 0.5 * (x + 1.0)
    w01 = 0.5 * w
    values, scales = [], []
    for t in ts:
        t = float(t)
        d_term = r0 * (t - t0) ** 4 / 4.0
        pen = 0.0
        n = 1
        while n <= t:
            width = float(n) ** -5.0
            hi = min(width, t - n)
            if hi > 0.0:
                s = hi * x01
                pm2 = (M * n ** 3 * np.sin(n ** 5 * math.pi * s) ** 2) ** 2
                pen += hi * float(np.dot(w01, (t - n - s) ** 2 * pm2))
            n += 1
        values.append((d_term - pen / 3.0) / t ** 3)
        scales.append((abs(d_term) + pen / 3.0) / t ** 3)
    return np.array(values), np.array(scales)


def r_example31(t: float, M: float, N: float, gamma: float, beta: float) -> float:
    """The corrected r of the example31 fixture: N t^beta - min(0, G(u*))."""
    disc = M * M * t ** (2.0 * gamma) - 3.0 * M * gamma * t ** (gamma - 1.0)
    if disc < 0.0:
        return N * t ** beta
    u = (math.sqrt(disc) + M * t ** gamma) / 3.0
    g = u ** 3 - M * t ** gamma * u * u + M * gamma * t ** (gamma - 1.0) * u
    return N * t ** beta - min(0.0, g)


def zero_counts(coeffs, initial, t0: float, t_max: float, rtol: float = 1e-12):
    """Zero count and last zero of phi for each column of ``initial``.

    ``coeffs(t)`` returns (p, q, r) at t as scalars or as arrays with one
    entry per column; ``initial`` is a sequence of (phi, phi', phi'') states
    at t0.  A solution with phi(t0) == 0 counts t0 as its first zero, as a
    sampled sign test does.  Returns a list of (count, last_zero or None).
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    y = np.array(initial, dtype=float).T.copy()  # shape (3, k)
    k = y.shape[1]
    zeros = [[t0] if y[0, j] == 0.0 else [] for j in range(k)]

    def rhs(t, flat):
        s = flat.reshape(3, k)
        p, q, r = coeffs(t)
        return np.concatenate((s[1], s[2], -(p * s[2] + q * s[1] + r * s[0])))

    n_chunks = int(math.ceil((t_max - t0) / CHUNK))
    edges = [t0 + i * (t_max - t0) / n_chunks for i in range(n_chunks + 1)]
    y = y / np.max(np.abs(y), axis=0)
    for a, b in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(rhs, (a, b), y.ravel(), method="DOP853", rtol=rtol,
                        atol=rtol * 1e-3, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference integration failed on [{a}, {b}]: {sol.message}")
        grid = np.linspace(a, b, SAMPLES_PER_CHUNK + 1)
        phi = sol.sol(grid)[:k]  # shape (k, samples)
        for j in range(k):
            f = phi[j]
            for i in range(SAMPLES_PER_CHUNK):
                if f[i] != 0.0 and f[i] * f[i + 1] < 0.0:
                    zeros[j].append(brentq(lambda tt: sol.sol(tt)[j], grid[i], grid[i + 1],
                                           xtol=1e-13, rtol=1e-15))
        end = sol.y[:, -1].reshape(3, k)
        y = end / np.max(np.abs(end), axis=0)
    return [(len(z), z[-1] if z else None) for z in zeros]

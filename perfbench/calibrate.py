"""A fixed amount of work that does not involve osc3, timed between operations
to follow the speed of the machine.

The cores this benchmark runs on change speed by up to 40% in stretches of
10-60 s (README.md, "Noise"), so the raw median of one 30 s run follows the
machine as much as the program.  The worker runs ``calibrate()`` before the
first operation and after every operation; an operation's time is divided by
the mean of the two calibrations around it and multiplied by ``REF_S``, the
calibration's own median on the reference machine.  The result is the
operation's time at the reference machine's speed; a change to osc3 moves it
in proportion, since nothing here calls osc3.

The work mimics what osc3's hot paths make the interpreter do (quad's
Simpson refinement calling a lambda compiled by expr, with ``floor``,
``sin`` and ``if``): recursive Simpson refinement of such a lambda, all in
pure Python like those paths.  Its amount is fixed: the recursion depth does
not depend on a tolerance.
"""

from __future__ import annotations

import math
import time

# Median of calibrate()'s wall time on the reference machine (README.md).
# It sets the scale of the normalised times only.
REF_S = 0.15

_NS = {"floor": math.floor, "sin": math.sin, "exp": math.exp,
       "_pow": lambda a, b: a ** b}
_F = eval(  # the shape of a compiled bump-train coefficient
    "lambda t: ((-(3.0 * _pow(floor(t), 3.0)) * _pow(sin((_pow(floor(t), 2.0) * 3.141592653589793"
    " * (t - floor(t)))), 2.0)) if (1.0 if (t - floor(t)) < 0.3 else 0.0) != 0.0"
    " else (0.5 * t * exp(-t)))", _NS)


def _simpson(a, b, fa, fm, fb, depth):
    m = 0.5 * (a + b)
    flm, frm = _F(0.5 * (a + m)), _F(0.5 * (m + b))
    if depth == 0:
        return (b - a) / 12.0 * (fa + 4.0 * flm + 2.0 * fm + 4.0 * frm + fb)
    return (_simpson(a, m, fa, flm, fm, depth - 1)
            + _simpson(m, b, fm, frm, fb, depth - 1))


def _work() -> float:
    s = 0.0
    for k in range(32):
        a = 1.0 + 0.125 * k
        b = a + 0.125
        s += _simpson(a, b, _F(a), _F(0.5 * (a + b)), _F(b), 11)
    return s


def calibrate() -> tuple[float, float]:
    """Run the fixed work once; return its (wall, cpu) seconds."""
    w0, c0 = time.perf_counter(), time.process_time()
    _work()
    return time.perf_counter() - w0, time.process_time() - c0


if __name__ == "__main__":
    import statistics

    walls = [calibrate()[0] for _ in range(20)]
    print(f"calibrate(): median {statistics.median(walls):.4f} s over 20, "
          f"min {min(walls):.4f} s, max {max(walls):.4f} s")

"""Equations whose oscillation is known exactly, against every verdict.

Constant coefficients: every solution of phi''' + p phi'' + q phi' + r phi = 0
is a combination of t^k e^(lambda t) over the roots of
lambda^3 + p lambda^2 + q lambda + r.  With three real roots such a
combination has at most two zeros, so no criterion may APPLY and no solution
may show oscillatory evidence.  With p = 0 the roots are non-real exactly when
r > (2/(3 sqrt 3)) (-q)^(3/2), and Lazer's integral is that difference times
t - t0, so its verdict must follow the sign of the difference; and since the
three theorems generalize Lazer's criterion, each of them applies wherever
it does.

Euler equations t^3 phi''' + a t^2 phi'' + b t phi' + c phi = 0 have
p = a/t, q = b/t^2, r = c/t^3 and minimum function D(1)/t^3: every criterion
integral converges, so none may APPLY.

The cases come from seeded generators and keep a margin from every
boundary: from a double root, from a zero Lazer difference, and from r = 0
and q = 0.
"""

import json
import math

import numpy as np

from osc3.cli import main
from osc3.coeffs import build_model
from osc3.ode import oscillation_report

LAZER_CONST = 2.0 / (3.0 * math.sqrt(3.0))  # at p = 0, q <= 0: D = r - LAZER_CONST (-q)^(3/2)
MARGIN = 0.3  # least gap between two real roots, and least |Im| of a complex pair
LAZER_MARGIN = 0.05  # least |r - LAZER_CONST (-q)^(3/2)|


def _coefficients(roots):
    """(p, q, r) of the monic cubic with these roots."""
    c = np.real(np.poly(roots))
    return float(c[1]), float(c[2]), float(c[3])


def _nonreal(p, q, r):
    return bool(np.any(np.abs(np.roots([1.0, p, q, r]).imag) > 1e-9))


def _constant_cases(seed, n):
    """n cases as ((p, q, r), has a complex pair), alternating between three
    real roots (one negative and two positive, so r > 0 and q may be <= 0)
    and a negative root with a complex pair, kept only when q <= -0.1."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n:
        lam = -rng.uniform(0.5, 3.0)
        if len(cases) % 2 == 0:
            lo = rng.uniform(MARGIN, 2.5)
            cases.append((_coefficients([lam, lo, lo + rng.uniform(MARGIN, 2.0)]), False))
        else:
            a, b = rng.uniform(0.5, 2.0), rng.uniform(MARGIN, 1.5)
            p, q, r = _coefficients([lam, complex(a, b), complex(a, -b)])
            if q <= -0.1:
                cases.append(((p, q, r), True))
    return cases


def _verdicts(capsys, p_src, q_src, r_src, theorems="all"):
    return _reports(capsys, ["--p", p_src, "--q", q_src, "--r", r_src, "--theorem", theorems])


def _reports(capsys, source_args):
    assert main(["check", *source_args]) == 0
    reports = json.loads(capsys.readouterr().out)["theorem_reports"]
    return {rep["theorem"]: rep["overall"] for rep in reports}


def _generalized(verdicts):
    """Lazer's criterion applying implies every theorem applies."""
    if verdicts["LAZER"] == "APPLIES":
        assert all(verdicts[thm] == "APPLIES" for thm in ("THM31", "THM32", "THM33")), verdicts


def test_constant_coefficients_apply_only_with_non_real_roots(capsys):
    applied = 0
    for (p, q, r), complex_pair in _constant_cases(11, 24):
        assert _nonreal(p, q, r) == complex_pair
        verdicts = _verdicts(capsys, repr(p), repr(q), repr(r))
        if "APPLIES" in verdicts.values():
            assert complex_pair, ((p, q, r), verdicts)
            applied += 1
    assert applied >= 6


def test_lazer_follows_the_sign_of_its_difference(capsys):
    rng = np.random.default_rng(3)
    seen = set()
    for k in range(12):
        sign = 1.0 if k % 2 else -1.0
        while True:
            q = -rng.uniform(0.2, 3.0)
            diff = sign * rng.uniform(LAZER_MARGIN, 1.0)
            r = LAZER_CONST * (-q) ** 1.5 + diff
            if r >= 0.1:
                break
        assert _nonreal(0.0, q, r) == (diff > 0)
        verdicts = _verdicts(capsys, "0", repr(q), repr(r))
        assert verdicts["LAZER"] == ("APPLIES" if diff > 0 else "DOES_NOT_APPLY"), (q, r)
        _generalized(verdicts)
        seen.add(verdicts["LAZER"])
    assert seen == {"APPLIES", "DOES_NOT_APPLY"}
    verdicts = _reports(capsys, ["--fixture", "lazer", "--theorem", "all"])
    assert verdicts["LAZER"] == "APPLIES"
    _generalized(verdicts)


def test_euler_equations_never_apply(capsys):
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c = rng.uniform(-3.0, 3.0), -rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        verdicts = _verdicts(capsys, f"{a!r}/t", f"{b!r}/t^2", f"{c!r}/t^3")
        assert "APPLIES" not in verdicts.values(), ((a, b, c), verdicts)


def test_oscillatory_evidence_only_with_non_real_roots():
    evidence = 0
    for (p, q, r), complex_pair in _constant_cases(23, 16):
        report = oscillation_report(build_model(repr(p), repr(q), repr(r)), 30.0, n_random=2)
        if report.has_oscillatory_evidence:
            assert complex_pair, (p, q, r)
            evidence += 1
    assert evidence >= 4

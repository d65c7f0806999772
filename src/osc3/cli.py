"""Command line interface.

Four subcommands: `check` evaluates the theorem conditions and writes a
JSON report (optionally a CSV of criterion trajectories), `verify`
integrates the equation directly and classifies solutions, `sweep` runs
the checks over a parameter grid and writes one CSV row per point, and
`riccati` runs the comparison harness on a named fixture.

Reports carry the full effective configuration and the package version so
a run can be reproduced from its own output.  All output is deterministic:
no timestamps, sorted JSON keys, fixed seeds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .coeffs import p_minus
from .expr import compile_fn  # noqa: F401  -- perfbench's tracer test patches and restores cli.compile_fn
from .fixtures import FIXTURES, Fixture, get_fixture
from .kamenev import LimsupPolicy, TheoremReport, theorem_verdict
from .ode import MIN_ZEROS, OdeControls, count_zeros, integrate_third_order, oscillation_report
from .riccati import AS_WRITTEN, LINEARIZED, RiccatiProblem, comparison_check

_THEOREM_KEYS = {"lazer": "LAZER", "thm31": "THM31", "thm32": "THM32", "thm33": "THM33"}
_CANONICAL_ORDER = ("LAZER", "THM31", "THM32", "THM33")


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"--param expects name=value, got {item!r}")
        name, _, val = item.partition("=")
        name = name.strip()
        if not name:
            raise ValueError(f"--param expects name=value, got {item!r}")
        out[name] = float(val)
    return out


def _parse_theorems(text: str | None, default: tuple) -> list:
    if not text or text.strip().lower() == "all":
        chosen = list(default)
    else:
        chosen = []
        for piece in text.split(","):
            key = piece.strip().lower()
            if key not in _THEOREM_KEYS:
                raise ValueError(f"unknown theorem {piece!r}; use thm31, thm32, thm33, lazer, or all")
            chosen.append(_THEOREM_KEYS[key])
    return [t for t in _CANONICAL_ORDER if t in chosen]


def _open_output(path: str):
    """Open ``path`` for writing as a new file.  An existing regular file is
    unlinked first, not truncated: ext4 starts writing back a file that was
    truncated to zero and rewritten as soon as it is closed, and on a busy
    disk that close waits up to 0.2 s; a new file is written back later."""
    try:
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
            os.unlink(path)
    except OSError:
        pass  # missing or not removable: open() reports any real error
    return open(path, "w", encoding="utf-8", newline="")


def _dump_json(payload: dict, path: str | None) -> None:
    """Write ``payload`` as sorted, indented JSON.  A result dataclass in it
    is written as the dict of its fields, so report keys are field names."""
    text = json.dumps(payload, sort_keys=True, indent=2, default=asdict) + "\n"
    if path:
        with _open_output(path) as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _theorem_dict(rep: TheoremReport) -> dict:
    """The report without its trajectories, which go to the CSV."""
    return {
        "theorem": rep.theorem,
        "alpha": rep.alpha,
        "overall": rep.overall,
        "conditions": rep.condition_results,
        "grid": rep.grid,
        "policy": rep.policy,
        "warnings": rep.warnings,
    }


def _write_trajectory_csv(path: str, reports) -> None:
    with _open_output(path) as f:
        writer = csv.writer(f, lineterminator="\r\n")
        writer.writerow(["t", "S", "criterion_id", "alpha"])
        for rep in reports:
            for letter in sorted(rep.trajectories):
                traj = rep.trajectories[letter]
                for t, s in zip(traj.t, traj.values):
                    writer.writerow([repr(float(t)), repr(float(s)), traj.criterion_id,
                                     "" if traj.alpha is None else repr(float(traj.alpha))])


# Fixture fields and the flags that override them
_FIELD_FLAGS = (("d_src", "d_override"), ("alpha", "alpha"), ("alpha33", "alpha33"),
                ("grid_ratio", "grid_ratio"), ("grid_count", "grid_count"))


def _fixture(args, params: dict) -> Fixture:
    """The one problem a command works on: the named fixture with ``params``
    as overrides, or an unnamed one built from the raw sources.  The
    command's D, split, alpha and grid flags replace the matching fields."""
    if args.fixture:
        fixture = get_fixture(args.fixture)
        fixture = replace(fixture, defaults=tuple(fixture.params_with(params).items()))
    elif args.p is None or args.q is None or args.r is None:
        raise ValueError("--p, --q, --r are required unless --fixture is given")
    else:
        fixture = Fixture(None, "command-line sources", args.p, args.q, args.r,
                          defaults=tuple(params.items()), t0=args.t0)
    flags = {name: getattr(args, flag, None) for name, flag in _FIELD_FLAGS}
    split = (getattr(args, "split_p1", None), getattr(args, "split_p2", None))
    if split != (None, None):
        flags["split_srcs"] = split
    if flags["alpha33"] is None and flags["alpha"] is not None and flags["alpha"] > 1.0:
        flags["alpha33"] = flags["alpha"]
    return replace(fixture, **{name: v for name, v in flags.items() if v is not None})


def _policy(args) -> LimsupPolicy:
    flags = {name: getattr(args, name) for name in ("theta_scale", "growth_rho")}
    return LimsupPolicy(**{name: v for name, v in flags.items() if v is not None})


def _config(fixture: Fixture, extra: dict) -> dict:
    cfg = {
        "fixture": fixture.name,
        "p": fixture.p_src,
        "q": fixture.q_src,
        "r": fixture.r_src,
        "t0": fixture.t0,
        "params": dict(sorted(fixture.defaults)),
        "d_override": fixture.d_src,
        "split": list(fixture.split_srcs) if fixture.split_srcs else None,
    }
    cfg.update(extra)
    return cfg


def _theorem_reports(fixture: Fixture, model, theorems, grid, policy) -> list:
    """One report per theorem; the single dispatch behind `check` and `sweep`."""
    return [
        theorem_verdict(
            fixture.build_split(model) if theorem == "THM33" else model,
            theorem,
            alpha=fixture.alpha_for(theorem),
            grid=grid,
            policy=policy,
        )
        for theorem in theorems
    ]


def cmd_check(args) -> int:
    fixture = _fixture(args, _parse_params(args.param))
    theorems = _parse_theorems(args.theorem, fixture.theorems)
    model = fixture.build()
    grid = fixture.grid()
    policy = _policy(args)
    reports = _theorem_reports(fixture, model, theorems, grid, policy)
    if args.csv:
        _write_trajectory_csv(args.csv, reports)
    payload = {
        "config": _config(
            fixture,
            {
                "command": "check",
                "theorems": theorems,
                "alpha": fixture.alpha,
                "alpha33": fixture.alpha33,
                "grid": grid,
                "policy": policy,
            },
        ),
        "theorem_reports": [_theorem_dict(r) for r in reports],
        "trajectories_ref": args.csv,
        "warnings": sorted({w for r in reports for w in r.warnings}),
        "version": __version__,
    }
    _dump_json(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    fixture = _fixture(args, _parse_params(args.param))
    controls = OdeControls(rel_tol=args.rel_tol, abs_tol=args.abs_tol, h_max=args.h_max)
    model = fixture.build_ode_model()
    report = oscillation_report(model, args.tmax, n_random=args.combos, seed=args.seed, controls=controls)
    windows = model.windows(args.tmax) if model.windows else ()
    payload = {
        "config": _config(
            fixture,
            {
                "command": "verify",
                "t_max": args.tmax,
                "combos": args.combos,
                "seed": args.seed,
                "min_zeros": MIN_ZEROS,
                "controls": {**controls.as_dict(), "feature_windows": len(windows)},
            }
        ),
        "has_oscillatory_evidence": report.has_oscillatory_evidence,
        "solutions": report.solutions,
        "warnings": report.warnings,
        "version": __version__,
    }
    _dump_json(payload, args.out)
    return 0


def _parse_sweep_spec(spec: str):
    if "=" not in spec:
        raise ValueError(f"--sweep expects name=start:stop:step, got {spec!r}")
    name, _, rng = spec.partition("=")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ValueError(f"--sweep expects name=start:stop:step, got {spec!r}")
    start, stop, step = (float(x) for x in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"sweep range must be finite in {spec!r}")
    if step <= 0:
        raise ValueError(f"sweep step must be positive in {spec!r}")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9 * max(1.0, abs(step)):
            break
        values.append(v)
        k += 1
    if not values:
        raise ValueError(f"sweep range {spec!r} is empty")
    return name.strip(), values


def _sweep_point(payload):
    fixture, params, theorems, grid, policy, combo, tmax = payload
    model = fixture.build(params)
    row = [rep.overall for rep in _theorem_reports(fixture, model, theorems, grid, policy)]
    # the zero count integrates the same equation as `verify`
    ode_model = fixture.build_ode_model(params) if fixture.ode_r_src else model
    row.append(str(len(count_zeros(integrate_third_order(ode_model, combo, tmax)))))
    return row


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    sweeps = [_parse_sweep_spec(s) for s in args.sweep]
    # swept names join the parameters, so a raw-source sweep may name a
    # parameter that no --param binds, and a fixture rejects unknown ones
    params = _parse_params(args.param)
    params.update((name, values[0]) for name, values in sweeps)
    fixture = _fixture(args, params)
    theorems = _parse_theorems(args.theorem, fixture.theorems)
    grid = fixture.grid()
    policy = _policy(args)
    rng = np.random.default_rng(args.seed)
    v = rng.normal(size=3)
    combo = tuple(float(x) for x in v / np.linalg.norm(v))

    points = [()]
    for _, values in sweeps:
        points = [prev + (val,) for prev in points for val in values]
    names = [name for name, _ in sweeps]
    payloads = [(fixture, dict(zip(names, point)), theorems, grid, policy, combo, args.tmax) for point in points]
    # a process pool starts all its workers at once, so it gets no more
    # than there are points, and none for one point; its modules are
    # imported only here, since every other command would pay for them
    jobs = min(args.jobs, len(payloads))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    header = names + [f"{t.lower()}_overall" for t in theorems] + ["zero_count"]
    writer.writerow(header)
    for point, row in zip(points, rows):
        writer.writerow([repr(float(v)) for v in point] + row)
    text = buf.getvalue()
    if args.out:
        with _open_output(args.out) as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_comparison_fixture(name: str):
    """Named input bundles for the comparison harness.

    identity: the same problem twice, equality throughout.
    linear: both f == 0; y1 ramps away from y2 == 0 at unit rate.
    thm32-usage: u' + (3/2)u^2 + p_- u = 0 against the equation satisfied
    by y = phi'/phi of an integrated growing solution, with the remainder
    folded into h2.
    """
    if name == "identity":
        prob1 = RiccatiProblem(1.0, 0.0, 0.0, 0.0, 1.0)
        prob2 = RiccatiProblem(1.0, 0.0, 0.0, 0.0, 1.0)
        return {"prob1": prob1, "prob2": prob2, "eta1": 1.0, "eta2": 1.0,
                "gamma": 1.0, "t_max": 5.0}
    if name == "linear":
        prob1 = RiccatiProblem(0.0, 0.0, -1.0, 0.0, 0.0)
        prob2 = RiccatiProblem(0.0, 0.0, 0.0, 0.0, 0.0)
        return {"prob1": prob1, "prob2": prob2, "eta1": (lambda t: t), "eta2": 0.0,
                "gamma": 0.0, "t_max": 5.0}
    if name == "thm32-usage":
        fix = get_fixture("example31")
        model = fix.build()
        t1, t_hi = 1.2, 2.4
        traj = integrate_third_order(
            model, (1.0, 1.0, 1.0), t_hi + 0.2, OdeControls(rel_tol=1e-10, abs_tol=1e-12)
        )

        def y_fn(t):
            st = traj.at(t)
            return st[1] / st[0]

        def h2_fn(t):
            st = traj.at(t)
            y = st[1] / st[0]
            yp = st[2] / st[0] - y * y
            return -(yp + 1.5 * y * y + p_minus(model, t) * y)

        pm = lambda t: p_minus(model, t)
        y_t1 = y_fn(t1)
        gamma = y_t1 + 0.5
        m_val = model.params["M"]
        g_val = model.params["gamma"]

        def eta1(t):
            return gamma * math.exp(m_val * (t ** (g_val + 1.0) - t1 ** (g_val + 1.0)) / (g_val + 1.0))

        prob1 = RiccatiProblem(1.5, pm, 0.0, t1, gamma)
        prob2 = RiccatiProblem(1.5, pm, h2_fn, t1, y_t1)
        return {"prob1": prob1, "prob2": prob2, "eta1": eta1, "eta2": y_fn,
                "gamma": gamma, "t_max": t_hi}
    raise ValueError(f"unknown comparison fixture {name!r}; use identity, linear, or thm32-usage")


def cmd_riccati(args) -> int:
    variant = AS_WRITTEN if args.variant == "as-written" else LINEARIZED
    bundle = build_comparison_fixture(args.comparison)
    t_max = args.t_end if args.t_end is not None else bundle["t_max"]
    report = comparison_check(
        bundle["prob1"],
        bundle["prob2"],
        bundle["eta1"],
        bundle["eta2"],
        bundle["gamma"],
        t_max,
        variant,
        n_grid=args.n_grid,
    )
    payload = {
        "config": {
            "command": "riccati",
            "comparison": args.comparison,
            "variant": args.variant,
            "t_end": t_max,
            "n_grid": args.n_grid,
        },
        "report": report.to_dict(),
        "version": __version__,
    }
    _dump_json(payload, args.out)
    return 0


def _add_model_flags(sp, with_d=True):
    sp.add_argument("--fixture", choices=sorted(FIXTURES), help="named coefficient fixture")
    sp.add_argument("--p", help="source for p(t)")
    sp.add_argument("--q", help="source for q(t)")
    sp.add_argument("--r", help="source for r(t)")
    sp.add_argument("--t0", type=float, default=1.0, help="left endpoint (default 1)")
    sp.add_argument("--param", action="append", metavar="NAME=VALUE",
                    help="bind a parameter; repeatable")
    if with_d:
        sp.add_argument("--d-override", metavar="EXPR",
                        help="expression for the minimum function D, replacing the computed one")


def _add_theorem_flags(sp):
    sp.add_argument("--theorem", default=None,
                    help="comma list of thm31,thm32,thm33,lazer or 'all' (default: all)")
    sp.add_argument("--alpha", type=float, default=None, help="alpha for the weighted criteria")
    sp.add_argument("--alpha33", type=float, default=None, help="alpha for the alpha>1 criterion (default 2)")
    sp.add_argument("--split-p1", help="source for the integrable part of p_-")
    sp.add_argument("--split-p2", help="source for the bounded part of p_-")


def _add_grid_flags(sp):
    sp.add_argument("--grid-ratio", type=float, default=None, help="geometric grid ratio (default 1.15)")
    sp.add_argument("--grid-count", type=int, default=None, help="geometric grid length (default 120)")
    sp.add_argument("--theta-scale", type=float, default=None, help="divergence threshold scale (default 1e3)")
    sp.add_argument("--growth-rho", type=float, default=None, help="window growth factor for DIVERGES (default 2)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osc3",
        description="Oscillation criteria for phi''' + p phi'' + q phi' + r phi = 0",
    )
    parser.add_argument("--version", action="version", version=f"osc3 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate theorem conditions")
    _add_model_flags(check)
    _add_theorem_flags(check)
    _add_grid_flags(check)
    check.add_argument("--csv", help="write criterion trajectories to this CSV path")
    check.add_argument("--out", help="write the JSON report here (default stdout)")
    check.set_defaults(func=cmd_check)

    verify = sub.add_parser("verify", help="integrate the equation and classify solutions")
    _add_model_flags(verify, with_d=False)
    verify.add_argument("--tmax", type=float, default=100.0)
    verify.add_argument("--combos", type=int, default=5, help="random unit-vector initial states")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--rel-tol", type=float, default=1e-9)
    verify.add_argument("--abs-tol", type=float, default=1e-12)
    verify.add_argument("--h-max", type=float, default=0.1)
    verify.add_argument("--out", help="write the JSON report here (default stdout)")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="evaluate checks over a parameter grid")
    _add_model_flags(sweep)
    sweep.add_argument("--sweep", action="append", required=True, metavar="NAME=START:STOP:STEP")
    _add_theorem_flags(sweep)
    _add_grid_flags(sweep)
    sweep.add_argument("--tmax", type=float, default=30.0, help="horizon for the zero-count column")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--out", help="write the CSV here (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    ricc = sub.add_parser("riccati", help="run the comparison harness on a named fixture")
    ricc.add_argument("--comparison", default="identity",
                      choices=("identity", "linear", "thm32-usage"))
    ricc.add_argument("--variant", default="as-written", choices=("as-written", "linearized"))
    ricc.add_argument("--t-end", type=float, default=None)
    ricc.add_argument("--n-grid", type=int, default=400)
    ricc.add_argument("--out", help="write the JSON report here (default stdout)")
    ricc.set_defaults(func=cmd_riccati)
    return parser


# flags whose values are expressions and may legitimately begin with "-"
_EXPR_FLAGS = ("--p", "--q", "--r", "--d-override", "--split-p1", "--split-p2")


def _absorb_expression_values(argv):
    """Rewrite ["--p", "-t^2"] as ["--p=-t^2"].

    argparse reads a value starting with a dash as another option, which
    would reject perfectly good sources like -M*t^gamma in the natural
    space-separated spelling.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _EXPR_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_absorb_expression_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message, quotes included
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

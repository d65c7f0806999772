"""Command outputs against stored golden files.

Each case runs one command through main() inside a temporary directory,
writing its outputs under relative names, and compares every output with
its golden copy in tests/golden/ field by field: strings, ints and bools
exactly, floats to 1e-12 relative, so that a different libm does not fail
the suite.

Regenerate the goldens (only after a deliberate output change) with

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

which rewrites the named cases, or all of them when none is named.  Before
that, list every field that would move beyond RTOL (old value, new value,
relative change), rewriting nothing, with

    PYTHONPATH=src python tests/test_golden.py --report [CASE ...]
"""

import csv
import json
import math
import os
import shutil
import sys
import tempfile

import pytest

from osc3.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RTOL = 1e-12

# name -> (argv, output files the command writes)
CASES = {
    "check_lazer": (["check", "--fixture", "lazer", "--out", "check_lazer.json"], ["check_lazer.json"]),
    "check_example31": (
        ["check", "--fixture", "example31", "--out", "check_example31.json"],
        ["check_example31.json"],
    ),
    "check_example32": (
        ["check", "--fixture", "example32", "--grid-count", "17",
         "--csv", "check_example32.csv", "--out", "check_example32.json"],
        ["check_example32.json", "check_example32.csv"],
    ),
    # the bump-check command at M = 13: its grid reaches the n >= 17 bumps,
    # where rounding noise, not the rule, ends the panel refinement (the
    # roundoff stop), so a change in the quadrature's stopping tests or in
    # the order of its additions shows here
    "check_example32_thm31": (
        ["check", "--fixture", "example32", "--theorem", "thm31", "--grid-count", "23",
         "--csv", "check_example32_thm31.csv", "--out", "check_example32_thm31.json"],
        ["check_example32_thm31.json", "check_example32_thm31.csv"],
    ),
    "verify_lazer": (
        ["verify", "--fixture", "lazer", "--tmax", "20", "--combos", "2", "--out", "verify_lazer.json"],
        ["verify_lazer.json"],
    ),
    "verify_example31": (
        ["verify", "--fixture", "example31", "--tmax", "6", "--combos", "1",
         "--out", "verify_example31.json"],
        ["verify_example31.json"],
    ),
    "sweep_raw": (
        ["sweep", "--p", "0", "--q", "-a*t^2", "--r", "b*t^3", "--param", "a=3.0",
         "--sweep", "b=1.75:2.25:0.5", "--theorem", "all", "--alpha", "1.5",
         "--grid-count", "40", "--tmax", "10.0", "--seed", "3", "--out", "sweep_raw.csv"],
        ["sweep_raw.csv"],
    ),
    "riccati_identity": (
        ["riccati", "--comparison", "identity", "--out", "riccati_identity.json"],
        ["riccati_identity.json"],
    ),
    "riccati_linear": (
        ["riccati", "--comparison", "linear", "--out", "riccati_linear.json"],
        ["riccati_linear.json"],
    ),
    "riccati_thm32_usage": (
        ["riccati", "--comparison", "thm32-usage", "--out", "riccati_thm32_usage.json"],
        ["riccati_thm32_usage.json"],
    ),
}


def _cell(text):
    """A CSV cell as the value it spells: int, float, or the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _load(path):
    with open(path, newline="", encoding="utf-8") as f:
        if path.endswith(".json"):
            return json.load(f)
        return [[_cell(c) for c in row] for row in csv.reader(f)]


def _diffs(got, want, where="$"):
    """``(where, got, want)`` for every field where ``got`` differs from
    ``want``: strings, ints and bools exactly, floats beyond RTOL relative."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or (math.isnan(got) and math.isnan(want)):
            return []
        if abs(got - want) <= RTOL * max(abs(got), abs(want)):
            return []
        return [(where, got, want)]
    if type(got) is not type(want):
        return [(where, got, want)]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [(f"{where} keys", sorted(got), sorted(want))]
        return [d for k in sorted(want) for d in _diffs(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [(f"{where} length", len(got), len(want))]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _diffs(g, w, f"{where}[{i}]")]
    return [] if got == want else [(where, got, want)]


def _mismatches(got, want):
    return [f"{where}: {type(g).__name__} {g!r} != {type(w).__name__} {w!r}"
            for where, g, w in _diffs(got, want)]


def _run(name, workdir):
    argv, files = CASES[name]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = main(list(argv))
    finally:
        os.chdir(cwd)
    assert code == 0
    return [os.path.join(workdir, f) for f in files]


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    for path in _run(name, str(tmp_path)):
        want = _load(os.path.join(GOLDEN, os.path.basename(path)))
        problems = _mismatches(_load(path), want)
        assert problems == [], "\n".join(problems[:10])


def test_mismatches_catch_small_changes():
    assert _mismatches({"a": [1.0, "x", True]}, {"a": [1.0 + 1e-14, "x", True]}) == []
    assert _mismatches([1.0], [1.0 + 1e-9]) != []
    assert _mismatches([1], [1.0]) != []
    assert _mismatches([True], [1]) != []
    assert _mismatches({"a": "APPLIES"}, {"a": "INCONCLUSIVE"}) != []


def _relative(new, old) -> str:
    if isinstance(new, float) and isinstance(old, float) and max(abs(new), abs(old)) > 0.0:
        return f"{abs(new - old) / max(abs(new), abs(old)):.3g}"
    return "-"


if __name__ == "__main__":
    report = "--report" in sys.argv[1:]
    cases = [a for a in sys.argv[1:] if a != "--report"] or sorted(CASES)
    os.makedirs(GOLDEN, exist_ok=True)
    scratch = tempfile.mkdtemp()
    try:
        for case in cases:
            for out in _run(case, scratch):
                name = os.path.basename(out)
                golden = os.path.join(GOLDEN, name)
                if not report:
                    shutil.copy(out, golden)
                    print(name)
                    continue
                for where, new, old in _diffs(_load(out), _load(golden)):
                    print(f"{name} {where}: {old!r} -> {new!r} (relative change {_relative(new, old)})")
    finally:
        shutil.rmtree(scratch)
    sys.exit(0)

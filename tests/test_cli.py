"""End-to-end command line tests through main()."""

import csv
import json

import pytest

from osc3.cli import main


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def run_csv(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return list(csv.DictReader(out.splitlines()))


class TestCheck:
    def test_lazer_fixture_all_apply(self, capsys):
        doc = run_json(capsys, ["check", "--fixture", "lazer"])
        reports = {rep["theorem"]: rep for rep in doc["theorem_reports"]}
        assert set(reports) == {"LAZER", "THM31", "THM32", "THM33"}
        for name, rep in reports.items():
            assert rep["overall"] == "APPLIES", name
        assert doc["config"]["fixture"] == "lazer"
        assert doc["version"]

    def test_theorem_filter(self, capsys):
        doc = run_json(capsys, ["check", "--fixture", "lazer", "--theorem", "thm32"])
        assert [rep["theorem"] for rep in doc["theorem_reports"]] == ["THM32"]

    def test_raw_sources_with_override(self, capsys):
        argv = [
            "check", "--p", "-t^2", "--q", "0", "--r", "t^2",
            "--d-override", "t^2", "--theorem", "thm32",
        ]
        doc = run_json(capsys, argv)
        assert doc["theorem_reports"][0]["overall"] == "APPLIES"

    def test_raw_sources_without_override(self, capsys):
        # without the engineered minimum function the honest D is far more
        # negative and the criteria stay inconclusive
        argv = ["check", "--p", "-t^2", "--q", "0", "--r", "t^2", "--theorem", "thm32"]
        doc = run_json(capsys, argv)
        assert doc["theorem_reports"][0]["overall"] == "DOES_NOT_APPLY"

    def test_json_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["check", "--fixture", "lazer", "--theorem", "lazer", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["theorem_reports"][0]["overall"] == "APPLIES"

    def test_trajectory_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            ["check", "--fixture", "lazer", "--theorem", "thm32", "--csv", str(out)]
        )
        assert code == 0
        raw = out.read_bytes()
        assert b"\r\n" in raw
        rows = list(csv.DictReader(raw.decode().splitlines()))
        assert set(rows[0]) == {"t", "S", "criterion_id", "alpha"}
        ids = {row["criterion_id"] for row in rows}
        assert ids == {"THM32C", "THM32D"}
        floats = [float(row["S"]) for row in rows]
        assert all(isinstance(v, float) for v in floats)

    def test_byte_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["check", "--fixture", "lazer", "--out"]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--p", "-t", "--q", "0", "--r", "1", "--theorem", "lazer"],
            ["check", "--p", "-1/t^2", "--q", "t", "--r", "1", "--theorem", "all"],
        ],
    )
    def test_lazer_report_with_coefficient_linear_in_t(self, capsys, argv):
        # a compiled t or -t returns the sample's numpy float, which once
        # made p_zero.holds a numpy bool that json cannot write
        doc = run_json(capsys, argv)
        (lazer,) = [rep for rep in doc["theorem_reports"] if rep["theorem"] == "LAZER"]
        assert lazer["conditions"]["p_zero"]["holds"] is False
        assert lazer["overall"] == "DOES_NOT_APPLY"
        # p_zero and (a) decide these hypotheses; the integral adds no warning on them
        for text in lazer["warnings"] + doc["warnings"]:
            assert "identically zero" not in text and "positive values" not in text

    def test_param_override(self, capsys):
        doc = run_json(
            capsys,
            ["check", "--fixture", "example31", "--param", "beta=2.5", "--theorem", "thm32"],
        )
        assert doc["config"]["params"]["beta"] == 2.5


class TestVerify:
    def test_lazer_solutions(self, capsys):
        doc = run_json(
            capsys,
            ["verify", "--fixture", "lazer", "--tmax", "60", "--combos", "2", "--seed", "3"],
        )
        assert doc["has_oscillatory_evidence"] is True
        assert len(doc["solutions"]) == 5
        for sol in doc["solutions"]:
            assert sol["status"] == "completed"
            assert sol["t_end"] == 60.0
        assert any(s["zero_count"] >= 10 for s in doc["solutions"])

    def test_raw_equation(self, capsys):
        doc = run_json(
            capsys,
            ["verify", "--p", "0", "--q", "0", "--r", "0", "--tmax", "10", "--combos", "0"],
        )
        assert doc["has_oscillatory_evidence"] is False
        kinds = {s["classification"] for s in doc["solutions"]}
        assert "OSCILLATORY_EVIDENCE" not in kinds

    def test_every_stepper_flag_reaches_the_solutions(self, capsys):
        # a flag that no longer reaches the stepper would leave them unchanged
        argv = ["verify", "--fixture", "lazer", "--tmax", "10", "--combos", "1"]
        base = run_json(capsys, argv)["solutions"]
        for flag in (["--rel-tol", "1e-6"], ["--abs-tol", "1e-6"], ["--h-max", "0.05"]):
            assert run_json(capsys, argv + flag)["solutions"] != base, flag
        assert main(argv + ["--blow-up", "1e3"]) == 2


class TestSweep:
    def test_flip_along_beta(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--fixture", "example31", "--theorem", "thm31",
            "--sweep", "beta=2:4:1", "--grid-count", "60", "--out", str(out),
        ]
        assert main(argv) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["beta"] for row in rows] == ["2.0", "3.0", "4.0"]
        by_beta = {row["beta"]: row["thm31_overall"] for row in rows}
        # the weighted penalty overtakes the r term once beta reaches
        # 2*gamma - 1, so the verdict flips from inconclusive to applies
        assert by_beta["2.0"] == "DOES_NOT_APPLY"
        assert by_beta["4.0"] == "APPLIES"
        assert all("zero_count" in row for row in rows)

    def test_parallel_matches_serial(self, tmp_path):
        a = tmp_path / "serial.csv"
        b = tmp_path / "parallel.csv"
        argv = [
            "sweep", "--p", "0", "--q", "0", "--r", "r0", "--param", "r0=1",
            "--theorem", "lazer", "--sweep", "r0=1:2:0.5", "--grid-count", "40",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verdicts_match_check_on_bump_train(self, capsys):
        # sweep uses the fixture's quadrature breakpoints, as check does
        argv = ["--fixture", "example32", "--theorem", "thm31", "--grid-count", "17"]
        doc = run_json(capsys, ["check"] + argv)
        assert doc["theorem_reports"][0]["overall"] == "DOES_NOT_APPLY"
        rows = run_csv(capsys, ["sweep", "--sweep", "M=13:13:1", "--tmax", "6"] + argv)
        assert rows[0]["thm31_overall"] == "DOES_NOT_APPLY"

    @pytest.mark.parametrize(
        "source, p1, sweep",
        [
            (["--p", "-1/t^2", "--q", "0", "--r", "r0", "--param", "r0=1"], "-1/t^2", "r0=1:1:1"),
            (["--p", "-1/t", "--q", "0", "--r", "r0", "--param", "r0=1"], "-1/t", "r0=1:1:1"),
            (["--fixture", "example31", "--param", "gamma=-1"], "-M*t^gamma", "N=1:1:1"),
        ],
    )
    def test_split_flags_reach_the_verdicts(self, capsys, source, p1, sweep):
        # p_- = p1 + 0; with p1 = -1/t the integrable part is not
        # integrable, so (f) fails where the default split p1 = 0 passes
        argv = source + ["--theorem", "thm33", "--grid-count", "40"]
        split = ["--split-p1", p1, "--split-p2", "0"]
        doc = run_json(capsys, ["check"] + argv + split)
        assert doc["config"]["split"] == [p1, "0"]
        overall = doc["theorem_reports"][0]["overall"]
        rows = run_csv(capsys, ["sweep", "--sweep", sweep, "--tmax", "5"] + argv + split)
        assert rows[0]["thm33_overall"] == overall
        if p1 != "-1/t^2":
            assert overall == "DOES_NOT_APPLY"
            assert not doc["theorem_reports"][0]["conditions"]["f"]["holds"]
            default = run_json(capsys, ["check"] + argv)["theorem_reports"][0]
            assert default["conditions"]["f"]["holds"]

    def test_policy_flags_reach_the_verdicts(self, capsys):
        argv = ["--p", "0", "--q", "0", "--r", "r0", "--param", "r0=1", "--theorem", "lazer",
                "--grid-count", "20", "--theta-scale", "1e-6"]
        doc = run_json(capsys, ["check"] + argv)
        assert doc["theorem_reports"][0]["overall"] == "APPLIES"
        rows = run_csv(capsys, ["sweep", "--sweep", "r0=1:1:1", "--tmax", "5"] + argv)
        assert rows[0]["lazer_overall"] == "APPLIES"

    def test_zero_count_integrates_the_verify_equation(self, capsys):
        # example31's ODE r carries the correction term that its plain r drops
        rows = run_csv(capsys, ["sweep", "--fixture", "example31", "--sweep", "beta=3:3:1",
                                "--tmax", "8", "--seed", "0"])
        doc = run_json(capsys, ["verify", "--fixture", "example31", "--param", "beta=3",
                                "--tmax", "8", "--combos", "1", "--seed", "0"])
        (combo,) = [s for s in doc["solutions"] if s["label"] == "combo1"]
        assert combo["zero_count"] == 4
        assert rows[0]["zero_count"] == "4"

    def test_bad_sweep_spec(self, capsys):
        code = main(["sweep", "--fixture", "lazer", "--sweep", "nope"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestRiccatiCommand:
    def test_identity(self, capsys):
        doc = run_json(capsys, ["riccati", "--comparison", "identity"])
        assert doc["report"]["ordering_ok"] is True
        assert doc["report"]["hypothesis_ok"] is True

    def test_linear(self, capsys):
        doc = run_json(capsys, ["riccati", "--comparison", "linear"])
        assert doc["report"]["ordering_ok"] is True
        assert doc["report"]["first_violation"] is None

    def test_variant_flag(self, capsys):
        doc = run_json(capsys, ["riccati", "--comparison", "identity", "--variant", "linearized"])
        assert doc["report"]["variant"] == "LINEARIZED"
        assert doc["config"]["variant"] == "linearized"


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--p", "(", "--q", "0", "--r", "1"],
            ["check", "--fixture", "lazer", "--param", "bogus=1"],
            ["check", "--fixture", "lazer", "--param", "noequals"],
            ["check", "--fixture", "lazer", "--theorem", "thm99"],
            ["check", "--p", "exp(t)", "--q", "0", "--r", "1"],
            ["check", "--fixture", "lazer", "--grid-count", "4"],
            ["verify", "--p", "M*t", "--q", "0", "--r", "1"],
            ["check", "--p", "0", "--q", "0", "--r", "M", "--param", "M=nan"],
            ["check", "--p", "0", "--q", "0", "--r", "M", "--param", "M=inf"],
            ["verify", "--fixture", "lazer", "--tmax", "0.5"],
            ["verify", "--fixture", "lazer", "--h-max", "0"],
            ["verify", "--fixture", "lazer", "--rel-tol", "0"],
            ["verify", "--fixture", "lazer", "--combos", "-1"],
            ["sweep", "--p", "0", "--q", "0", "--r", "r0", "--sweep", "r0=1:1:1", "--jobs", "0"],
            ["sweep", "--p", "0", "--q", "0", "--r", "r0", "--sweep", "r0=1:inf:1"],
            ["sweep", "--p", "0", "--q", "0", "--r", "r0", "--sweep", "r0=1:1:1", "--tmax", "0.5"],
            ["sweep", "--fixture", "lazer", "--sweep", "r0=1:1:1"],
            ["check", "--p", "1e999*0", "--q", "0", "--r", "1"],
            ["verify", "--p", "0", "--q", "0", "--r", "1e999"],
            ["check", "--fixture", "lazer", "--d-override", "1e999"],
            ["check", "--fixture", "lazer", "--theorem", "thm32", "--d-override", "floor(t*9e307*9)"],
            ["check", "--fixture", "lazer", "--theorem", "thm32", "--d-override", "t*9e307*9"],
            ["check", "--fixture", "lazer", "--theorem", "thm32", "--d-override", "t*9e307*9*0"],
            ["check", "--p", "floor(t*9e307*9)", "--q", "0", "--r", "1"],
            ["check", "--p", "0", "--q", "0", "--r", "1", "--split-p1", "floor(t*9e307*9)",
             "--theorem", "thm33"],
            # p1 = p2 = 0 passes every jittered probe point but misses each bump of p_-
            ["check", "--fixture", "example32", "--theorem", "thm33", "--grid-count", "17",
             "--split-p1", "0", "--split-p2", "0"],
        ],
    )
    def test_config_errors_return_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert not err.startswith('error: "')  # a KeyError prints its message, not its repr
        assert "np.float64" not in err and "Traceback" not in err

    # each once hung, ended in an OverflowError traceback, ran on with a NaN
    # threshold, or failed only on a NaN in some later arithmetic
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["check", "--fixture", "lazer", "--grid-ratio", "nan"], "ratio"),
            (["check", "--fixture", "lazer", "--grid-ratio", "inf"], "ratio"),
            (["check", "--p", "0", "--q", "0", "--r", "1", "--t0", "nan"], "t0"),
            (["verify", "--fixture", "lazer", "--tmax", "inf"], "t_max"),
            (["check", "--fixture", "lazer", "--grid-ratio", "1e300"], "ratio"),
            (["check", "--fixture", "lazer", "--grid-count", "100000000"], "count"),
            (["check", "--fixture", "lazer", "--alpha", "inf"], "alpha"),
            (["check", "--fixture", "lazer", "--theta-scale", "nan"], "theta_scale"),
            (["check", "--fixture", "lazer", "--growth-rho", "nan"], "growth_rho"),
            (["verify", "--fixture", "lazer", "--abs-tol", "inf"], "abs_tol"),
            (["check", "--fixture", "lazer", "--alpha", "nan"], "alpha"),
            (["riccati", "--t-end", "inf"], "t_max"),
            (["riccati", "--t-end", "nan"], "t_max"),
        ],
    )
    def test_non_finite_inputs_return_2(self, argv, name, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert "Traceback" not in err

    # horizons no run of the stepper could finish, and trace grids with nothing to compare
    @pytest.mark.parametrize(
        "argv, names",
        [
            (["verify", "--fixture", "lazer", "--tmax", "1e300", "--combos", "0"], ("t_max", "h_max")),
            (["verify", "--fixture", "lazer", "--tmax", "50", "--h-max", "1e-9"], ("t_max", "h_max")),
            (["sweep", "--p", "0", "--q", "0", "--r", "r0", "--sweep", "r0=1:1:1", "--tmax", "1e300",
              "--theorem", "lazer", "--grid-count", "16"], ("t_max", "h_max")),
            (["riccati", "--comparison", "linear", "--t-end", "1e300"], ("t_max", "h_max")),
            (["riccati", "--n-grid", "0"], ("n_grid",)),
            (["riccati", "--n-grid", "-3"], ("n_grid",)),
            (["riccati", "--n-grid", "1"], ("n_grid",)),
        ],
    )
    def test_step_budget_and_trace_grid_return_2(self, argv, names, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(name in err for name in names)
        assert "Traceback" not in err

    def test_missing_sources(self, capsys):
        # no fixture and no p/q/r
        assert main(["check"]) == 2

    def test_version_flag(self, capsys):
        # argparse raises SystemExit(0); main converts it to a return code
        code = main(["--version"])
        assert code == 0
        assert "osc3" in capsys.readouterr().out

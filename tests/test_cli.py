import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oporder.cli import (
    EXIT_INDETERMINATE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    _margin_text,
    main,
)
from util import GOLDEN_DIR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_lines(name):
    out = []
    for raw in (GOLDEN_DIR / name).read_text().splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append(" ".join(stripped.split()))
    return out


class TestExponentCommand:
    def test_two_level_example(self, capsys):
        code, out, _ = run(capsys, "exponent", "--t", "0.5,0.5", "--p", "2,3,2,3")
        assert code == EXIT_OK
        assert "chain_exponent = 29" in out

    def test_all_ones(self, capsys):
        code, out, _ = run(capsys, "exponent", "--t", "1", "--p", "1,1")
        assert code == EXIT_OK
        assert "chain_exponent = 1" in out

    def test_weight_printed_with_r(self, capsys):
        code, out, _ = run(capsys, "exponent", "--t", "1", "--p", "1,1", "--r", "2")
        assert code == EXIT_OK
        assert "necessity_weight = 0.5" in out

    def test_length_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "exponent", "--t", "0.5", "--p", "1,1,1")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_malformed_list_exits_2(self, capsys):
        code, _, _ = run(capsys, "exponent", "--t", "0.5;0.5", "--p", "1,1")
        assert code == EXIT_USAGE

    def test_exponent_beyond_float_range(self, capsys):
        code, out, _ = run(capsys, "exponent", "--t", "0.5", "--p", "1e300,1e300",
                           "--r", "1")
        assert code == EXIT_OK
        assert "chain_exponent = inf" in out and "necessity_weight = 0" in out


class TestPrintChainCommand:
    def test_smallest_chain(self, capsys):
        code, out, _ = run(capsys, "print-chain", "--k", "3",
                           "--family", "asc", "--member", "1")
        assert code == EXIT_OK
        assert out.strip() == (
            "A3^{r-t1} >= "
            "(A3^{r/2} (A2^{-t1/2} A1^{p1} A2^{-t1/2})^{p2} A3^{r/2})^{w1}"
        )

    def test_golden_first_ascending_k5(self, capsys):
        code, out, _ = run(capsys, "print-chain", "--k", "5",
                           "--family", "asc", "--member", "1")
        assert code == EXIT_OK
        assert " ".join(out.split()) == golden_lines("chains_k5.txt")[0]

    def test_golden_first_descending_k4(self, capsys):
        code, out, _ = run(capsys, "print-chain", "--k", "4",
                           "--family", "desc", "--member", "1")
        assert code == EXIT_OK
        assert " ".join(out.split()) == golden_lines("chains_k4.txt")[2]

    def test_all_flag(self, capsys):
        code, out, _ = run(capsys, "print-chain", "--k", "5", "--all")
        assert code == EXIT_OK
        lines = [" ".join(l.split()) for l in out.strip().splitlines()]
        assert lines == golden_lines("chains_k5.txt")

    def test_member_out_of_range(self, capsys):
        code, _, err = run(capsys, "print-chain", "--k", "3",
                           "--family", "desc", "--member", "5")
        assert code == EXIT_USAGE
        assert "member" in err

    def test_k_too_small(self, capsys):
        code, _, _ = run(capsys, "print-chain", "--k", "1")
        assert code == EXIT_USAGE


class TestCheckCommand:
    def test_necessity_small_run(self, capsys, tmp_path):
        report = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "check", "--mode", "necessity", "--k", "3",
                           "--dim", "2", "--seed", "42", "--count", "3",
                           "--report", str(report))
        assert code == EXIT_OK
        assert "all expectations met" in out
        header = report.read_text().splitlines()[0]
        assert header == ("instance_id,k,dim,family,member,p_vector,w,"
                          "relation,margin,verdict,seconds")
        sidecar = json.loads((tmp_path / "rows.csv.json").read_text())
        assert sidecar["master_seed"] == 42

    def test_bad_k_exits_2(self, capsys):
        code, _, _ = run(capsys, "check", "--mode", "necessity", "--k", "1")
        assert code == EXIT_USAGE

    def test_non_finite_grid_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "--mode", "necessity", "--k", "3",
                             "--dim", "2", "--count", "1", "--p-grid", "1,inf")
        assert code == EXIT_USAGE
        assert "error:" in err and "finite" in err
        assert "Traceback" not in err and "VIOLATION" not in err

    def test_dim_zero_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "--mode", "necessity", "--k", "3",
                           "--dim", "0", "--count", "1")
        assert code == EXIT_USAGE
        assert "error:" in err and "--dim" in err

    def test_missing_mode_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "--k", "3")
        assert code == EXIT_USAGE
        assert "--mode" in err

    def test_contrapositive_scalar_fixture(self, capsys):
        code, out, _ = run(capsys, "check", "--mode", "contrapositive", "--k", "3",
                           "--scalar-fixture", "2,1,3", "--t", "0.5", "--r", "1",
                           "--weights", "fixed:0.5,0.5", "--p-grid", "1")
        assert code == EXIT_OK
        assert "hypothesis-failure found" in out
        assert "-0.717439" in out

    def test_contrapositive_generated(self, capsys):
        code, out, _ = run(capsys, "check", "--mode", "contrapositive", "--k", "3",
                           "--dim", "2", "--seed", "7", "--count", "4")
        assert code == EXIT_OK
        assert out.count("hypothesis-failure") == 4

    # the margins of instances 0 .. 4 per seed, as drawing one tuple per
    # instance with gen_unordered_tuple printed them
    _CONTRAPOSITIVE_MARGINS = {
        0: ("-0.143397", "-1.368299", "-0.872341", "-0.241267", "-0.807862"),
        1: ("-4.232720", "-9.760498", "-0.541761", "-1.563471", "-0.500159"),
        2: ("-24.724976", "-7.778800", "-0.223120", "-0.756202", "-1.045677"),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_contrapositive_draws_its_tuples_in_one_call(self, capsys, monkeypatch, seed):
        from oporder import cli, verify

        argv = ("check", "--mode", "contrapositive", "--k", "3", "--dim", "2",
                "--count", "5", "--seed", str(seed))
        calls = []
        drawn = cli.gen_unordered_tuples
        monkeypatch.setattr(cli, "gen_unordered_tuples",
                            lambda *args, **kwargs: calls.append(args) or drawn(*args, **kwargs))
        got = run(capsys, *argv)
        assert len(calls) == 1
        # one gen_unordered_tuple call per instance gives the same output
        monkeypatch.setattr(cli, "gen_unordered_tuples",
                            lambda k, instances, field_kind: [
                                verify.gen_unordered_tuple(k, dim, s, field_kind=field_kind)
                                for dim, s in instances])
        assert run(capsys, *argv) == got
        code, out, err = got
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == [
            f"instance {i}: hypothesis-failure found (margin {m})"
            for i, m in enumerate(self._CONTRAPOSITIVE_MARGINS[seed])] + ["all expectations met"]

    @pytest.mark.parametrize("fixture", ["nan,1,3", "0,1,3"])
    def test_bad_fixture_exits_2(self, capsys, fixture):
        code, out, err = run(capsys, "check", "--mode", "contrapositive", "--k", "3",
                             "--scalar-fixture", fixture, "--t", "0.5", "--r", "1")
        assert code == EXIT_USAGE
        assert "error:" in err and "--scalar-fixture" in err
        assert "hypothesis-failure" not in out

    def test_fixture_k_mismatch(self, capsys):
        code, _, _ = run(capsys, "check", "--mode", "contrapositive", "--k", "4",
                         "--scalar-fixture", "2,1,3")
        assert code == EXIT_USAGE

    def test_proof_steps_mode(self, capsys):
        code, out, _ = run(capsys, "check", "--mode", "proof-steps", "--k", "5",
                           "--dim", "2", "--seed", "3", "--count", "2",
                           "--p-grid", "1,2")
        assert code == EXIT_OK
        assert "all expectations met" in out

    def test_limit_mode(self, capsys):
        code, out, _ = run(capsys, "check", "--mode", "limit", "--k", "5",
                           "--dim", "2", "--seed", "3", "--count", "2")
        assert code == EXIT_OK
        assert "consistent=True" in out

    def test_limit_core_that_fails_to_evaluate_exits_3(self, capsys, monkeypatch):
        # the suite's tuples keep A2 above the pd gate; this pair does not
        from types import SimpleNamespace

        from oporder import cli
        from oporder.spectral import diagonal, identity

        pair = SimpleNamespace(matrices=(identity(2), diagonal([1e-12, 1.0]), identity(2)))
        monkeypatch.setattr(cli, "gen_suite_tuple", lambda *args, **kwargs: pair)
        code, out, err = run(capsys, "check", "--mode", "limit", "--k", "3",
                             "--dim", "2", "--count", "2")
        assert code == EXIT_INDETERMINATE
        lines = err.splitlines()
        assert len(lines) == 2 and all(
            line.startswith(f"ERROR: instance {i}: limit core not evaluated [matrix is "
                            f"numerically singular") for i, line in enumerate(lines))
        assert "VIOLATION" not in err
        assert "indeterminate: no finite violation, but 2 rows were not evaluated" in out

    @pytest.mark.parametrize("s_grid", ["0", "-1", "nan", "10,1"])
    def test_limit_bad_s_grid_exits_2(self, capsys, s_grid):
        code, out, err = run(capsys, "check", "--mode", "limit", "--k", "3",
                             "--dim", "2", "--count", "1", "--s-grid", s_grid)
        assert code == EXIT_USAGE
        assert "error:" in err and "expectations met" not in out

    def test_overflowing_necessity_weight_is_an_error_row(self, capsys):
        argv = ["check", "--mode", "necessity", "--k", "3", "--dim", "2",
                "--count", "1", "--p-grid", "1e300"]
        code, _, err = run(capsys, *argv)
        fixed_code, _, fixed_err = run(capsys, *argv, "--weights", "fixed:0.5,0.5")
        assert code == fixed_code == EXIT_INDETERMINATE
        lines = err.splitlines()
        assert len(lines) == len(fixed_err.splitlines()) == 2
        assert all("margin nan (weight w" in line for line in lines)

    def test_error_rows_alone_are_indeterminate(self, capsys):
        code, out, err = run(capsys, "check", "--mode", "necessity", "--k", "3", "--dim", "2",
                             "--count", "1", "--p-grid", "1e300")
        assert code == EXIT_INDETERMINATE
        assert "VIOLATION" not in err
        assert all(line.startswith("ERROR: ") for line in err.splitlines())
        assert "2 rows were not evaluated" in out

    def test_premise_failing_through_error_rows_is_indeterminate(self, capsys):
        code, out, err = run(capsys, "check", "--mode", "proof-steps", "--k", "6", "--dim", "2",
                             "--seed", "0", "--count", "2", "--p-grid", "1,1.5,4")
        assert code == EXIT_INDETERMINATE
        assert "VIOLATION" not in err
        assert "premise member has 22 rows not evaluated" in err
        assert "rows were not evaluated" in out

    def test_finite_violation_exits_1_beside_error_rows(self, capsys):
        # the ascending member fails at p = (1, 1); p = 1e300 overflows
        code, _, err = run(capsys, "check", "--mode", "necessity", "--k", "3",
                           "--scalar-fixture", "4,1,2", "--t", "0.5", "--r", "1",
                           "--p-grid", "1,1e300")
        assert code == EXIT_VIOLATION
        violations = [line for line in err.splitlines() if line.startswith("VIOLATION: ")]
        assert violations and all("margin nan" not in line for line in violations)
        assert any(line.startswith("ERROR: ") for line in err.splitlines())

    @pytest.mark.parametrize("mode,t,r", [("necessity", "0.5", "1.9"),
                                          ("contrapositive", "1", "2.5")])
    def test_left_side_that_overflows_is_an_error_row(self, capsys, mode, t, r):
        # every member's left side A^(r - t1) = (1e300)^1.4 or ^1.5 overflows;
        # at t1 = 1 every core is I, so contrapositive implies no failure
        code, out, err = run(capsys, "check", "--mode", mode, "--k", "3",
                             "--scalar-fixture", "1e300,1e300,1e300", "--t", t, "--r", r,
                             "--p-grid", "1")
        assert code == EXIT_INDETERMINATE
        assert "VIOLATION" not in err and "Traceback" not in err
        lines = err.splitlines()
        assert lines and all(line.startswith("ERROR: ") for line in lines)
        if mode == "necessity":
            assert len(lines) == 2 and all("(matrix power is not finite)" in line
                                            for line in lines)
        assert "2 rows were not evaluated" in out

    @pytest.mark.parametrize("mode,expected", [("necessity", EXIT_VIOLATION),
                                               ("contrapositive", EXIT_OK)])
    def test_left_side_error_beside_a_finite_failure(self, capsys, mode, expected):
        # the descending left side (1e300)^1.4 overflows; the ascending
        # member fails with a finite margin, as the unordered tuple should
        code, out, err = run(capsys, "check", "--mode", mode, "--k", "3",
                             "--scalar-fixture", "1e300,2,3", "--t", "0.5", "--r", "1.9",
                             "--p-grid", "1")
        assert code == expected
        if mode == "necessity":
            violation, error = err.splitlines()
            assert violation.startswith("VIOLATION: instance 0: ascending member 1")
            assert error == ("ERROR: instance 0: descending member 1 at p=(1.0, 1.0) "
                             "margin nan (matrix power is not finite)")
        else:
            assert "instance 0: hypothesis-failure found" in out and not err

    def test_huge_contrapositive_margin_prints_in_exponent_form(self, capsys):
        # fixed point would print the -2.76e175 margin with all its digits
        code, out, err = run(capsys, "check", "--mode", "contrapositive", "--k", "3",
                             "--scalar-fixture", "1e300,2,3", "--t", "0.5", "--r", "1.9",
                             "--p-grid", "1")
        assert code == EXIT_OK and not err
        assert out.splitlines()[0] == \
            "instance 0: hypothesis-failure found (margin -2.760635e+175)"
        assert [_margin_text(v) for v in (-999999.25, 1e6, -0.0035)] == \
            ["-999999.250000", "1.000000e+06", "-0.003500"]

    @pytest.mark.parametrize("mode", ["proof-steps", "limit"])
    @pytest.mark.parametrize("flag,value", [("--scalar-fixture", "1e300,2,3"),
                                            ("--report", "rows.csv")])
    def test_flag_the_mode_ignores_exits_2(self, capsys, tmp_path, mode, flag, value):
        argv = ("check", "--mode", mode, "--k", "3", "--dim", "2", "--count", "1",
                "--p-grid", "1")
        code, out, err = run(capsys, *argv, flag, value)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and flag in err and mode in err
        assert "expectations met" not in out
        assert not (tmp_path / value).exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": mode, "k": 3, "dim": 2, "count": 1, "p_grid": "1",
                                   flag[2:].replace("-", "_"): value}))
        code, _, err = run(capsys, "check", "--config", str(cfg))
        assert code == EXIT_USAGE and flag in err

    @pytest.mark.parametrize("mode", ["proof-steps", "limit"])
    def test_dump_config_round_trip_without_campaign_flags(self, capsys, tmp_path, mode):
        argv = ("check", "--mode", mode, "--k", "3", "--dim", "2", "--count", "1",
                "--p-grid", "1")
        code, out, _ = run(capsys, *argv, "--dump-config")
        assert code == EXIT_OK
        cfg = json.loads(out)
        assert cfg["scalar_fixture"] is None and cfg["report"] is None
        (tmp_path / "cfg.json").write_text(out)
        direct = run(capsys, *argv)
        via_config = run(capsys, "check", "--config", str(tmp_path / "cfg.json"))
        assert direct == via_config and direct[0] == EXIT_OK

    def test_dump_config_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check", "--mode", "necessity", "--k", "3",
                           "--dim", "2", "--seed", "13", "--count", "2",
                           "--dump-config")
        assert code == EXIT_OK
        cfg = json.loads(out)
        assert cfg["mode"] == "necessity" and cfg["seed"] == 13
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(out)

        direct = tmp_path / "direct.csv"
        via_config = tmp_path / "via_config.csv"
        assert main(["check", "--mode", "necessity", "--k", "3", "--dim", "2",
                     "--seed", "13", "--count", "2", "--report", str(direct)]) == EXIT_OK
        assert main(["check", "--config", str(cfg_path),
                     "--report", str(via_config)]) == EXIT_OK
        capsys.readouterr()
        strip = lambda p: [",".join(l.split(",")[:-1]) for l in p.read_text().splitlines()]
        assert strip(direct) == strip(via_config)

    def test_unknown_config_key(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "necessity", "bogus": 1}))
        code, _, err = run(capsys, "check", "--config", str(bad))
        assert code == EXIT_USAGE
        assert "bogus" in err

    SMALL_NECESSITY = ("check", "--mode", "necessity", "--k", "3", "--dim", "2",
                       "--p-grid", "1,2")

    @pytest.mark.parametrize("flag,value", [
        ("--suite-tol-rel", "nan"),
        ("--suite-tol-rel", "-1"),
        ("--suite-tol-rel", "0"),
        ("--suite-tol-rel", "inf"),
        ("--tol-rel", "nan"),
        ("--tol-rel", "-0.001"),
        ("--tol-rel", "inf"),
        ("--count", "0"),
        ("--count", "-2"),
    ])
    def test_bad_tolerance_or_count_flag_exits_2(self, capsys, flag, value):
        code, out, err = run(capsys, *self.SMALL_NECESSITY, "--count", "1", flag, value)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and flag in err
        assert "all expectations met" not in out

    @pytest.mark.parametrize("entry", [
        '"suite_tol_rel": NaN',
        '"suite_tol_rel": -1',
        '"tol_rel": Infinity',
        '"tol_rel": 0',
        '"count": 0',
        '"count": "many"',
    ])
    def test_bad_tolerance_or_count_in_config_exits_2(self, capsys, tmp_path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mode": "necessity", "k": 3, "dim": 2, "p_grid": "1,2", ' + entry + "}")
        code, out, err = run(capsys, "check", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and entry.split('"')[1].replace("_", "-") in err
        assert "all expectations met" not in out


class TestSearchCommand:
    def test_zero_budget_empty_findings(self, capsys, tmp_path):
        findings = tmp_path / "findings.json"
        code, out, _ = run(capsys, "search", "--budget", "0",
                           "--findings", str(findings))
        assert code == EXIT_OK
        payload = json.loads(findings.read_text())
        assert payload["findings"] == []
        assert json.loads(out)["findings"] == 0

    def test_dim_zero_exits_2(self, capsys):
        code, out, err = run(capsys, "search", "--budget", "3", "--dim", "2,0")
        assert code == EXIT_USAGE
        assert "error:" in err and "--dim" in err
        assert out == ""

    def test_default_seed_small_budget(self, capsys):
        code, out, _ = run(capsys, "search", "--budget", "15", "--seed", "0")
        assert code == EXIT_OK
        counters = json.loads(out)["counters"]
        assert counters["instances"] == 15
        assert counters["emitted"] == 0

    def test_emit_stats_histogram(self, capsys, tmp_path):
        findings = tmp_path / "f.json"
        code, _, _ = run(capsys, "search", "--budget", "5", "--seed", "2",
                         "--emit-stats", "--findings", str(findings))
        assert code == EXIT_OK
        payload = json.loads(findings.read_text())
        hist = payload["stats"]["margin_histogram"]
        assert len(hist["edges"]) == len(hist["counts"]) + 1

    def test_stats_omitted_without_flag(self, capsys, tmp_path):
        findings = tmp_path / "f.json"
        code, _, _ = run(capsys, "search", "--budget", "3", "--seed", "2",
                         "--findings", str(findings))
        assert code == EXIT_OK
        assert "margin_histogram" not in json.loads(findings.read_text())["stats"]

    def test_negative_budget_exits_2(self, capsys):
        code, _, _ = run(capsys, "search", "--budget", "-1")
        assert code == EXIT_USAGE

    def test_bad_k_exits_2(self, capsys):
        code, _, _ = run(capsys, "search", "--k", "2", "--budget", "1")
        assert code == EXIT_USAGE

    def test_tol_rel_is_not_a_search_flag(self, capsys):
        code, _, _ = run(capsys, "search", "--tol-rel", "1e-3", "--budget", "1")
        assert code == EXIT_USAGE


class TestArgparseBehaviour:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK


def _captured_main(argv):
    """Exit code, stdout and stderr of ``main(argv)``; an exception that
    escapes ``main`` propagates, as a traceback would end the process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# each field's values in and out of its domain: small grids, p = 1e300
# (whose necessity weight overflows to 0), weights of 0 and below (error
# rows) and of 1e300, tolerances of every size, limit sequences out to 1e300
_FUZZ_FIELDS = {
    "k": (("3", "4", "5"), ("2", "1")),
    "dim": (("1", "2", "3"), ("0",)),
    "count": (("1", "2"), ("0",)),
    "p-grid": (("1", "1,2", "1,1.5,4", "1,1e300", "1e300"),
               ("4,1", "0.5,1", "1,nan", "1,inf", "x")),
    "tol-rel": (("1e-12", "1e-7", "1e-2", "1e300"), ("0", "-1e-7", "nan", "inf", "x")),
    "suite-tol-rel": (("1e-12", "1e-7", "1e-2", "1e300"), ("0", "-1e-7", "nan", "inf", "x")),
    "weights": (("necessity", "0.01", "0.5", "0.9", "1e300", "0", "-1"),
                ("fixed:x", "fixed:0.5", "bogus")),
    "s-grid": (("1", "1,10,100", "1,1e300", "1e300"), ("0", "10,1", "1,nan", "x")),
}


@st.composite
def _check_argv(draw):
    """``check --mode necessity|contrapositive|proof-steps|limit`` argv with
    at most one field out of its domain."""
    broken = draw(st.sampled_from((None, None, None) + tuple(_FUZZ_FIELDS)))
    values = {name: draw(st.sampled_from(bad if name == broken else good))
              for name, (good, bad) in _FUZZ_FIELDS.items()}
    if values["weights"][0].isdigit() or values["weights"][0] == "-":
        # one fixed weight for each of the k - 1 members
        k = max(int(values["k"]), 2)
        values["weights"] = "fixed:" + ",".join([values["weights"]] * (k - 1))
    modes = ("necessity", "contrapositive", "proof-steps", "limit")
    argv = ["check", "--mode", draw(st.sampled_from(modes)),
            "--seed", str(draw(st.integers(0, 3)))]
    for name, value in values.items():
        argv += [f"--{name}", value]
    return argv


class TestExitCodeContract:
    @settings(max_examples=50, deadline=None)
    @given(argv=_check_argv())
    def test_exit_code_matches_printed_outcome(self, argv):
        code, out, err = _captured_main(argv)
        assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_INDETERMINATE)
        assert "Traceback" not in out + err
        lines = err.splitlines()
        violations = [line for line in lines if line.startswith("VIOLATION: ")]
        errors = [line for line in lines if line.startswith("ERROR: ")]
        if code == EXIT_VIOLATION:
            # a finite computed margin failed: no VIOLATION line rests on a NaN
            assert violations and not any("nan" in line for line in violations)
        elif code == EXIT_INDETERMINATE:
            assert errors and not violations and "rows were not evaluated" in out
        elif code == EXIT_OK:
            assert not violations and not errors and "all expectations met" in out
        else:
            assert err.startswith("error: ") or err.startswith("usage: ")

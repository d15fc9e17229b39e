import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oporder import cli, dsl
from oporder.cli import (
    EXIT_INDETERMINATE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    _margin_text,
    main,
)
from oporder.verify import SUITE_TOL_REL, Comparison, MarginTable, ReductionReport
from util import GOLDEN_DIR, REPO_ROOT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the flags each check mode reads, beside --mode, --config and --dump-config,
# and a value in each flag's domain
_CHECK_FLAG_VALUES = {
    "--k": "3", "--dim": "2", "--seed": "0", "--count": "1", "--p-grid": "1,64",
    "--s-grid": "1,2", "--tol-rel": "0.5", "--suite-tol-rel": "0.5",
    "--weights": "fixed:0.5,0.5,0.5", "--field": "real", "--t": "0.5", "--r": "1.9",
    "--scalar-fixture": "1e300,2,3", "--report": "rows.csv",
}
_MODE_FLAGS = {
    "necessity": set(_CHECK_FLAG_VALUES) - {"--s-grid"},
    "contrapositive": set(_CHECK_FLAG_VALUES) - {"--s-grid"},
    "proof-steps": set(_CHECK_FLAG_VALUES) - {"--s-grid", "--tol-rel", "--scalar-fixture",
                                              "--report"},
    "limit": set(_CHECK_FLAG_VALUES) - {"--p-grid", "--weights", "--suite-tol-rel",
                                        "--scalar-fixture", "--report", "--r"},
}


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
        # a report that is not a regular file gets no sidecar
        link = tmp_path / "null.csv"
        link.symlink_to(os.devnull)
        code, _, _ = run(capsys, "check", "--mode", "necessity", "--k", "3", "--dim", "2",
                         "--count", "1", "--report", str(link))
        assert code == EXIT_OK
        assert not (tmp_path / "null.csv.json").exists()

    def test_bad_k_exits_2(self, capsys):
        code, _, _ = run(capsys, "check", "--mode", "necessity", "--k", "1")
        assert code == EXIT_USAGE

    def test_non_finite_grid_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "--mode", "necessity", "--k", "3",
                             "--dim", "2", "--count", "1", "--p-grid", "1,inf")
        assert code == EXIT_USAGE
        assert "error:" in err and "finite" in err
        assert "Traceback" not in err and "VIOLATION" not in err

    @pytest.mark.parametrize("argv", [
        ("check", "--mode", "necessity", "--k", "3", "--dim", "2", "--count", "1",
         "--p-grid", "1,1.5,1.5"),
        ("check", "--mode", "proof-steps", "--k", "3", "--dim", "2", "--count", "1",
         "--p-grid", "1,1,2"),
        ("check", "--mode", "limit", "--k", "3", "--dim", "2", "--count", "1", "--s-grid", "1,1"),
        ("search", "--budget", "1", "--p-grid", "1,1.5,1.5"),
    ])
    def test_repeated_grid_value_exits_2(self, capsys, argv):
        # each point of a grid is sampled once: a repeat would be evaluated
        # and counted twice
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: argument --") and "must ascend strictly" in err

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

    def test_limit_reads_t_from_the_pinned_t1_on(self, capsys):
        # t_2 = 0.3 sets c; --t 0.5,0.3 printed these lines when t_1 was read
        # for the length check only
        code, out, err = run(capsys, "check", "--mode", "limit", "--k", "5", "--dim", "2",
                             "--count", "2", "--t", "1,0.3")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == ["instance 0: c=1.02444 final=1.0000024 consistent=True",
                                    "instance 1: c=1.02431 final=1.0000024 consistent=True",
                                    "all expectations met"]
        # at k = 3 the pinned t_1 is the only t, so giving it changes nothing
        argv = ("check", "--mode", "limit", "--k", "3", "--dim", "2", "--count", "2")
        assert run(capsys, *argv, "--t", "1") == run(capsys, *argv)

    @pytest.mark.parametrize("k,t", [("2", "0"), ("3", "0.5"), ("3", "0.9"), ("5", "0.5,0.3")])
    def test_limit_t_that_does_not_start_at_1_exits_2(self, capsys, tmp_path, k, t):
        argv = ("check", "--mode", "limit", "--k", k, "--dim", "2", "--count", "1")
        code, out, err = run(capsys, *argv, "--t", t)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: argument --t: limit pins t_1 = 1, got "
                              f"{float(t.split(',')[0])!r}\nusage: oporder check --mode limit")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "limit", "k": int(k), "dim": 2, "count": 1, "t": t}))
        assert run(capsys, "check", "--config", str(cfg)) == (code, out, err)

    @pytest.mark.parametrize("s_grid", ["0", "-1", "nan", "10,1", "1,1"])
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

    def test_contrapositive_error_lines_count_their_own_instance_rows(self, capsys):
        # instances 2 and 3 show no failure, found or implied, and leave 7
        # and 8 of their 8 campaign rows not evaluated
        code, out, err = run(capsys, "check", "--mode", "contrapositive", "--k", "3",
                             "--dim", "1", "--count", "4", "--p-grid", "50,500")
        assert code == EXIT_INDETERMINATE
        assert err.splitlines() == [
            f"ERROR: instance {idx}: no hypothesis violation found, but {campaign} campaign "
            f"rows and {core} core rows were not evaluated"
            for idx, campaign, core in ((2, 7, 6), (3, 8, 8))]
        assert "but 29 rows were not evaluated" in out

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

    @pytest.mark.parametrize("mode,flag", [
        (mode, flag) for mode, flags in _MODE_FLAGS.items()
        for flag in sorted(set(_CHECK_FLAG_VALUES) - flags)])
    def test_flag_the_mode_ignores_exits_2(self, capsys, tmp_path, monkeypatch, mode, flag):
        monkeypatch.chdir(tmp_path)
        value = _CHECK_FLAG_VALUES[flag]
        argv = ("check", "--mode", mode, "--k", "3", "--dim", "2", "--count", "1")
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: unrecognized arguments: {flag} {value}\n"
                              f"usage: oporder check --mode {mode} [-h]")
        key = flag[2:].replace("-", "_")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": mode, "k": 3, "dim": 2, "count": 1, key: value}))
        code, out, err = run(capsys, "check", "--config", str(cfg))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: unknown config keys: ['{key}']\n")
        assert list(tmp_path.iterdir()) == [cfg]  # no report written

    @pytest.mark.parametrize("mode", sorted(_MODE_FLAGS))
    def test_help_lists_only_the_mode_flags(self, capsys, mode):
        code, out, err = run(capsys, "check", "--mode", mode, "--help")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"usage: oporder check --mode {mode} [-h]")
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == \
            _MODE_FLAGS[mode] | {"--help", "--mode", "--config", "--dump-config"}

    @pytest.mark.parametrize("mode", sorted(_MODE_FLAGS))
    def test_dump_config_holds_the_mode_keys_and_round_trips(self, capsys, tmp_path, mode):
        argv = ("check", "--mode", mode, "--k", "3", "--dim", "2", "--count", "1")
        code, out, _ = run(capsys, *argv, "--dump-config")
        assert code == EXIT_OK
        assert set(json.loads(out)) == {flag[2:].replace("-", "_")
                                        for flag in _MODE_FLAGS[mode]} | {"mode"}
        (tmp_path / "cfg.json").write_text(out)
        assert run(capsys, "check", "--config", str(tmp_path / "cfg.json"),
                   "--dump-config") == (EXIT_OK, out, "")
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
        ("--seed", "-1"),
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
        '"count": 2.7',
        '"k": 3.5',
        '"dim": true',
        '"weights": 5',
        '"mode": "nope"',
        '"field": "quaternion"',
    ])
    def test_bad_tolerance_or_count_in_config_exits_2(self, capsys, tmp_path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mode": "necessity", "k": 3, "dim": 2, "p_grid": "1,2", ' + entry + "}")
        code, out, err = run(capsys, "check", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "--" + entry.split('"')[1].replace("_", "-") in err
        assert "all expectations met" not in out

    @pytest.mark.parametrize("argv", [
        ("check", "--mode", "necessity", "--k", "3", "--dim", "2", "--count", "1", "--t", "0.5"),
        ("check", "--mode", "contrapositive", "--k", "3", "--dim", "2", "--count", "1",
         "--t", "0.5"),
        ("check", "--mode", "proof-steps", "--k", "3", "--dim", "2", "--count", "1",
         "--t", "0.5"),
        ("exponent", "--t", "0.5", "--p", "1,1"),
    ])
    @pytest.mark.parametrize("r", ["inf", "-inf", "nan", "0.25"])
    def test_r_that_is_not_finite_above_t_n_exits_2(self, capsys, argv, r):
        code, out, err = run(capsys, *argv, f"--r={r}")
        assert code == EXIT_USAGE
        assert err.startswith("error: r must be finite and exceed t_n = 0.5")
        assert out == ""

    def test_proof_steps_rejects_r_out_of_domain_without_t(self, capsys):
        code, out, err = run(capsys, "check", "--mode", "proof-steps", "--k", "3",
                             "--dim", "2", "--count", "1", "--r=inf")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: r must be finite")

    def test_proof_steps_applies_r_without_t(self, capsys, monkeypatch):
        templates = []
        original = cli.check_reduction_chain

        def spy(instance, *args, **kwargs):
            templates.append(instance.template)
            return original(instance, *args, **kwargs)

        monkeypatch.setattr(cli, "check_reduction_chain", spy)
        code, _, _ = run(capsys, "check", "--mode", "proof-steps", "--k", "3",
                         "--dim", "2", "--count", "2", "--r", "1.7")
        assert code == EXIT_OK
        assert [template.r for template in templates] == [1.7, 1.7]
        # t is still drawn from the contracting range
        assert all(0.75 <= template.t[0] <= 0.95 for template in templates)

    @pytest.mark.parametrize("entries,flags", [
        ({"k": "3"}, ("--k", "3")),
        ({"mode": "proof-steps", "t": "0.5", "r": "1"},
         ("--mode", "proof-steps", "--t", "0.5", "--r", "1")),
        ({"r": "-1e-300", "t": "0"}, ("--r=-1e-300", "--t", "0")),
        ({"t": 0.5, "r": 1, "seed": 2}, ("--t", "0.5", "--r", "1", "--seed", "2")),
    ])
    def test_config_entries_parse_like_flags(self, capsys, tmp_path, entries, flags):
        base = {"mode": "necessity", "dim": 2, "count": 1, "p_grid": "1,2"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, **entries}))
        via_config = run(capsys, "check", "--config", str(cfg))
        cfg.write_text(json.dumps(base))
        assert via_config == run(capsys, "check", "--config", str(cfg), *flags)
        assert via_config[0] in (EXIT_OK, EXIT_USAGE)

    def test_null_entries_take_the_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "necessity", "k": None, "dim": 2, "count": 1,
                                   "seed": None, "weights": None, "report": None}))
        assert run(capsys, "check", "--config", str(cfg)) == run(
            capsys, "check", "--mode", "necessity", "--dim", "2", "--count", "1")

    @pytest.mark.parametrize("text,message", [
        ('{"mode": "necessity", "config": "other.json"}', "unknown config keys: ['config']"),
        ('{"mode": "limit", "dump_config": true, "help": true}',
         "unknown config keys: ['dump_config', 'help']"),
        ('{"dump_config": true}', "the following arguments are required: --mode"),
        ('["mode", "necessity"]', "must hold a JSON object"),
        ('{"mode": ', "cannot read config"),
        ("[" * 100_000 + "]" * 100_000, "cannot read config"),
    ])
    def test_malformed_config_file_exits_2(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run(capsys, "check", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv,prog", [
        (("check", "--mode", "necessity", "--k", "x"), "check --mode necessity"),
        (("check", "--mode", "necessity", "--bogus"), "check --mode necessity"),
        (("check", "--mode", "limit", "--s-grid", "x"), "check --mode limit"),
        (("check", "--mode", "nope"), "check"),
        (("check", "--k", "3"), "check"),
        (("search", "--emit-stats=yes"), "search"),
    ])
    def test_parse_error_prints_the_error_then_the_usage(self, capsys, argv, prog):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        first, usage = err.split("\n", 1)
        assert first.startswith("error: ")
        assert usage.startswith(f"usage: oporder {prog} [-h]")


def _reduction_report(margins, errors: dict) -> ReductionReport:
    """A reduction of two points, p = (1, 1) and (1, 2), whose premise rows
    hold: ``margins`` lists its core, peel and scalar rows' margins (scale
    1, each check's rows in point order) and ``errors`` maps the index of
    one of those rows to the error text of an ERROR row."""
    points, size = [(1.0, 1.0), (1.0, 2.0)], 8
    row_errors = np.full(size, None, dtype=object)
    for row, text in errors.items():
        row_errors[2 + row] = dsl.EvaluationError(text)
    table = MarginTable.judged(
        [Comparison(name, points) for name in ("premise", "core", "peel", "scalar")],
        np.repeat(np.arange(4), 2), np.tile(np.arange(2), 4),
        np.array([0.5, 0.5, *margins]), np.ones(size), np.zeros(size, np.intp),
        row_errors if errors else None, SUITE_TOL_REL)
    return ReductionReport("0", table, np.ones(2))


class TestProofStepsReaders:
    """How ``check --mode proof-steps`` and ``ReductionReport.red_flags``
    read a reduction's rows: a point prints a VIOLATION line when one of its
    core, peel and scalar rows fails with a computed margin, else an ERROR
    line counting its ERROR rows; a red flag is a holding core row beside a
    computed peel or scalar failure."""

    @staticmethod
    def proof_steps(capsys, monkeypatch, report):
        monkeypatch.setattr(cli, "check_reduction_chain", lambda *args, **kwargs: report)
        return run(capsys, "check", "--mode", "proof-steps", "--k", "3", "--dim", "2",
                   "--count", "1", "--p-grid", "1,2")

    def test_a_computed_peel_failure_beside_an_error_core_row_is_a_violation(
            self, capsys, monkeypatch):
        report = _reduction_report([0.5, 0.5, -0.1, 0.5, 0.5, 0.5], {0: "core failed"})
        code, out, err = self.proof_steps(capsys, monkeypatch, report)
        assert code == EXIT_VIOLATION and out == ""
        assert err.splitlines() == ["VIOLATION: instance 0: reduction margins "
                                    "(nan, -1.000e-01, 5.000e-01) at p=(1.0, 1.0) [core failed]"]
        assert report.red_flags == []

    def test_a_point_failing_only_through_error_rows_is_indeterminate(
            self, capsys, monkeypatch):
        report = _reduction_report([0.5] * 6, {1: "core failed", 3: "peel failed"})
        code, out, err = self.proof_steps(capsys, monkeypatch, report)
        assert code == EXIT_INDETERMINATE
        assert err.splitlines() == ["ERROR: instance 0: reduction margins "
                                    "(nan, nan, 5.000e-01) at p=(1.0, 2.0) [core failed]"]
        assert out == "indeterminate: no finite violation, but 2 rows were not evaluated\n"

    def test_an_error_peel_row_under_a_holding_core_is_no_red_flag(self, capsys, monkeypatch):
        report = _reduction_report([0.5] * 6, {2: "peel failed"})
        assert report.red_flags == []
        code, _, err = self.proof_steps(capsys, monkeypatch, report)
        assert code == EXIT_INDETERMINATE
        assert err.splitlines() == ["ERROR: instance 0: reduction margins "
                                    "(5.000e-01, nan, 5.000e-01) at p=(1.0, 1.0) [peel failed]"]
        # a computed failure there is one
        assert _reduction_report([0.5, 0.5, -0.1, 0.5, 0.5, 0.5], {}).red_flags == [
            "instance 0 p=(1.0, 1.0): core bound holds but peel=-1.000e-01 scalar=5.000e-01"]


class TestFixedWeights:
    @pytest.mark.parametrize("argv", [
        ("check", "--mode", "necessity", "--k", "3", "--dim", "2", "--count", "1",
         "--p-grid", "1,2"),
        ("check", "--mode", "proof-steps", "--k", "3", "--dim", "2", "--count", "1"),
        ("search", "--budget", "3", "--k", "3"),
    ])
    @pytest.mark.parametrize("weights", [
        "fixed:inf,0.01", "fixed:-1,0.01", "fixed:nan,0.01", "fixed:0,0.01", "fixed:0.5,inf",
        "fixed:inf,inf",
    ])
    def test_out_of_domain_fixed_weights_exit_2(self, capsys, argv, weights):
        code, out, err = run(capsys, *argv, "--weights", weights)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(
            "error: argument --weights: fixed weights must be finite and positive")

    @pytest.mark.parametrize("budget", ["0", "2"])
    def test_search_weights_of_another_k_exit_2(self, capsys, budget):
        # the count is checked before any instance, so a zero budget too
        code, out, err = run(capsys, "search", "--budget", budget, "--k", "3", "--dim", "1",
                             "--weights", "fixed:0.5")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: fixed policy carries 1 weights, need 2\n"


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

    @pytest.mark.parametrize("entry", [
        '"seed": 1.5',
        '"seed": -1',
        '"emit_stats": "no"',
        '"emit_stats": 1',
        '"k": 2.5',
        '"k": 2',
        '"budget": "x"',
        '"budget": -1',
        '"dim": 0',
        '"field": "quaternion"',
        '"weights": "bogus"',
    ])
    def test_bad_entry_in_search_config_exits_2(self, capsys, tmp_path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"budget": 2, ' + entry + "}")
        code, out, err = run(capsys, "search", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and "--" + entry.split('"')[1].replace("_", "-") in err

    @pytest.mark.parametrize("entries,flags", [
        ({"k": "5"}, ("--k", "5")),
        ({"emit_stats": True, "seed": "2"}, ("--emit-stats", "--seed", "2")),
        ({"emit_stats": False, "dim": 2}, ("--dim", "2")),
    ])
    def test_config_entries_parse_like_flags(self, capsys, tmp_path, entries, flags):
        cfg = tmp_path / "cfg.json"
        findings = tmp_path / "f.json"
        cfg.write_text(json.dumps({"budget": 3, "findings": str(findings), **entries}))
        via_config = run(capsys, "search", "--config", str(cfg))
        payload = findings.read_text()
        direct = run(capsys, "search", "--budget", "3", "--findings", str(findings), *flags)
        assert via_config == direct and direct[0] == EXIT_OK
        assert findings.read_text() == payload


class TestArgparseBehaviour:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_module_run_warns_nothing(self):
        # importing the package must not import the module that -m runs
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "oporder.cli", "check",
             "--help"], capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: oporder check")


def _captured_main(argv):
    """Exit code, stdout and stderr of ``main(argv)``; an exception that
    escapes ``main`` propagates, as a traceback would end the process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# each field's values in and out of its domain: small grids, p = 1e300
# (whose necessity weight overflows to 0, an error row), weights of 1e300,
# tolerances of every size, limit sequences out to 1e300; a number as the
# weights is one fixed weight for each of the k - 1 members
_FUZZ_FIELDS = {
    "k": (("3", "4", "5"), ("2", "1")),
    "dim": (("1", "2", "3"), ("0",)),
    "count": (("1", "2"), ("0",)),
    "p-grid": (("1", "1,2", "1,1.5,4", "1,1e300", "1e300"),
               ("4,1", "1,1.5,1.5", "0.5,1", "1,nan", "1,inf", "x")),
    "tol-rel": (("1e-12", "1e-7", "1e-2", "1e300"), ("0", "-1e-7", "nan", "inf", "x")),
    "suite-tol-rel": (("1e-12", "1e-7", "1e-2", "1e300"), ("0", "-1e-7", "nan", "inf", "x")),
    "weights": (("necessity", "0.01", "0.5", "0.9", "1e300"),
                ("fixed:x", "fixed:0.5", "bogus", "0", "-1", "inf", "nan")),
    "s-grid": (("1", "1,10,100", "1,1e300", "1e300"), ("0", "10,1", "1,1", "1,nan", "x")),
}


# search's fields the same way; its budget stays small
_SEARCH_FUZZ_FIELDS = {
    "k": (("3", "4", "5"), ("2", "0")),
    "budget": (("0", "2", "4"), ("-1",)),
    "dim": (("1", "2", "1,3"), ("0", "2,0", "x", "2,2")),
    "weights": _FUZZ_FIELDS["weights"],
}


def _reads_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _fuzz_flags(draw, fields):
    """``--field value`` pairs with at most one field out of its domain, and
    the name of that field (None when every value is in its domain)."""
    broken = draw(st.sampled_from((None, None, None) + tuple(fields)))
    values = {name: draw(st.sampled_from(bad if name == broken else good))
              for name, (good, bad) in fields.items()}
    if _reads_as_float(values.get("weights", "")):
        k = max(int(values["k"]), 2)
        values["weights"] = "fixed:" + ",".join([values["weights"]] * (k - 1))
    return [token for name, value in values.items() for token in (f"--{name}", value)], broken


@st.composite
def _check_argv(draw):
    """``check --mode necessity|contrapositive|proof-steps|limit`` argv with
    the mode's own flags and at most one field out of its domain, and the
    name of that field."""
    mode = draw(st.sampled_from(sorted(_MODE_FLAGS)))
    fields = {name: values for name, values in _FUZZ_FIELDS.items()
              if f"--{name}" in _MODE_FLAGS[mode]}
    if mode == "limit":  # a limit pair is k = 2
        fields["k"] = (fields["k"][0] + ("2",), ("1",))
    flags, broken = _fuzz_flags(draw, fields)
    return ["check", "--mode", mode, "--seed", str(draw(st.integers(0, 3)))] + flags, broken


@st.composite
def _search_argv(draw):
    """``search`` argv on a small grid with at most one field out of its
    domain, and the name of that field."""
    flags, broken = _fuzz_flags(draw, _SEARCH_FUZZ_FIELDS)
    return ["search", "--p-grid", "1,2", "--seed", str(draw(st.integers(0, 3)))] + flags, broken


def _assert_exit_code_contract(code, out, err, command="check", usage=None):
    """The exit code matches the printed outcome; with ``usage`` known (a
    value out of its domain or not), exit 2 exactly when it is True."""
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_INDETERMINATE)
    assert "Traceback" not in out + err
    if usage is not None:
        assert (code == EXIT_USAGE) == usage, (code, out, err)
    if command == "search" and code != EXIT_USAGE:
        # a JSON summary, and exit 1 exactly when it holds findings
        assert (code == EXIT_VIOLATION) == (json.loads(out)["findings"] > 0)
        return
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
        assert err.startswith("error: ")


def _json_number(text):
    """The number that ``text`` reads as, or any number if it reads as none."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return st.just(kind(text))
    return st.integers(-2, 6) | st.floats()


@st.composite
def _config_entries(draw, argv_strategy):
    """The fields of an argv that ``argv_strategy`` draws as the entries of
    a config, each a string, except up to three written as a number, a
    boolean or null; and whether a value is out of its domain (None when
    that is not known).  A null entry takes its default, in its domain but
    for the mode (and fixed weights drawn for another k than a null k's
    default); a boolean is never a value; a number drawn for a text that
    reads as none is never a mode or weights, and may be anything else."""
    argv, broken = draw(argv_strategy)
    entries = {flag[2:].replace("-", "_"): value
               for flag, value in zip(argv[1::2], argv[2::2])}
    broken, unknown = set() if broken is None else {broken.replace("-", "_")}, False
    for key in draw(st.sets(st.sampled_from(sorted(entries)), max_size=3)):
        text = entries[key]
        value = entries[key] = draw(_json_number(text) | st.booleans() | st.none())
        if value is None and key != "mode":
            broken.discard(key)
            if key == "k" and text != "3" and str(entries.get("weights")).startswith("fixed:"):
                broken.add("weights")  # drawn for another k than the default 3
        elif value is None or isinstance(value, bool) or key in ("mode", "weights"):
            broken.add(key)  # no mode or weights text reads as a number
        elif not _reads_as_float(text):
            broken.discard(key)
            unknown = True
    return entries, True if broken else None if unknown else False


def _with_config(argv, entries):
    """``main(argv + ["--config", <entries as JSON>])``, captured."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(entries))
        return _captured_main([*argv, "--config", str(path)])


class TestExitCodeContract:
    @settings(max_examples=50, deadline=None)
    @given(drawn=_check_argv())
    def test_exit_code_matches_printed_outcome(self, drawn):
        argv, broken = drawn
        _assert_exit_code_contract(*_captured_main(argv), usage=broken is not None)

    @settings(max_examples=50, deadline=None)
    @given(drawn=_config_entries(_check_argv()))
    def test_config_file_entries_keep_the_contract(self, drawn):
        entries, usage = drawn
        _assert_exit_code_contract(*_with_config(["check"], entries), usage=usage)

    @settings(max_examples=30, deadline=None)
    @given(drawn=_search_argv())
    def test_search_exit_code_matches_printed_outcome(self, drawn):
        argv, broken = drawn
        _assert_exit_code_contract(*_captured_main(argv), command="search",
                                   usage=broken is not None)

    @settings(max_examples=30, deadline=None)
    @given(drawn=_config_entries(_search_argv()))
    def test_search_config_file_entries_keep_the_contract(self, drawn):
        entries, usage = drawn
        _assert_exit_code_contract(*_with_config(["search"], entries), command="search",
                                   usage=usage)


@st.composite
def _valid_argv(draw):
    """A small, valid ``check`` or ``search`` argv; flags may be omitted, and
    a check mode takes only its own flags."""
    if draw(st.booleans()):
        mode = draw(st.sampled_from(sorted(_MODE_FLAGS)))
        argv = ["check", "--mode", mode]
        fields = {"--k": ("3", "4"), "--dim": ("1", "2"), "--count": ("1", "2"),
                  "--p-grid": ("1", "1,2"), "--s-grid": ("1,10",),
                  "--tol-rel": ("1e-9", "1e-3"), "--suite-tol-rel": ("1e-7",),
                  "--weights": ("necessity", "fixed"),
                  "--field": ("real", "complex"), "--seed": ("0", "5")}
        fields = {flag: values for flag, values in fields.items() if flag in _MODE_FLAGS[mode]}
        if mode != "proof-steps" and draw(st.booleans()):
            argv += ["--t", "1" if mode == "limit" else "0.5"]  # limit pins t_1 = 1
            if "--r" in _MODE_FLAGS[mode]:
                argv += ["--r", draw(st.sampled_from(("1", "2.5")))]
            fields.pop("--k")  # one t value is k = 3
    else:
        argv = ["search", "--budget", draw(st.sampled_from(("0", "2", "4")))]
        fields = {"--k": ("3", "5"), "--dim": ("2", "1,2"), "--p-grid": ("1,2",),
                  "--weights": ("necessity", "fixed"), "--seed": ("0", "3"),
                  "--field": ("real", "complex")}
        if draw(st.booleans()):
            argv.append("--emit-stats")
    for flag, values in fields.items():
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if "fixed" in argv:
        # one fixed weight for each of the k - 1 members
        k = int(argv[argv.index("--k") + 1]) if "--k" in argv else 3
        argv[argv.index("fixed")] = "fixed:" + ",".join(["0.5"] * (k - 1))
    return argv


class TestConfigRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(argv=_valid_argv())
    def test_dumped_config_reproduces_the_run(self, argv):
        code, dumped, err = _captured_main([*argv, "--dump-config"])
        assert (code, err) == (EXIT_OK, "")
        entries = json.loads(dumped)
        assert _with_config([argv[0], "--dump-config"], entries) == (EXIT_OK, dumped, "")
        assert _with_config([argv[0]], entries) == _captured_main(argv)

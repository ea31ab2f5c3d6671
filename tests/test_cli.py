import json
import os
import pathlib
import subprocess
import sys

import pytest

import qball
from qball import SPHERE, AlgebraContext, BoundaryConfig, relation_residual
from qball.cli import main

from oracles import boundary_generators


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normal_form(capsys):
    code, out, _ = run(capsys, "normal-form", "--n", "1", "--mode", "ball",
                       "--expr", "z1'*z1")
    assert code == 0
    assert "(1 - q^2) + q^2*z1*z1'" in out


def test_normal_form_sphere(capsys):
    code, out, _ = run(capsys, "normal-form", "--n", "2", "--mode", "sphere",
                       "--expr", "1 - z1*z1' - z2*z2'")
    assert code == 0
    assert "result    : 0" in out


def test_norm_json_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "norm", "--n", "1", "--q", "1/2",
                     "--expr", "1+z1", "--trunc", "6,10", "--theta", "64",
                     "--side", "boundary", "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert report["operation"] == "norm-boundary"
    assert report["n"] == 1
    assert report["q"] == "1/2"
    assert [p["N"] for p in report["schedule"]] == [6, 10]
    assert [p["M"] for p in report["schedule"]] == [32, 64]
    assert report["result"] == pytest.approx(2.0, abs=1e-3)
    for key in ("input", "mode", "tolerances", "seed", "version"):
        assert key in report


def test_maxprinciple(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "maxprinciple", "--n", "1", "--q", "1/2",
                       "--expr", "1+z1", "--trunc", "10,20,40",
                       "--theta", "4096", "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert report["gap"] < 1e-2
    assert report["holomorphic"] is True
    assert report["result"]["ball"] == pytest.approx(2.0, abs=1e-3)


def test_reports_are_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "norm", "--n", "2", "--q", "1/2",
                         "--expr", "z1+z2", "--trunc", "4,6", "--theta", "8",
                         "--json", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_export(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, _, _ = run(capsys, "norm", "--n", "1", "--expr", "z1",
                     "--trunc", "4,6", "--theta", "8", "--csv", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "N,M,value"
    assert len(lines) == 3


def test_relations_residual_pass(capsys):
    code, out, _ = run(capsys, "relations-residual", "--n", "2", "--q", "1/2",
                       "--trunc", "8")
    assert code == 0
    assert "PASS" in out


def test_relations_residual_boundary(capsys):
    code, out, _ = run(capsys, "relations-residual", "--n", "2", "--q", "1/2",
                       "--trunc", "8", "--side", "boundary")
    assert code == 0
    assert "PASS" in out


def test_confluence_fuzz(capsys):
    code, out, _ = run(capsys, "confluence-fuzz", "--n", "3", "--count", "50",
                       "--seed", "7")
    assert code == 0
    assert "PASS" in out


def test_pbw_rank(capsys):
    code, out, _ = run(capsys, "pbw-rank", "--n", "2", "--degree", "2",
                       "--trunc", "8")
    assert code == 0
    assert "PASS" in out


def test_ci_check(capsys):
    code, out, _ = run(capsys, "ci-check", "--n", "2", "--q", "1/2",
                       "--expr", "[z1, z2; 0, z1]", "--trunc", "6,9,12",
                       "--theta", "64")
    assert code == 0
    assert "PASS" in out


def test_ci_check_failure_exit_code(capsys):
    # an impossible gap threshold forces exit code 4
    code, out, _ = run(capsys, "ci-check", "--n", "1", "--q", "1/2",
                       "--expr", "1+z1", "--trunc", "4", "--theta", "4",
                       "--threshold", "1e-30")
    assert code in (0, 4)  # gap may be exactly 0 on coarse schedules
    # make it definitely fail: non-holomorphic input has gap 1
    code, out, _ = run(capsys, "ci-check", "--n", "1", "--q", "1/2",
                       "--expr", "1-z1*z1'", "--trunc", "6", "--theta", "8",
                       "--threshold", "1e-3")
    assert code == 4
    assert "FAIL" in out


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "normal-form", "--n", "2", "--expr", "z3")
    assert code == 2
    assert "error" in err


def test_bad_q_exit_code(capsys):
    code, _, err = run(capsys, "norm", "--n", "1", "--expr", "z1",
                       "--q", "2", "--trunc", "4")
    assert code == 2


def test_missing_expression(capsys):
    code, _, err = run(capsys, "norm", "--n", "1", "--trunc", "4")
    assert code == 2


def test_confluence_fuzz_rejects_negative_count(capsys):
    code, out, err = run(capsys, "confluence-fuzz", "--n", "2",
                         "--count", "-3")
    assert code == 2
    assert "--count must be nonnegative" in err
    assert "PASS" not in out


def test_confluence_fuzz_rejects_zero_generators(capsys):
    code, out, err = run(capsys, "confluence-fuzz", "--n", "0",
                         "--count", "3")
    assert code == 2
    assert "--n must be at least 1" in err
    assert "PASS" not in out


def test_norm_report_has_stabilized_flag(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "norm", "--n", "1", "--expr", "z1",
                     "--trunc", "10,12,14", "--theta", "16",
                     "--json", str(path))
    assert code == 0
    assert json.loads(path.read_text())["stabilized"] is True


@pytest.mark.parametrize("command, expr", [
    ("maxprinciple", "z1+z2'*z1"),
    ("ci-check", "z1+z2"),
])
def test_gap_reports_stabilized_and_deterministic(capsys, tmp_path, command,
                                                  expr):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, command, "--n", "2", "--q", "1/2",
                         "--expr", expr, "--trunc", "4,6", "--theta", "8",
                         "--json", str(path))
        assert code in (0, 4)
    assert a.read_bytes() == b.read_bytes()
    stabilized = json.loads(a.read_text())["stabilized"]
    assert set(stabilized) == {"ball", "boundary"}
    assert all(isinstance(v, bool) for v in stabilized.values())


# argv that each subcommand runs with (test_report_nulls_flags_not_taken
# checks it exits 0), so only an added flag can make argparse reject a call.
_BASE_ARGV = {
    "normal-form": ["--n", "1", "--expr", "z1"],
    "norm": ["--n", "1", "--expr", "z1", "--trunc", "4"],
    "maxprinciple": ["--n", "1", "--expr", "z1", "--trunc", "4"],
    "ci-check": ["--n", "1", "--expr", "z1", "--trunc", "4"],
    "relations-residual": ["--n", "1", "--trunc", "4"],
    "confluence-fuzz": ["--n", "1", "--count", "1"],
    "pbw-rank": ["--n", "1", "--trunc", "4"],
}
_FLAG_VALUES = {"--seed": "1", "--csv": "table.csv", "--mode": "ball",
                "--theta": "8", "--tol": "1e-3"}


# Flags each subcommand does not read, and --tol on the three commands whose
# pass bound is --threshold.
@pytest.mark.parametrize("command, flag", [
    ("normal-form", "--seed"), ("normal-form", "--csv"),
    ("norm", "--mode"), ("norm", "--seed"),
    ("maxprinciple", "--mode"), ("maxprinciple", "--seed"),
    ("ci-check", "--mode"), ("ci-check", "--seed"), ("ci-check", "--tol"),
    ("relations-residual", "--mode"), ("relations-residual", "--seed"),
    ("relations-residual", "--theta"), ("relations-residual", "--tol"),
    ("confluence-fuzz", "--csv"),
    ("pbw-rank", "--mode"), ("pbw-rank", "--seed"), ("pbw-rank", "--theta"),
    ("pbw-rank", "--tol"),
])
def test_flag_not_taken_exits_2(capsys, tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    argv = [command] + _BASE_ARGV[command] + [flag, _FLAG_VALUES[flag]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, mode, seed", [
    ("normal-form", "ball", None),
    ("norm", None, None),
    ("maxprinciple", None, None),
    ("ci-check", None, None),
    ("relations-residual", None, None),
    ("confluence-fuzz", "ball", 0),
    ("pbw-rank", None, None),
])
def test_report_nulls_flags_not_taken(capsys, tmp_path, command, mode, seed):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, command, *_BASE_ARGV[command],
                       "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert (report["mode"], report["seed"]) == (mode, seed)
    assert ("mode=" in out) == (mode is not None)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 4, 8])
def test_boundary_residual_on_one_block(capsys, tmp_path, n, M):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "relations-residual", "--n", str(n), "--q", "1/2",
                     "--trunc", "8", "--side", "boundary", "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    full = relation_residual(boundary_generators(BoundaryConfig(n, 8, M, 0.5)),
                             AlgebraContext(n, SPHERE), 0.5)
    assert report["result"] == pytest.approx(full, abs=1e-15)
    assert report["schedule"] == [{"N": 8, "M": None,
                                   "value": report["result"]}]


@pytest.mark.parametrize("n, expr", [
    (1, "1+z1"),
    (2, "z1+z2'*z1"),
    (3, "z1*z2 - 2*z3'"),
])
def test_ci_check_scalar_matches_explicit_diagonal(capsys, tmp_path, n, expr):
    reports = []
    for argv in (["--expr", expr, "--level", "3"],
                 ["--expr", f"[{expr}, 0, 0; 0, {expr}, 0; 0, 0, {expr}]"]):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "ci-check", "--n", str(n), "--q", "1/2",
                         "--trunc", "4,6", "--theta", "8", *argv,
                         "--json", str(path))
        assert code in (0, 4)
        reports.append(json.loads(path.read_text()))
    scalar, diagonal = reports
    assert scalar["input"].startswith("[") and scalar["input"].count(";") == 2
    for side in ("ball", "boundary"):
        assert scalar["result"][side] == pytest.approx(
            diagonal["result"][side], abs=1e-12)
    assert scalar["gap"] == pytest.approx(diagonal["gap"], abs=1e-12)
    assert scalar["holomorphic"] == diagonal["holomorphic"]


@pytest.mark.parametrize("argv, message", [
    (["--expr", "[z1, 0; 0, z1]", "--level", "2"], "--level applies"),
    (["--expr", "z1", "--level", "0"], "--level must be at least 1"),
])
def test_ci_check_level_errors(capsys, argv, message):
    code, out, err = run(capsys, "ci-check", "--n", "1", "--trunc", "4", *argv)
    assert code == 2
    assert message in err
    assert "PASS" not in out


@pytest.mark.parametrize("command", ["relations-residual", "pbw-rank"])
@pytest.mark.parametrize("trunc", ["6,8", ""])
def test_single_point_commands_take_one_truncation(capsys, command, trunc):
    code, out, err = run(capsys, command, "--n", "2", "--trunc", trunc)
    assert code == 2
    assert "--trunc takes one truncation" in err
    assert "PASS" not in out


@pytest.mark.parametrize("command, threshold, key", [
    ("relations-residual", "-1", "residual"),
    ("pbw-rank", "1e9", "min_singular"),
])
def test_threshold_sets_pass_bound(capsys, tmp_path, command, threshold, key):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, command, *_BASE_ARGV[command],
                       "--threshold", threshold, "--json", str(path))
    assert code == 4
    assert "FAIL" in out
    assert json.loads(path.read_text())["tolerances"] == {key: float(threshold)}


def test_norm_theta_not_a_power_of_two_stays_monotone(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "norm", "--side", "boundary", "--n", "1",
                     "--expr", "1-z1", "--trunc", "2,4,6", "--theta", "10",
                     "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert [p["M"] for p in report["schedule"]] == [5, 5, 10]
    values = [p["value"] for p in report["schedule"]]
    assert values == sorted(values)
    assert report["result"] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("command", ["norm", "maxprinciple", "ci-check"])
@pytest.mark.parametrize("theta", ["0", "-8"])
def test_theta_below_one_is_an_input_error(capsys, command, theta):
    code, out, err = run(capsys, command, "--n", "1", "--expr", "1+z1",
                         "--trunc", "4,8", "--theta", theta)
    assert code == 2
    assert "theta must be at least 1" in err
    assert "PASS" not in out


@pytest.mark.parametrize("command, expr, n, invariant", [
    ("norm", "z1+z2", 2, True),
    ("norm", "1+z1", 1, False),
    ("maxprinciple", "z1'*z2 + z3^2*z1 + z1^2", 3, True),
    ("maxprinciple", "1 + z1 + z2", 2, False),
    ("ci-check", "1/2*z3 + (1-i)*z2*z2 + (1-i)*z2*z1", 3, True),
    ("ci-check", "z1 + z1^2", 1, False),
])
def test_reports_say_which_omega_case_applied(capsys, tmp_path, command,
                                              expr, n, invariant):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, command, "--n", str(n), "--expr", expr,
                     "--trunc", "4,6", "--theta", "16", "--json", str(path))
    assert code in (0, 4)
    report = json.loads(path.read_text())
    upper = report["omega"]["circle_upper"]
    assert report["omega"]["invariant"] is invariant
    assert len(upper) == len(report["schedule"]) == 2
    # a gap report bounds its boundary side, whose final value it reports
    values = ([p["value"] for p in report["schedule"]] if command == "norm"
              else [report["result"]["boundary"]])
    for value, bound in zip(values[::-1], upper[::-1]):
        assert bound == value if invariant else bound > value


# Two runs with different flags: every flag of the second either differs
# from the first or is left at its default.
_TWO_RUNS = [
    ["norm", "--side", "boundary", "--n", "1", "--q", "2/3", "--expr",
     "1+z1", "--trunc", "4,8", "--theta", "32", "--tol", "1e-6"],
    ["norm", "--n", "2", "--expr", "z1+z2'*z1", "--trunc", "6"],
    ["maxprinciple", "--n", "2", "--expr", "z1+z2", "--trunc", "4,6",
     "--theta", "8"],
    ["ci-check", "--n", "1", "--expr", "z1 + z1^2", "--level", "3",
     "--threshold", "1", "--trunc", "4,6"],
    ["maxprinciple", "--n", "1", "--expr", "1-z1", "--trunc", "4"],
]


def test_one_process_reports_equal_fresh_processes(capsys, tmp_path):
    """The parser is built once per process; reusing it must not carry
    anything from one call into the next."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qball.__file__).parents[1]))
    for k, argv in enumerate(_TWO_RUNS):
        fresh = tmp_path / f"fresh{k}.json"
        subprocess.run([sys.executable, "-m", "qball.cli", *argv,
                        "--json", str(fresh)], env=env, check=True,
                       capture_output=True)
        again = tmp_path / f"again{k}.json"
        code, _, _ = run(capsys, *argv, "--json", str(again))
        assert code == 0
        assert again.read_bytes() == fresh.read_bytes()

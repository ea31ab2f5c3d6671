import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
import scipy.sparse.linalg

import qball
from qball import (BALL, SPHERE, AlgebraContext, BoundaryConfig, norms,
                   relation_residual)
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


def test_norm_scaled_by_a_power_of_two_is_exact(capsys, tmp_path):
    """At q = 1/2, q^600 is exactly 2^-600: the values lie far outside the
    range where squaring the entries keeps sigma_1, and the kernel's
    power-of-two scale reports them exactly."""
    def result(expr):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "norm", "--side", "ball", "--n", "2",
                         "--q", "1/2", "--expr", expr, "--trunc", "4,6",
                         "--theta", "8", "--json", str(path))
        assert code == 0
        return json.loads(path.read_text())["result"]

    value = result("z1")
    assert result("q^600*z1") == math.ldexp(value, -600) == 2.409919865102884e-181
    assert result("q^-600*z1") == math.ldexp(value, 600) == 4.149515568880993e+180


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


def test_norm_convergence_exit_code(capsys, monkeypatch):
    """An ARPACK failure exits 3 with the value before it and no summary:
    only the 220 x 220 component at N = 10 is above the dense limit, so
    the last value is the Fock value at N = 8."""
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("No convergence", [], [])

    monkeypatch.setattr(norms, "_DENSE_LIMIT", 200)
    monkeypatch.setattr(scipy.sparse.linalg, "svds", no_convergence)
    code, out, err = run(capsys, "norm", "--n", "3", "--expr", "1+z1+z2+z3",
                         "--trunc", "6,8,10", "--theta", "1")
    assert code == 3
    assert out == ""
    assert err == ("numerical error: svds did not converge on a 220 x 220 "
                   "component (last value 2.62345)\n")


def test_bad_q_exit_code(capsys):
    for q, message in [("2", "q must lie in (0, 1), got 2"),
                       ("abc", "bad q value 'abc'"),
                       ("1/0", "bad q value '1/0'")]:
        code, _, err = run(capsys, "norm", "--n", "1", "--expr", "z1",
                           "--q", q, "--trunc", "4")
        assert code == 2
        assert message in err


def test_missing_expression(capsys):
    code, _, err = run(capsys, "norm", "--n", "1", "--trunc", "4")
    assert code == 2


@pytest.mark.parametrize("expr, message", [
    ("q^-2000*z1", "not a finite float"),
    ("2^1100*z1", "not a finite float"),
    ("2^1000*q^-100*z1", "not a finite float"),
    ("2^1023*z1*z1' + 2^1023*z1'*z1 + 2^1023", "nan or infinite entry"),
])
def test_norm_refuses_values_that_are_not_finite(capsys, expr, message):
    code, out, err = run(capsys, "norm", "--n", "1", "--expr", expr,
                         "--trunc", "4,6", "--theta", "8")
    assert code == 2
    assert message in err
    assert "result" not in out


@pytest.mark.parametrize("expr", ["2^-1100*z1", "q^1100*z1"])
def test_norm_refuses_coefficients_that_underflow_to_zero(capsys, expr):
    """A nonzero coefficient below 2^-1074 would read as 0: a lower bound
    that says nothing."""
    code, out, err = run(capsys, "norm", "--n", "1", "--q", "1/2",
                         "--expr", expr, "--trunc", "4,6", "--theta", "8")
    assert code == 2
    assert "underflows to 0" in err
    assert "result" not in out


def test_norm_of_an_exactly_cancelling_coefficient_is_zero(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "norm", "--n", "1", "--q", "1/2",
                     "--expr", "(1-2*q)*z1", "--trunc", "4,6", "--theta", "8",
                     "--json", str(path))
    assert code == 0
    assert json.loads(path.read_text())["result"] == 0.0


@pytest.mark.parametrize("expr", ["0", "[0, 0]"])
@pytest.mark.parametrize("side", ["ball", "boundary"])
def test_norm_of_zero_is_zero(capsys, tmp_path, expr, side):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "norm", "--side", side, "--n", "2",
                     "--expr", expr, "--trunc", "4,6", "--theta", "8",
                     "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert report["result"] == 0.0
    assert [p["value"] for p in report["schedule"]] == [0.0, 0.0]


def test_pbw_rank_rejects_negative_degree(capsys):
    code, out, err = run(capsys, "pbw-rank", "--n", "2", "--degree", "-1",
                         "--trunc", "4")
    assert code == 2
    assert "--degree must be nonnegative" in err
    assert "PASS" not in out


def test_pbw_rank_below_its_degree_is_an_input_error(capsys):
    """z1^3 vanishes in P_2: a truncation below the degree cannot show
    independence, so it is refused rather than reported as a FAIL."""
    code, out, err = run(capsys, "pbw-rank", "--n", "2", "--degree", "3",
                         "--trunc", "2")
    assert code == 2
    assert "truncation too small" in err
    assert "FAIL" not in out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("argv", [
    ("--expr", "z1^3", "--trunc", "3"),
    ("--expr", "z1'*z1", "--trunc", "1,4"),
])
def test_boundary_norm_below_degree_plus_one_is_an_input_error(capsys, n,
                                                               argv):
    """The truncation rule N >= deg + 1 holds on the boundary side at every
    n, the n = 1 circle included."""
    code, out, err = run(capsys, "norm", "--side", "boundary", "--n", str(n),
                         "--theta", "8", *argv)
    assert code == 2
    assert "truncation too small" in err
    assert "PASS" not in out


def test_a_truncation_of_zero_is_the_one_vector_fock_space(capsys, tmp_path):
    """N = 0 keeps the vacuum alone: the one canonical monomial of degree 0
    has the 1 x 1 Gram matrix 1, and a norm or a residual at N = 0 is
    refused by the truncation rule, not by the configuration."""
    out_path = tmp_path / "pbw.json"
    code, _, _ = run(capsys, "pbw-rank", "--n", "1", "--degree", "0",
                     "--trunc", "0", "--json", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["result"] == 1.0
    code, _, err = run(capsys, "norm", "--n", "2", "--expr", "z1",
                       "--trunc", "0", "--theta", "8")
    assert code == 2
    assert "N=0 < deg+1=2" in err
    code, _, err = run(capsys, "relations-residual", "--n", "2",
                       "--trunc", "0")
    assert code == 2
    assert "N=0 < L=2" in err


def test_boundary_residual_below_two_letters_is_an_input_error(capsys):
    code, _, err = run(capsys, "relations-residual", "--side", "boundary",
                       "--n", "1", "--trunc", "1")
    assert code == 2
    assert "truncation too small" in err


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
    code, out, err = run(capsys, "normal-form", "--n", "0", "--expr", "1")
    assert code == 2
    assert "need n >= 1 generators, got 0" in err
    assert out == ""


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
def test_gap_reports_stabilized(capsys, tmp_path, command, expr):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, command, "--n", "2", "--q", "1/2",
                     "--expr", expr, "--trunc", "4,6", "--theta", "8",
                     "--json", str(path))
    assert code in (0, 4)
    stabilized = json.loads(path.read_text())["stabilized"]
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


@pytest.mark.parametrize("trunc", ["4,,8", "8,"])
def test_an_empty_truncation_entry_is_an_input_error(capsys, trunc):
    code, out, err = run(capsys, "norm", "--n", "2", "--expr", "z1",
                         "--trunc", trunc, "--theta", "8")
    assert code == 2
    assert "bad truncation schedule" in err
    assert "value=" not in out


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


# Values --tol and --threshold reject: not finite, and for --tol also not
# positive.
@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for command, flag in [("norm", "--tol"), ("maxprinciple", "--tol"),
                          ("ci-check", "--threshold"),
                          ("relations-residual", "--threshold"),
                          ("pbw-rank", "--threshold")]
    for value in ["nan", "inf", "-inf"] + (["0", "-1e-3"]
                                           if flag == "--tol" else [])
])
def test_bound_flags_reject_bad_values(capsys, tmp_path, monkeypatch,
                                       command, flag, value):
    monkeypatch.chdir(tmp_path)
    argv = [command] + _BASE_ARGV[command] + [f"{flag}={value}",
                                               "--json", "report.json"]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "PASS" not in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


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


def _low_recursion_limit(argv):
    """argv run as a qball command in a fresh process whose recursion
    limit is 300."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qball.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.setrecursionlimit(300); "
         "from qball.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True)


@pytest.mark.parametrize("argv, deep, shallow", [
    (["norm", "--n", "1", "--trunc", "2,3", "--theta", "4"],
     "(" * 300 + "z1" + ")" * 300, "(" * 40 + "z1" + ")" * 40),
], ids=["parser"])
def test_too_deep_expression_is_an_input_error(argv, deep, shallow):
    """Parentheses nested too deep for the parser's recursion exit 2 with
    an error line and no traceback; a shallow input still succeeds under
    the same lowered limit."""
    done = _low_recursion_limit(argv + ["--expr", deep])
    assert done.returncode == 2
    assert done.stderr.startswith("error: expression too deep")
    assert "Traceback" not in done.stderr
    assert _low_recursion_limit(argv + ["--expr", shallow]).returncode == 0


@pytest.mark.parametrize("mode", [BALL, SPHERE])
def test_long_word_normalizes_without_recursion(mode):
    """The rewriter folds a word's letters in a loop, so a product of
    1 200 letters normalizes under a recursion limit of 300."""
    done = _low_recursion_limit(["normal-form", "--n", "2", "--mode", mode,
                                 "--expr", "(z1*z2)^600"])
    assert done.returncode == 0, done.stderr
    assert "result    : q^-179700*z1^600*z2^600\n" in done.stdout


@pytest.mark.parametrize("q", ["0.50000000000001", "0.0000000000001",
                               "1e-13", "0.3", "2/3"])
def test_q_is_read_exactly(capsys, tmp_path, q):
    """A decimal --q is the float nearest its exact value, however many
    places it has: ||q*z1|| = q."""
    path = tmp_path / "report.json"
    code, _, err = run(capsys, "norm", "--n", "1", "--q", q, "--expr", "q*z1",
                       "--trunc", "4,6", "--theta", "8", "--json", str(path))
    assert code == 0, err
    report = json.loads(path.read_text())
    assert report["q"] == q
    assert report["result"] == float(Fraction(q))


@pytest.mark.parametrize("q", ["1e400", "0.99999999999999999", "1e-400",
                               "0", "-1/2"])
def test_q_outside_the_unit_interval_as_a_float_is_an_input_error(capsys, q):
    """q is checked after its rounding to a float, so a value that rounds
    to 0 or 1 is refused."""
    code, out, err = run(capsys, "norm", "--n", "1", f"--q={q}", "--expr",
                         "z1", "--trunc", "4", "--theta", "8")
    assert code == 2
    assert "q must lie in (0, 1)" in err
    assert out == ""


@pytest.mark.parametrize("command", ["norm", "maxprinciple", "ci-check",
                                     "normal-form"])
def test_expr_file_reads_the_stripped_text(capsys, tmp_path, command):
    source = tmp_path / "expr.txt"
    source.write_text("\n  z1 + z2*z1'\n\n")
    argv = [command, "--n", "2"] + (["--mode", "sphere"]
                                    if command == "normal-form"
                                    else ["--trunc", "4,6", "--theta", "8"])
    reports = []
    for expr in (["--expr", "z1 + z2*z1'"], ["--expr-file", str(source)]):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, *argv, *expr, "--json", str(path))
        assert code in (0, 4)
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_missing_expr_file_is_an_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "norm", "--n", "1", "--trunc", "4",
                         "--expr-file", str(tmp_path / "missing.txt"))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("command", sorted(_BASE_ARGV))
def test_unwritable_json_path_is_an_input_error(capsys, tmp_path, command):
    code, out, err = run(capsys, command, *_BASE_ARGV[command],
                         "--json", str(tmp_path / "missing" / "report.json"))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not any(line == "PASS" or line.startswith("FAIL")
                   for line in out.splitlines())


_CHECKS = {"ci-check", "relations-residual", "confluence-fuzz", "pbw-rank"}


@pytest.mark.parametrize("command, extra, verdict", [
    (command, [], "PASS" if command in _CHECKS else None)
    for command in sorted(_BASE_ARGV)
] + [
    ("ci-check", ["--threshold", "-1"], "FAIL"),
    ("relations-residual", ["--threshold", "-1"], "FAIL"),
    ("pbw-rank", ["--threshold", "1e9"], "FAIL"),
])
def test_checks_end_with_one_verdict_line(capsys, command, extra, verdict):
    code, out, _ = run(capsys, command, *_BASE_ARGV[command], *extra)
    lines = out.splitlines()
    verdicts = [line for line in lines
                if line == "PASS" or line.startswith("FAIL: ")]
    if verdict is None:
        assert code == 0 and verdicts == []
    else:
        assert code == (0 if verdict == "PASS" else 4)
        assert verdicts == [lines[-1]]
        assert lines[-1].startswith(verdict)


@pytest.mark.parametrize("command, attribute", [
    ("norm", "parse_expression"),
    ("norm", "ball_norm"),
    ("maxprinciple", "max_principle_report"),
    ("ci-check", "print_matrix"),
    ("confluence-fuzz", "random_poly_stream"),
    ("pbw-rank", "pbw_gram_min_singular"),
])
def test_handlers_call_the_library_through_the_module(capsys, monkeypatch,
                                                      command, attribute):
    """A wrapper set on a qball.cli attribute, as the benchmark's tracer
    sets them, sees the handler's call."""
    calls = []
    original = getattr(qball.cli, attribute)

    def wrapped(*args, **kwargs):
        calls.append(attribute)
        return original(*args, **kwargs)

    monkeypatch.setattr(qball.cli, attribute, wrapped)
    code, _, _ = run(capsys, command, *_BASE_ARGV[command])
    assert code == 0
    assert calls

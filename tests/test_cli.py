import json

import pytest

from qball.cli import main


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
                       "--trunc", "8", "--side", "boundary", "--theta", "8")
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
                       "--tol", "1e-30")
    assert code in (0, 4)  # gap may be exactly 0 on coarse schedules
    # make it definitely fail: non-holomorphic input has gap 1
    code, out, _ = run(capsys, "ci-check", "--n", "1", "--q", "1/2",
                       "--expr", "1-z1*z1'", "--trunc", "6", "--theta", "8",
                       "--tol", "1e-3")
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

"""The corpus of command lines (tests/corpus.py), run through qball.cli.main;
that module's docstring lists what is checked."""

import csv
import json
import os
import pathlib
import shlex
import subprocess
import sys

import qball
from qball import AlgebraContext, MatPoly, normalize, parse_expression
from qball.cli import main

from corpus import CORPUS

# Subcommands that take --csv.
CSV_COMMANDS = {"norm", "maxprinciple", "ci-check", "relations-residual",
                "pbw-rank"}


def _outputs(entry, directory: pathlib.Path, k: int) -> list:
    """The report paths entry k writes into directory: JSON, and CSV where
    its subcommand takes --csv."""
    paths = [directory / f"{k}.json"]
    if entry.argv[0] in CSV_COMMANDS:
        paths.append(directory / f"{k}.csv")
    return paths


def _flags(paths: list) -> list:
    return [word for path, flag in zip(paths, ("--json", "--csv"))
            for word in (flag, str(path))]


def _run(capsys, argv: list) -> int:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's exit
        code = exc.code
    capsys.readouterr()
    return code


def _is_normal_form_of_input(report: dict) -> bool:
    ctx = AlgebraContext(report["n"], report["mode"])
    given = parse_expression(report["input"], report["n"])
    result = parse_expression(report["result"], report["n"])
    if isinstance(given, MatPoly):
        return (isinstance(result, MatPoly) and result.shape == given.shape
                and all(normalize(f, ctx) == g
                        for given_row, result_row in zip(given.entries,
                                                         result.entries)
                        for f, g in zip(given_row, result_row)))
    return normalize(given, ctx) == result


def _csv_rows_are_the_schedule(path: pathlib.Path, report: dict) -> bool:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows == [["N", "M", "value"]] + [
        [str(point["N"]), "" if point["M"] is None else str(point["M"]),
         repr(point["value"])] for point in report["schedule"]]


def test_corpus(capsys, tmp_path):
    runs = list(enumerate(CORPUS))
    failures, wrong_code = [], set()

    def fail(what: str, entry) -> None:
        failures.append(f"{what}: qball {shlex.join(entry.argv)}")

    for name, order in (("forward", runs), ("reversed", runs[::-1])):
        (tmp_path / name).mkdir()
        for k, entry in order:
            paths = _outputs(entry, tmp_path / name, k)
            if _run(capsys, list(entry.argv) + _flags(paths)) != entry.code:
                fail(f"exit code in the {name} pass", entry)
                wrong_code.add(k)

    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(qball.__file__).parents[1]))
    reports, named = {}, {}
    for k, entry in runs:
        if k in wrong_code:
            continue
        forward = _outputs(entry, tmp_path / "forward", k)
        again = _outputs(entry, tmp_path / "reversed", k)
        if entry.code == 2:
            if any(path.exists() for path in forward + again):
                fail("report of an input error", entry)
            continue
        if any(a.read_bytes() != b.read_bytes()
               for a, b in zip(forward, again)):
            fail("bytes differ between the passes", entry)
        if entry.fresh:
            fresh = _outputs(entry, tmp_path, k)
            done = subprocess.run([sys.executable, "-m", "qball.cli",
                                   *entry.argv, *_flags(fresh)], env=env,
                                  capture_output=True)
            if done.returncode != entry.code or any(
                    a.read_bytes() != b.read_bytes()
                    for a, b in zip(forward, fresh)):
                fail("fresh process differs", entry)
        report = reports[k] = json.loads(forward[0].read_text())
        if entry.name is not None:
            named[entry.name] = report
        if entry.argv[0] == "norm":
            values = [point["value"] for point in report["schedule"]]
            if any(b < a for a, b in zip(values, values[1:])):
                fail("schedule decreases", entry)
        if (entry.argv[0] == "normal-form"
                and not _is_normal_form_of_input(report)):
            fail("not the normal form of the input", entry)
        if len(forward) == 2 and not _csv_rows_are_the_schedule(forward[1],
                                                                report):
            fail("CSV rows differ from the schedule", entry)

    for k, entry in runs:
        if entry.check is not None and not (
                k in reports and entry.check(reports[k], named)):
            fail("check", entry)
    assert not failures, "\n".join(failures)

"""Compare the --json reports of this tree with those of a git revision.

    python tools/compare_reports.py REV

REV (a commit, branch or tag) is exported with `git archive` into a
temporary directory.  Each tree runs one fixed list of argvs through
qball.cli.main, in one process per BLAS thread count (1 and 2) with the
tree's own src/ first on the path, and each report goes to a temporary
file.  The list is every distinct argv of the benchmark's reference pools
(bench/refs/*.json of this tree, only read) and relations-residual on both
sides for n = 1..4.  The script prints each argv whose exit code or report
bytes differ between the two trees at one thread count, then a summary,
and exits 1 on any difference, else 0.
"""

from __future__ import annotations

import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
THREADS = (1, 2)

# Reads a JSON list of argvs on stdin and writes a JSON list of
# [exit code, report text or null] on stdout; the summaries the CLI prints
# are discarded.
RUNNER = """
import contextlib, io, json, os, sys
from qball.cli import main
results = []
for i, argv in enumerate(json.load(sys.stdin)):
    path = f"report-{i}.json"
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv + ["--json", path])
        except SystemExit as exc:
            code = exc.code
    text = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    results.append([code, text])
json.dump(results, sys.__stdout__)
"""


def argv_list() -> list:
    """The reference pools' distinct argvs, in pool and slot order, then
    relations-residual on both sides for n = 1..4."""
    argvs = []
    for pool in sorted((ROOT / "bench" / "refs").glob("*.json")):
        slots = json.loads(pool.read_text(encoding="utf-8"))["slots"]
        for variant in (v for slot in slots for v in slot):
            if variant["argv"] not in argvs:
                argvs.append(variant["argv"])
    return argvs + [["relations-residual", "--side", side, "--n", str(n),
                     "--q", "1/2", "--trunc", "8"]
                    for side in ("fock", "boundary") for n in range(1, 5)]


def run(tree: pathlib.Path, argvs: list, threads: int) -> list:
    """[exit code, report text] of each argv, run on tree in one process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = str(threads)
    with tempfile.TemporaryDirectory(prefix="qball-reports-") as work:
        done = subprocess.run([sys.executable, "-c", RUNNER],
                              input=json.dumps(argvs), capture_output=True,
                              text=True, env=env, cwd=work, check=True)
    return json.loads(done.stdout)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = argv[1]
    argvs = argv_list()
    differing = failed = 0
    with tempfile.TemporaryDirectory(prefix="qball-rev-") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for threads in THREADS:
            theirs = run(pathlib.Path(tmp), argvs, threads)
            ours = run(ROOT, argvs, threads)
            for args, mine, other in zip(argvs, ours, theirs):
                failed += mine[0] != 0
                if mine != other:
                    differing += 1
                    print(f"differs at {threads} BLAS thread(s), exit "
                          f"{other[0]} -> {mine[0]}: qball {shlex.join(args)}")
    print(f"{len(argvs)} argvs at {' and '.join(map(str, THREADS))} BLAS "
          f"threads against {rev}: {differing} differ; {failed} runs of this "
          f"tree exit nonzero")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Compare the --json reports of this tree with those of a git revision.

    python tools/compare_reports.py REV

REV (a commit, branch or tag) is exported with `git archive` into a
temporary directory.  The argvs are the entries of this tree's corpus
(tests/corpus.py), then every further distinct argv of the benchmark's
reference pools (bench/refs/*.json of this tree, only read) and of the
fuzz-stream ops of seeds 1 and 20041 (bench/workloads.build_ops, only
called): 763 distinct confluence-fuzz argvs among those 1 000 ops.  Each
tree, with its own src/ first on the path, runs them at 1 and at 2 BLAS
threads:

* all argvs through qball.cli.main in one process, each report going to a
  temporary file;
* each corpus argv again in a fresh interpreter of its own.

The script prints each argv whose exit code or report bytes differ between
the two trees at one thread count, each run whose exit code is not the one
the corpus expects (0 for any other argv), each run that raised an
exception out of main (also counted as a difference between the trees), and
each corpus argv whose fresh-process bytes differ from its one-process
bytes in either tree.  Then it prints a summary and exits 1 if any of these
occurred, else 0.  On a 2-vCPU VM a whole comparison of the 968 argvs
took 37 s.  Most of it is the 244 fresh runs (61 corpus argvs, 2 thread
counts, 2 trees); one process runs the 763 fuzz-stream argvs in 1.2 s and
the other 205 in 1.3 s.
"""

from __future__ import annotations

import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
THREADS = (1, 2)
FUZZ_SEEDS = (1, 20041)
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "bench"))

from corpus import CORPUS  # noqa: E402
from workloads import build_ops  # noqa: E402

# Reads a JSON list of argvs on stdin and writes a JSON list of
# [exit code, report text or null] on stdout; the exit code of a run that
# raised is the text "raised " and the exception.  The summaries the CLI
# prints are discarded.
RUNNER = """
import contextlib, io, json, os, sys
from qball.cli import main
results = []
for argv in json.load(sys.stdin):
    path = "report.json"
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv + ["--json", path])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    text = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        os.remove(path)
    results.append([code, text])
json.dump(results, sys.__stdout__)
"""


def argv_list() -> list:
    """[argv, expected exit code, source] of the corpus entries, then of
    the reference pools' argvs in pool and slot order, then of the
    fuzz-stream ops in seed and op order, each argv once; the source is
    "corpus", "refs" or "fuzz"."""
    runs = [[list(entry.argv), entry.code, "corpus"] for entry in CORPUS]
    extra = []
    for pool in sorted((ROOT / "bench" / "refs").glob("*.json")):
        slots = json.loads(pool.read_text(encoding="utf-8"))["slots"]
        extra += [(v["argv"], "refs") for slot in slots for v in slot]
    extra += [(op["argv"], "fuzz") for seed in FUZZ_SEEDS
              for op in build_ops("fuzz-stream", seed)]
    seen = {tuple(argv) for argv, _, _ in runs}
    for argv, source in extra:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            runs.append([argv, 0, source])
    return runs


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
    runs = argv_list()
    argvs = [args for args, _, _ in runs]
    differing = unexpected = fresh_differing = 0
    with tempfile.TemporaryDirectory(prefix="qball-rev-") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for threads in THREADS:
            results = {}
            for label, tree in ((rev, pathlib.Path(tmp)), ("this tree", ROOT)):
                shared = run(tree, argvs, threads)
                results[label] = shared
                for (args, code, source), one in zip(runs, shared):
                    if one[0] != code:
                        unexpected += 1
                        print(f"{label} at {threads} BLAS thread(s) exits "
                              f"{one[0]}, not {code}: "
                              f"qball {shlex.join(args)}")
                    if (source == "corpus"
                            and run(tree, [args], threads)[0] != one):
                        fresh_differing += 1
                        print(f"{label} at {threads} BLAS thread(s), fresh "
                              f"process differs: qball {shlex.join(args)}")
            for args, mine, other in zip(argvs, results["this tree"],
                                         results[rev]):
                raised = any(isinstance(code, str)
                             for code in (mine[0], other[0]))
                if raised or mine != other:
                    differing += 1
                    print(f"differs at {threads} BLAS thread(s), exit "
                          f"{other[0]} -> {mine[0]}: qball {shlex.join(args)}")
    sources = Counter(source for _, _, source in runs)
    print(f"{len(argvs)} argvs ({sources['corpus']} of the corpus, "
          f"{sources['fuzz']} of the fuzz-stream ops of seeds "
          f"{' and '.join(map(str, FUZZ_SEEDS))}) at "
          f"{' and '.join(map(str, THREADS))} BLAS threads against {rev}: "
          f"{differing} differ; {unexpected} unexpected exit codes; "
          f"{fresh_differing} fresh-process runs differ from one-process runs")
    return 1 if differing or unexpected or fresh_differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

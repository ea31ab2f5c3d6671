"""One corpus of qball command lines: every argv whose report a check reads.

Each entry is an argv of the qball CLI (no --json or --csv), the exit code
it must return, and optionally a name, a check of its report and a fresh
tag.  tests/test_corpus.py runs the whole corpus through qball.cli.main in
one process, forward and then reversed, with each report written to a
temporary directory, and checks:

* exit code: each run returns the entry's code; an input error (exit 2)
  writes no report;
* determinism: the --json (and --csv) bytes of the forward and the
  reversed pass are identical, so a rerun gives the same bytes and no run
  leaves state that another run reads;
* fresh processes: an entry tagged fresh also runs as `python -m
  qball.cli` in its own interpreter and writes the same bytes as in the
  shared process, so reusing the parser carries nothing from one call into
  the next;
* monotone norms: a norm report's schedule values never decrease, with no
  slack, along its nested truncations;
* exact normal forms: a normal-form report's result, parsed, equals
  normalize of its parsed input, entry by entry for a matrix;
* CSV: a subcommand that takes --csv also writes one, whose rows are the
  JSON schedule's (N, M, value), with an empty M cell for null;
* checks: an entry's check(report, named) holds, where named maps each
  entry name to that entry's report.  The checks hold q^-600 scaling exact
  (ldexp by 1200), the phase and gauge twins to 1e-13 relative, the exact
  rounding of (1+2^-53+2^-60-2*q)*z1, the value of the zero-word input and
  the normal form of (z1*z2)^600.

tools/compare_reports.py runs the same argvs, with the benchmark's
reference and fuzz-stream argvs, on this tree and on a git revision and
compares the bytes.  This module imports nothing from qball, so that tool can read it
without either tree on the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Entry:
    """argv, without --json or --csv; code, its exit code; name, the key
    of its report in the named reports a check reads; check(report,
    named), a relation its report must satisfy; fresh, whether it also
    runs in a fresh process."""
    argv: tuple
    code: int = 0
    name: Optional[str] = None
    check: Optional[Callable[[dict, dict], bool]] = None
    fresh: bool = False


def _entry(line: str, *argv: str, **fields) -> Entry:
    """The entry of a command line: the words of line, then argv (for
    words with spaces in them)."""
    return Entry(tuple(line.split() + list(argv)), **fields)


def _twin(name: str) -> Callable[[dict, dict], bool]:
    """Both sides' results agree with those of entry name to 1e-13
    relative."""
    return lambda report, named: all(
        math.isclose(report["result"][side], named[name]["result"][side],
                     rel_tol=1e-13, abs_tol=0)
        for side in ("ball", "boundary"))


def _scaled_by_2_1200(report: dict, named: dict) -> bool:
    small = named["q^600*z1"]["result"]
    return small > 0 and math.ldexp(small, 1200) == report["result"]


def _zero_word_is_invariant(report: dict, named: dict) -> bool:
    return (report["omega"]["invariant"] is True
            and report["omega"]["circle_upper"]
            == [point["value"] for point in report["schedule"]])


def _result_is(value) -> Callable[[dict, dict], bool]:
    return lambda report, named: report["result"] == value


_MATRIX = "[(1/2+1/3*i)*z2'*z1, q^-1*z1; 0, -(2/3)*z1'*z1]"
_PRODUCT = "(z1'+2*z2')^3*(q*z1-i*z2)^3"

CORPUS = [
    # Symbolic subcommands.
    _entry("normal-form --n 2 --mode sphere --expr", "1 - z1*z1' - z2*z2'"),
    *(_entry(f"normal-form --n 2 --mode {mode} --expr (z1*z2)^600",
             check=_result_is("q^-179700*z1^600*z2^600"))
      for mode in ("ball", "sphere")),
    *(_entry(f"normal-form --n 2 --mode {mode} --expr", expr)
      for mode in ("ball", "sphere") for expr in (_MATRIX, _PRODUCT)),
    *(_entry(f"confluence-fuzz --n {n} --mode {mode} --count 50 --seed 1")
      for n in (3, 4) for mode in ("ball", "sphere")),
    # Relation residuals on both sides, n = 1..4, and PBW ranks.
    *(_entry(f"relations-residual --side {side} --n {n} --q 1/2 --trunc 8")
      for side in ("fock", "boundary") for n in range(1, 5)),
    _entry("relations-residual --side fock --n 3 --trunc 8"),
    _entry("relations-residual --side boundary --n 3 --trunc 8"),
    _entry("pbw-rank --n 3 --degree 3 --trunc 8"),
    _entry("pbw-rank --n 3 --degree 4 --trunc 10"),
    _entry("pbw-rank --n 3 --degree 5 --trunc 12"),
    # Runs that share representations in one process: two values of q,
    # both boundary sides and both residual sides.
    _entry("maxprinciple --n 2 --expr z1+z2 --trunc 6,9 --theta 16"),
    _entry("norm --side ball --n 3 --q 4/5 --expr z1+z2+z3 --trunc 6,8 "
           "--theta 8"),
    _entry("norm --side boundary --n 2 --trunc 4,6 --theta 16 --expr",
           "z1 + z2'*z1"),
    _entry("maxprinciple --n 3 --q 4/5 --expr [z1,z2;z3,0] --trunc 6,8 "
           "--theta 8"),
    _entry("relations-residual --side fock --n 3 --trunc 6"),
    _entry("relations-residual --side boundary --n 2 --q 4/5 --trunc 6"),
    # Five runs in a row, each with different flags from the one before:
    # every flag either differs from the previous run's or is left at its
    # default.
    _entry("norm --side boundary --n 1 --q 2/3 --expr 1+z1 --trunc 4,8 "
           "--theta 32 --tol 1e-6", fresh=True),
    _entry("norm --n 2 --expr z1+z2'*z1 --trunc 6", fresh=True),
    _entry("maxprinciple --n 2 --expr z1+z2 --trunc 4,6 --theta 8",
           fresh=True),
    _entry("ci-check --n 1 --level 3 --threshold 1 --trunc 4,6 --expr",
           "z1 + z1^2", fresh=True),
    _entry("maxprinciple --n 1 --expr 1-z1 --trunc 4", fresh=True),
    # Norms, gaps and matrix levels.
    _entry("norm --n 2 --q 1/2 --expr z1+z2 --trunc 4,6 --theta 8"),
    _entry("maxprinciple --n 2 --q 1/2 --expr z1+z2'*z1 --trunc 4,6 "
           "--theta 8"),
    _entry("ci-check --n 2 --q 1/2 --expr z1+z2 --trunc 4,6 --theta 8"),
    _entry("maxprinciple --n 2 --trunc 6,9 --theta 64 --expr", "[z1, z2]"),
    _entry("ci-check --n 2 --trunc 6,9,12 --theta 64 --expr",
           "[z1, z2; 0, z1]"),
    _entry("maxprinciple --n 3 --expr [z1,z2;z3,0] --trunc 8,16,24 "
           "--theta 32"),
    *(_entry(f"norm --side {side} --n 3 --trunc 4,6,8 --theta 16 --expr",
             "1 + z1*z3 - z2'") for side in ("ball", "boundary")),
    _entry("norm --side boundary --n 1 --q 2/3 --trunc 4,6 --theta 1024 "
           "--expr", "(1-i)*z1' + z1'*z1"),
    _entry("norm --side boundary --n 2 --q 1/2 --trunc 4,8 --theta 16 "
           "--expr", "(2*q-1)*z1*z2 + z2", check=_zero_word_is_invariant),
    # q^600 is exactly 2^-600 at q = 1/2, so the two values are 2^1200
    # apart exactly.
    _entry("norm --side ball --n 2 --q 1/2 --trunc 4,6 --theta 8 "
           "--expr q^600*z1", name="q^600*z1"),
    _entry("norm --side ball --n 2 --q 1/2 --trunc 4,6 --theta 8 "
           "--expr q^-600*z1", check=_scaled_by_2_1200),
    # A phase twin (i times a real input, evaluated in complex arithmetic)
    # and a gauge twin (an input whose gauge makes it real).
    _entry("maxprinciple --n 2 --trunc 6,9 --theta 64 --expr",
           "z1 + z2*z1' + q*z2'*z2", name="real"),
    _entry("maxprinciple --n 2 --trunc 6,9 --theta 64 --expr",
           "i*z1 + i*z2*z1' + i*q*z2'*z2", check=_twin("real")),
    _entry("maxprinciple --n 2 --q 3/4 --trunc 10,20 --theta 128 --expr",
           "i*z2 + 1/2*z1*z2 + i*z2*z2", name="gauged"),
    _entry("maxprinciple --n 2 --q 3/4 --trunc 10,20 --theta 128 --expr",
           "-z2 - 1/2*z1*z2 - z2*z2", check=_twin("gauged")),
    # 1 + 2^-53 + 2^-60 - 2q is exactly 2^-53 + 2^-60 at q = 1/2.
    _entry("norm --n 1 --q 1/2 --expr (1+2^-53+2^-60-2*q)*z1 --trunc 4,6 "
           "--theta 8", check=_result_is(2**-53 + 2**-60)),
    # Input errors.
    _entry("norm --side boundary --n 1 --expr z1^3 --trunc 3 --theta 8",
           code=2),
    _entry("relations-residual --side boundary --n 1 --trunc 1", code=2),
    _entry("pbw-rank --n 2 --degree 3 --trunc 2", code=2),
    _entry("norm --n 2 --expr z1 --trunc 4,,8 --theta 8", code=2),
    *(_entry(f"norm --n 1 --q 1/2 --expr {expr} --trunc 4,6 --theta 8",
             code=2)
      for expr in ("q^-2000*z1", "2^1000*q^-100*z1", "2^-1100*z1",
                   "q^1100*z1", "(1-2*q+2^-1100)*z1")),
]

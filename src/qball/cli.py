"""Command-line surface: normalization, norms, maximum-principle runs,
complete-isometry checks, relation residuals, confluence fuzzing, and the
PBW rank probe.  Every run emits a human-readable summary and, on request,
a machine-readable JSON report and (for subcommands with a schedule) a CSV
schedule table.

normal-form evaluates its input in the quotient: every product of the
parsed expression is reduced to normal form as soon as it is parsed
(rewrite.pbw_product), which is exact because the rules are confluent and
generate a two-sided ideal, so the free expansion is never built.  The
numeric subcommands take the parsed NCPoly as written.

Each subcommand takes --n and exactly the flags its handler reads:

  normal-form         --mode --expr/--expr-file --json
  norm                --side --expr/--expr-file --q --trunc --theta --tol
                      --json --csv
  maxprinciple        --expr/--expr-file --q --trunc --theta --tol --json --csv
  ci-check            --level --expr/--expr-file --q --trunc --theta
                      --threshold --json --csv
  relations-residual  --side --q --trunc (one entry) --threshold --json --csv
  confluence-fuzz     --mode --seed --count --json
  pbw-rank            --degree --q --trunc (one entry) --threshold --json --csv

--n N is the number of generators, except in confluence-fuzz, where each
input draws its n from 1..N.  --tol, a positive finite float, is ARPACK's
tolerance for a component with more than 2048 rows and columns and the
threshold of "stabilized" (the last two values closer than --tol); it does
not bound a value, since a dense component's value has absolute error
about eps ||A|| whatever --tol is.  --threshold is the pass/fail bound of
a check, a finite float.  An expression that starts with "-" is given as
--expr=-z1, since argparse reads "--expr -z1" as a missing argument.  The
JSON report always has the same keys; "mode" and "seed" are null where the
subcommand has no such flag.  A boundary relations-residual is evaluated on
the omega = 1 character block, which has the residual of every block, so
its point reports "M": null.
norm, maxprinciple and ci-check reports add "omega": "invariant" says
whether one boundary block gave the sup over the whole circle, and
"circle_upper" holds, per point, an upper bound at that N on the value
over the whole circle (null where none is proved; for maxprinciple and
ci-check, of the boundary side).

Each subcommand has one handler, _cmd_<name>(args), registered on its
subparser.  A handler computes and returns (report, check): the JSON report,
and for the four checks (ci-check, relations-residual, confluence-fuzz,
pbw-rank) the outcome (failed, message), None for the other subcommands.
It prints and writes nothing.  main alone prints the summary, writes --json
and --csv, prints PASS or "FAIL: message", and maps exceptions and check
outcomes to exit codes.  Handlers call the library through the names this
module imports, looked up at call time, so a wrapper set on a qball.cli
attribute sees every call.

Exit codes: 0 success, 2 input error (including a flag the subcommand does
not take, and an expression too deep to parse or rewrite), 3 numerical
non-convergence, 4 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from fractions import Fraction
from typing import List, Optional, Tuple

from . import __version__
from .algebra import (BALL, SPHERE, AlgebraContext, ContextError, MatPoly,
                      NCPoly)
from .norms import (DEFAULT_TOL, NormConvergenceError, ball_norm,
                    boundary_norm, make_schedule, max_principle_report,
                    pbw_gram_min_singular, relation_residual)
from .parsing import (ParseError, parse_expression, parse_lifted, print_matrix,
                      print_state)
from .representations import (BoundaryConfig, FockConfig,
                              boundary_block_generators, fock_generators)
from .rewrite import confluent, pbw_product
from .sampling import random_poly_stream
from .scalars import DomainError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

# What a handler returns: the report, and a check's (failed, message).
Outcome = Tuple[dict, Optional[Tuple[bool, str]]]


def _finite_float(positive: bool):
    """The argparse type of --tol (positive) and --threshold: any other
    value, nan and inf among them, is an input error (exit 2)."""
    def parse(text: str) -> float:
        value = float(text)
        if math.isfinite(value) and (value > 0 or not positive):
            return value
        raise ValueError(text)
    parse.__name__ = "positive finite float" if positive else "finite float"
    return parse

# Flags shared by several subcommands, each with one meaning everywhere.
_FLAGS = {
    "--mode": dict(choices=[BALL, SPHERE], default=BALL),
    "--q": dict(default="1/2", help="deformation parameter, rational or decimal"),
    "--trunc": dict(default="8", help="comma-separated truncation schedule"),
    "--theta": dict(type=int, default=1024,
                    help="final cyclic order (theta samples)"),
    "--tol": dict(type=_finite_float(True), default=DEFAULT_TOL,
                  help="ARPACK and 'stabilized' tolerance, not an error bound"),
    "--seed": dict(type=int, default=0),
    "--json": dict(dest="json_path", help="write the JSON report here"),
    "--csv": dict(dest="csv_path", help="write the schedule table as CSV here"),
}


def _command(subs, name: str, help: str, handler, *flags: str,
             n_help: str = "number of generators") -> argparse.ArgumentParser:
    """A subcommand run by handler, taking --n and exactly the named shared
    flags."""
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(handler=handler)
    sub.add_argument("--n", type=int, required=True, help=n_help)
    for flag in flags:
        if flag == "--expr":
            group = sub.add_mutually_exclusive_group()
            group.add_argument("--expr", help="expression; -z1 as --expr=-z1")
            group.add_argument("--expr-file", help="file holding the expression")
        else:
            sub.add_argument(flag, **_FLAGS[flag])
    return sub


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it and no flag has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="qball",
        description="q-deformed ball/sphere algebra toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    schedule = ("--q", "--trunc", "--theta")
    single_point = ("--q", "--trunc", "--json", "--csv")

    _command(subs, "normal-form", "rewrite to canonical form",
             _cmd_normal_form, "--mode", "--expr", "--json")

    sub = _command(subs, "norm", "certified norm schedule", _cmd_norm,
                   "--expr", *schedule, "--tol", "--json", "--csv")
    sub.add_argument("--side", choices=["ball", "boundary"], default="ball")

    _command(subs, "maxprinciple", "ball vs boundary norm gap report",
             _cmd_maxprinciple, "--expr", *schedule, "--tol", "--json",
             "--csv")

    sub = _command(subs, "ci-check",
                   "complete-isometry gap check at a matrix level",
                   _cmd_ci_check, "--expr", *schedule, "--json", "--csv")
    sub.add_argument("--level", type=int, help="scalar copies on the diagonal")
    sub.add_argument("--threshold", type=_finite_float(False), default=2e-2,
                     help="largest gap that passes")

    sub = _command(subs, "relations-residual",
                   "defining-relation residuals of a representation",
                   _cmd_relations_residual, *single_point)
    sub.add_argument("--side", choices=["fock", "boundary"], default="fock")
    sub.add_argument("--threshold", type=_finite_float(False), default=1e-12,
                     help="largest residual that passes")

    sub = _command(subs, "confluence-fuzz",
                   "strategy-independence fuzzing of the rewriter",
                   _cmd_confluence_fuzz, "--mode", "--seed", "--json",
                   n_help="each input draws its n from 1..N")
    sub.add_argument("--count", type=int, default=100)

    sub = _command(subs, "pbw-rank",
                   "linear independence of canonical monomials",
                   _cmd_pbw_rank, *single_point)
    sub.add_argument("--degree", type=int, default=3)
    sub.add_argument("--threshold", type=_finite_float(False), default=1e-8,
                     help="smallest singular value that passes")
    return parser


def _parse_q(text: str) -> float:
    """--q read exactly, as a rational or decimal, and rounded once to a
    float, which must lie in (0, 1)."""
    try:
        exact = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad q value {text!r}", 0) from exc
    # float() of a large value overflows, and one within 2^-54 of 1 (or
    # below the least subnormal) rounds onto the boundary of (0, 1).
    value = float(exact) if 0 < exact < 1 else 0.0
    if not 0 < value < 1:
        raise DomainError(f"q must lie in (0, 1), got {text}")
    return value


def _parse_trunc(text: str) -> List[int]:
    # an empty text is an empty schedule, an empty entry an error
    try:
        return [int(p) for p in text.split(",")] if text.strip() else []
    except ValueError as exc:
        raise ParseError(f"bad truncation schedule {text!r}", 0) from exc


def _single_trunc(text: str) -> int:
    trunc = _parse_trunc(text)
    if len(trunc) != 1:
        raise ValueError(f"--trunc takes one truncation here, got {text!r}")
    return trunc[0]


def _load_expr(args) -> str:
    if args.expr is not None:
        return args.expr
    if args.expr_file:
        with open(args.expr_file, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    raise ParseError("an expression is required (--expr or --expr-file)", 0)


def _emit(report: dict, args, started: float) -> None:
    print(f"operation : {report['operation']}")
    print(f"input     : {report['input']}")
    print("context   : " + " ".join(f"{k}={report[k]}" for k in ("n", "q", "mode")
                                     if report[k] is not None))
    for point in report["schedule"]:
        bits = [f"N={point.get('N')}"]
        if point.get("M") is not None:
            bits.append(f"M={point['M']}")
        bits.append(f"value={point['value']:.12g}")
        print("  " + "  ".join(bits))
    print(f"result    : {report['result']}")
    if "gap" in report:
        print(f"gap       : {report['gap']:.12g}")
    if "holomorphic" in report:
        print(f"holomorphic: {report['holomorphic']}")
    print(f"wall-clock: {time.monotonic() - started:.3f}s")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if getattr(args, "csv_path", None):
        with open(args.csv_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["N", "M", "value"])
            for point in report["schedule"]:
                writer.writerow([point.get("N"), point.get("M"),
                                 point.get("value")])


def _report(args, operation: str, input_text: str, **fields) -> dict:
    """The JSON report: the keys every subcommand has, in this order, with
    fields replacing their defaults in place; any other field follows."""
    return {"input": input_text, "n": args.n, "q": getattr(args, "q", None),
            "mode": getattr(args, "mode", None), "operation": operation,
            "schedule": [], "result": None, "tolerances": {},
            "seed": getattr(args, "seed", None), "version": __version__,
            **fields}


def _point_report(args, operation: str, input_text: str, N: int,
                  value: float, bound: str) -> dict:
    """The report of a check evaluated at the one truncation N, its pass
    bound --threshold named bound."""
    return _report(args, operation, input_text,
                   schedule=[{"N": N, "M": None, "value": value}],
                   result=value, tolerances={bound: args.threshold})


def _cmd_normal_form(args) -> Outcome:
    text = _load_expr(args)
    ctx = AlgebraContext(args.n, args.mode)
    parsed = parse_lifted(text, args.n, pbw_product(ctx))
    result = (print_matrix(parsed, lambda e: print_state(*e))
              if isinstance(parsed, list) else print_state(*parsed))
    return _report(args, "normal-form", text, result=result), None


def _cmd_norm(args) -> Outcome:
    text = _load_expr(args)
    parsed = parse_expression(text, args.n)
    q = _parse_q(args.q)
    schedule = make_schedule(_parse_trunc(args.trunc), args.theta)
    norm = ball_norm if args.side == "ball" else boundary_norm
    estimate = norm(parsed, q, schedule, args.tol)
    return _report(args, f"norm-{args.side}", text,
                   schedule=estimate.points, result=estimate.final,
                   tolerances={"tol": args.tol},
                   stabilized=estimate.stabilized, omega=estimate.omega), None


def _gap_report(args, operation: str, parsed, text: str, tol: float,
                tolerances: dict) -> dict:
    q = _parse_q(args.q)
    schedule = make_schedule(_parse_trunc(args.trunc), args.theta)
    gap = max_principle_report(parsed, q, schedule, tol)
    return _report(
        args, operation, text,
        schedule=[dict(point, value=g)
                  for point, g in zip(gap.ball.points, gap.gaps())],
        result={"ball": gap.ball.final, "boundary": gap.boundary.final},
        tolerances=tolerances,
        gap=gap.gap,
        stabilized={"ball": gap.ball.stabilized,
                    "boundary": gap.boundary.stabilized},
        holomorphic=gap.holomorphic,
        omega=gap.boundary.omega)


def _cmd_maxprinciple(args) -> Outcome:
    text = _load_expr(args)
    parsed = parse_expression(text, args.n)
    return _gap_report(args, "maxprinciple", parsed, text, args.tol,
                       {"tol": args.tol}), None


def _cmd_ci_check(args) -> Outcome:
    text = _load_expr(args)
    parsed = parse_expression(text, args.n)
    if isinstance(parsed, MatPoly) and args.level is not None:
        raise ValueError("--level applies to a scalar expression only; "
                         "a matrix expression sets its own level")
    if isinstance(parsed, NCPoly):
        # diag(f, ..., f) has the singular values of f in every
        # representation, so its gap report is that of f; the report names
        # the diagonal matrix as its input.
        level = 2 if args.level is None else args.level
        if level < 1:
            raise ValueError(f"--level must be at least 1, got {level}")
        zero = NCPoly.zero(args.n)
        text = print_matrix(MatPoly([[parsed if r == c else zero
                                      for c in range(level)]
                                     for r in range(level)]))
    report = _gap_report(args, "ci-check", parsed, text, DEFAULT_TOL,
                         {"gap": args.threshold})
    return report, (report["gap"] > args.threshold,
                    f"gap {report['gap']:.3e} exceeds {args.threshold:.3e}")


def _cmd_relations_residual(args) -> Outcome:
    q, N = _parse_q(args.q), _single_trunc(args.trunc)
    if args.side == "fock":
        rep = fock_generators(FockConfig(n=args.n, N=N, q_val=q))
        ctx = AlgebraContext(args.n, BALL)
    else:
        # Every defining relation is homogeneous in z1-charge, so on each
        # character block its residual is a phase times the omega = 1 one.
        rep = boundary_block_generators(
            BoundaryConfig(n=args.n, N=N, M=1, q_val=q), 1.0)
        ctx = AlgebraContext(args.n, SPHERE)
    residual = relation_residual(rep, ctx, q)
    return (_point_report(args, f"relations-residual-{args.side}",
                          f"n={args.n}", N, residual, "residual"),
            (residual > args.threshold,
             f"residual {residual:.3e} exceeds {args.threshold:.3e}"))


def _cmd_confluence_fuzz(args) -> Outcome:
    if args.n < 1:
        raise ContextError(f"--n must be at least 1, got {args.n}")
    if args.count < 0:
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    failures = sum(not confluent(p, AlgebraContext(pn, args.mode))
                   for pn, p in random_poly_stream(args.seed, args.count,
                                                   n_max=args.n))
    return (_report(args, "confluence-fuzz", f"count={args.count}",
                    result={"checked": args.count, "failures": failures}),
            (failures > 0, f"{failures} strategy disagreements"))


def _cmd_pbw_rank(args) -> Outcome:
    if args.degree < 0:
        raise ValueError(f"--degree must be nonnegative, got {args.degree}")
    q, N = _parse_q(args.q), _single_trunc(args.trunc)
    value = pbw_gram_min_singular(args.n, args.degree, N, q)
    return (_point_report(args, "pbw-rank", f"degree<={args.degree}", N,
                          value, "min_singular"),
            (value < args.threshold,
             f"minimum singular value {value:.3e} below "
             f"{args.threshold:.3e}"))


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        report, check = args.handler(args)
        _emit(report, args, started)
    # ParseError, ContextError, DomainError and TruncationError are
    # ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: expression too deep to parse or rewrite "
              "(recursion limit)", file=sys.stderr)
        return EXIT_INPUT
    except NormConvergenceError as exc:
        print(f"numerical error: {exc} (last value {exc.last_value:.6g})",
              file=sys.stderr)
        return EXIT_NUMERICAL
    if check is None:
        return EXIT_OK
    failed, message = check
    print(f"FAIL: {message}" if failed else "PASS")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

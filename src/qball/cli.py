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

--tol is the numerical tolerance of each norm value; --threshold is the
pass/fail bound of a check.  The JSON report always has the same keys;
"mode" and "seed" are null where the subcommand has no such flag.  A
boundary relations-residual is evaluated on the omega = 1 character block,
which has the residual of every block, so its point reports "M": null.
norm, maxprinciple and ci-check reports add "omega": "invariant" says
whether one boundary block gave the sup over the whole circle, and
"circle_upper" holds, per point, an upper bound at that N on the value
over the whole circle (null where none is proved; for maxprinciple and
ci-check, of the boundary side).

Exit codes: 0 success, 2 input error (including a flag the subcommand does
not take), 3 numerical non-convergence, 4 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from fractions import Fraction
from typing import List, Optional

from . import __version__
from .algebra import (BALL, SPHERE, AlgebraContext, ContextError, MatPoly,
                      NCPoly)
from .norms import (
    NormConvergenceError,
    ball_norm,
    boundary_norm,
    make_schedule,
    max_principle_report,
    pbw_gram_min_singular,
    relation_residual,
)
from .parsing import (ParseError, parse_expression, parse_lifted, print_matrix,
                      print_state)
from .representations import (
    BoundaryConfig,
    FockConfig,
    TruncationError,
    boundary_block_generators,
    fock_generators,
)
from .rewrite import confluent, pbw_product
from .sampling import random_poly_stream
from .scalars import DomainError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4


# Flags shared by several subcommands, each with one meaning everywhere.
_FLAGS = {
    "--mode": dict(choices=[BALL, SPHERE], default=BALL),
    "--q": dict(default="1/2", help="deformation parameter, rational or decimal"),
    "--trunc": dict(default="8", help="comma-separated truncation schedule"),
    "--theta": dict(type=int, help="final cyclic order (theta samples)"),
    "--tol": dict(type=float, default=1e-8, help="numerical tolerance of norms"),
    "--seed": dict(type=int, default=0),
    "--json": dict(dest="json_path", help="write the JSON report here"),
    "--csv": dict(dest="csv_path", help="write the schedule table as CSV here"),
}


def _command(subs, name: str, help: str, *flags: str) -> argparse.ArgumentParser:
    """A subcommand taking --n and exactly the named shared flags."""
    sub = subs.add_parser(name, help=help)
    sub.add_argument("--n", type=int, required=True, help="number of generators")
    for flag in flags:
        if flag == "--expr":
            group = sub.add_mutually_exclusive_group()
            group.add_argument("--expr", help="expression text")
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
             "--mode", "--expr", "--json")

    sub = _command(subs, "norm", "certified norm schedule",
                   "--expr", *schedule, "--tol", "--json", "--csv")
    sub.add_argument("--side", choices=["ball", "boundary"], default="ball")

    _command(subs, "maxprinciple", "ball vs boundary norm gap report",
             "--expr", *schedule, "--tol", "--json", "--csv")

    sub = _command(subs, "ci-check",
                   "complete-isometry gap check at a matrix level",
                   "--expr", *schedule, "--json", "--csv")
    sub.add_argument("--level", type=int, help="scalar copies on the diagonal")
    sub.add_argument("--threshold", type=float, default=2e-2,
                     help="largest gap that passes")

    sub = _command(subs, "relations-residual",
                   "defining-relation residuals of a representation",
                   *single_point)
    sub.add_argument("--side", choices=["fock", "boundary"], default="fock")
    sub.add_argument("--threshold", type=float, default=1e-12,
                     help="largest residual that passes")

    sub = _command(subs, "confluence-fuzz",
                   "strategy-independence fuzzing of the rewriter",
                   "--mode", "--seed", "--json")
    sub.add_argument("--count", type=int, default=100)

    sub = _command(subs, "pbw-rank",
                   "linear independence of canonical monomials", *single_point)
    sub.add_argument("--degree", type=int, default=3)
    sub.add_argument("--threshold", type=float, default=1e-8,
                     help="smallest singular value that passes")
    return parser


def _parse_q(text: str) -> Fraction:
    try:
        if "/" in text or "." not in text:
            value = Fraction(text)
        else:
            value = Fraction(text).limit_denominator(10 ** 12)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad q value {text!r}", 0) from exc
    if not 0 < value < 1:
        raise DomainError(f"q must lie in (0, 1), got {text}")
    return value


def _parse_trunc(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"bad truncation schedule {text!r}", 0) from exc


def _single_trunc(text: str) -> int:
    trunc = _parse_trunc(text)
    if len(trunc) != 1:
        raise ValueError(f"--trunc takes one truncation here, got {text!r}")
    return trunc[0]


def _load_expr(args) -> str:
    if getattr(args, "expr", None) is not None:
        return args.expr
    if getattr(args, "expr_file", None):
        with open(args.expr_file, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    raise ParseError("an expression is required (--expr or --expr-file)", 0)


def _emit(report: dict, args) -> None:
    print(f"operation : {report['operation']}")
    print(f"input     : {report['input']}")
    print("context   : " + " ".join(f"{k}={report[k]}" for k in ("n", "q", "mode")
                                     if report[k] is not None))
    for point in report.get("schedule", []):
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
    print(f"wall-clock: {time.monotonic() - args._started:.3f}s")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if getattr(args, "csv_path", None):
        with open(args.csv_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["N", "M", "value"])
            for point in report.get("schedule", []):
                writer.writerow([point.get("N"), point.get("M"),
                                 point.get("value")])


def _base_report(args, operation: str, input_text: str) -> dict:
    return {
        "input": input_text,
        "n": args.n,
        "q": getattr(args, "q", None),
        "mode": getattr(args, "mode", None),
        "operation": operation,
        "schedule": [],
        "result": None,
        "tolerances": {},
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }


def _verdict(report: dict, args, failed: bool, failure: str) -> int:
    """Emit a check's report, then its PASS or FAIL line and exit code."""
    _emit(report, args)
    if failed:
        print(f"FAIL: {failure}")
        return EXIT_CHECK_FAILED
    print("PASS")
    return EXIT_OK


def _cmd_normal_form(args) -> int:
    text = _load_expr(args)
    ctx = AlgebraContext(args.n, args.mode)
    parsed = parse_lifted(text, args.n, pbw_product(ctx))
    report = _base_report(args, "normal-form", text)
    if isinstance(parsed, list):
        report["result"] = print_matrix(parsed, lambda e: print_state(*e))
    else:
        report["result"] = print_state(*parsed)
    _emit(report, args)
    return EXIT_OK


def _norm_schedule(args):
    return make_schedule(_parse_trunc(args.trunc), args.theta)


def _cmd_norm(args) -> int:
    text = _load_expr(args)
    parsed = parse_expression(text, args.n)
    q = _parse_q(args.q)
    schedule = _norm_schedule(args)
    norm = ball_norm if args.side == "ball" else boundary_norm
    estimate = norm(parsed, float(q), schedule, args.tol)
    report = _base_report(args, f"norm-{args.side}", text)
    report["schedule"] = estimate.points
    report["result"] = estimate.final
    report["stabilized"] = estimate.stabilized
    report["omega"] = estimate.omega
    report["tolerances"] = {"tol": args.tol}
    _emit(report, args)
    return EXIT_OK


def _gap_report(args, operation: str, parsed, text: str, tol: float) -> dict:
    q = _parse_q(args.q)
    schedule = _norm_schedule(args)
    gap = max_principle_report(parsed, float(q), schedule, tol)
    report = _base_report(args, operation, text)
    report["schedule"] = [dict(point, value=g)
                          for point, g in zip(gap.ball.points, gap.gaps())]
    report["result"] = {"ball": gap.ball.final, "boundary": gap.boundary.final}
    report["gap"] = gap.gap
    report["stabilized"] = {"ball": gap.ball.stabilized,
                            "boundary": gap.boundary.stabilized}
    report["holomorphic"] = gap.holomorphic
    report["omega"] = gap.boundary.omega
    report["tolerances"] = {"tol": tol}
    return report


def _cmd_maxprinciple(args) -> int:
    text = _load_expr(args)
    parsed = parse_expression(text, args.n)
    report = _gap_report(args, "maxprinciple", parsed, text, args.tol)
    _emit(report, args)
    return EXIT_OK


def _cmd_ci_check(args) -> int:
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
    report = _gap_report(args, "ci-check", parsed, text, 1e-8)
    report["tolerances"] = {"gap": args.threshold}
    return _verdict(report, args, report["gap"] > args.threshold,
                    f"gap {report['gap']:.3e} exceeds {args.threshold:.3e}")


def _cmd_relations_residual(args) -> int:
    q = _parse_q(args.q)
    N = _single_trunc(args.trunc)
    if args.side == "fock":
        rep = fock_generators(FockConfig(n=args.n, N=N, q_val=float(q)))
        ctx = AlgebraContext(args.n, BALL)
    else:
        # Every defining relation is homogeneous in z1-charge, so on each
        # character block its residual is a phase times the omega = 1 one.
        rep = boundary_block_generators(
            BoundaryConfig(n=args.n, N=N, M=1, q_val=float(q)), 1.0)
        ctx = AlgebraContext(args.n, SPHERE)
    residual = relation_residual(rep, ctx, float(q))
    report = _base_report(args, f"relations-residual-{args.side}", f"n={args.n}")
    report["schedule"] = [{"N": N, "M": None, "value": residual}]
    report["result"] = residual
    report["tolerances"] = {"residual": args.threshold}
    return _verdict(report, args, residual > args.threshold,
                    f"residual {residual:.3e} exceeds {args.threshold:.3e}")


def _cmd_confluence_fuzz(args) -> int:
    if args.n < 1:
        raise ContextError(f"--n must be at least 1, got {args.n}")
    if args.count < 0:
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    failures = sum(not confluent(p, AlgebraContext(pn, args.mode))
                   for pn, p in random_poly_stream(args.seed, args.count,
                                                   n_max=args.n))
    report = _base_report(args, "confluence-fuzz", f"count={args.count}")
    report["result"] = {"checked": args.count, "failures": failures}
    return _verdict(report, args, failures > 0,
                    f"{failures} strategy disagreements")


def _cmd_pbw_rank(args) -> int:
    q = _parse_q(args.q)
    N = _single_trunc(args.trunc)
    value = pbw_gram_min_singular(args.n, args.degree, N, float(q))
    report = _base_report(args, "pbw-rank", f"degree<={args.degree}")
    report["schedule"] = [{"N": N, "M": None, "value": value}]
    report["result"] = value
    report["tolerances"] = {"min_singular": args.threshold}
    return _verdict(report, args, value < args.threshold,
                    f"minimum singular value {value:.3e} below "
                    f"{args.threshold:.3e}")


_COMMANDS = {
    "normal-form": _cmd_normal_form,
    "norm": _cmd_norm,
    "maxprinciple": _cmd_maxprinciple,
    "ci-check": _cmd_ci_check,
    "relations-residual": _cmd_relations_residual,
    "confluence-fuzz": _cmd_confluence_fuzz,
    "pbw-rank": _cmd_pbw_rank,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._started = time.monotonic()
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ContextError, TruncationError, DomainError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NormConvergenceError as exc:
        print(f"numerical error: {exc} (last value {exc.last_value:.6g})",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: normalization, norms, maximum-principle runs,
complete-isometry checks, relation residuals, confluence fuzzing, and the
PBW rank probe.  Every run emits a human-readable summary and, on request,
a machine-readable JSON report and a CSV schedule table.

Exit codes: 0 success, 2 input error, 3 numerical non-convergence,
4 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import csv
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
    matrix_norm_level_k,
    max_principle_report,
    pbw_gram_min_singular,
)
from .parsing import ParseError, parse_expression, print_matrix, print_poly
from .representations import (
    BoundaryConfig,
    FockConfig,
    TruncationError,
    boundary_generators,
    fock_generators,
    relation_residual,
)
from .rewrite import normalize, normalize_by_steps
from .sampling import random_poly_stream
from .scalars import DomainError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4


def _add_common(sub: argparse.ArgumentParser, *, expr: bool = True,
                numeric: bool = True) -> None:
    sub.add_argument("--n", type=int, required=True, help="number of generators")
    sub.add_argument("--mode", choices=[BALL, SPHERE], default=BALL)
    if expr:
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--expr", help="expression text")
        group.add_argument("--expr-file", help="file containing the expression")
    if numeric:
        sub.add_argument("--q", default="1/2",
                         help="deformation parameter, rational or decimal")
        sub.add_argument("--trunc", default="8",
                         help="comma-separated truncation schedule")
        sub.add_argument("--theta", type=int, default=None,
                         help="final cyclic order (number of theta samples)")
        sub.add_argument("--tol", type=float, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", dest="json_path", default=None,
                     help="write the JSON report here")
    sub.add_argument("--csv", dest="csv_path", default=None,
                     help="write the schedule table here as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qball",
        description="q-deformed ball/sphere algebra toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("normal-form", help="rewrite to canonical form")
    _add_common(sub, numeric=False)

    sub = subs.add_parser("norm", help="certified norm schedule")
    sub.add_argument("--side", choices=["ball", "boundary"], default="ball")
    _add_common(sub)

    sub = subs.add_parser("maxprinciple",
                          help="ball vs boundary norm gap report")
    _add_common(sub)

    sub = subs.add_parser("ci-check",
                          help="complete-isometry gap check at a matrix level")
    sub.add_argument("--level", type=int, default=2)
    _add_common(sub)

    sub = subs.add_parser("relations-residual",
                          help="defining-relation residuals of a representation")
    sub.add_argument("--side", choices=["fock", "boundary"], default="fock")
    _add_common(sub, expr=False)

    sub = subs.add_parser("confluence-fuzz",
                          help="strategy-independence fuzzing of the rewriter")
    sub.add_argument("--count", type=int, default=100)
    _add_common(sub, expr=False, numeric=False)

    sub = subs.add_parser("pbw-rank",
                          help="linear independence of canonical monomials")
    sub.add_argument("--degree", type=int, default=3)
    _add_common(sub, expr=False)
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


def _load_expr(args) -> str:
    if getattr(args, "expr", None) is not None:
        return args.expr
    if getattr(args, "expr_file", None):
        with open(args.expr_file, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    raise ParseError("an expression is required (--expr or --expr-file)", 0)


def _emit(report: dict, args, started: float) -> None:
    print(f"operation : {report['operation']}")
    print(f"input     : {report['input']}")
    print(f"context   : n={report['n']} q={report['q']} mode={report['mode']}")
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
    print(f"wall-clock: {time.monotonic() - started:.3f}s")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if args.csv_path:
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
        "mode": args.mode,
        "operation": operation,
        "schedule": [],
        "result": None,
        "tolerances": {},
        "seed": args.seed,
        "version": __version__,
    }


def _cmd_normal_form(args) -> int:
    text = _load_expr(args)
    parsed = parse_expression(text, args.n)
    ctx = AlgebraContext(args.n, args.mode)
    report = _base_report(args, "normal-form", text)
    if isinstance(parsed, MatPoly):
        result = MatPoly([[normalize(p, ctx) for p in row]
                          for row in parsed.entries])
        report["result"] = print_matrix(result)
    else:
        report["result"] = print_poly(normalize(parsed, ctx))
    _emit(report, args, args._started)
    return EXIT_OK


def _norm_schedule(args):
    trunc = _parse_trunc(args.trunc)
    return make_schedule(trunc, args.theta)


def _cmd_norm(args) -> int:
    text = _load_expr(args)
    parsed = parse_expression(text, args.n)
    q = _parse_q(args.q)
    tol = args.tol if args.tol is not None else 1e-8
    schedule = _norm_schedule(args)
    if isinstance(parsed, MatPoly):
        estimate = matrix_norm_level_k(parsed, args.side, float(q), schedule, tol)
    elif args.side == "ball":
        estimate = ball_norm(parsed, float(q), schedule, tol)
    else:
        estimate = boundary_norm(parsed, float(q), schedule, tol)
    report = _base_report(args, f"norm-{args.side}", text)
    report["schedule"] = estimate.points
    report["result"] = estimate.final
    report["stabilized"] = estimate.stabilized
    report["tolerances"] = {"tol": tol}
    _emit(report, args, args._started)
    return EXIT_OK


def _gap_report(args, operation: str, parsed, text: str, tol: float) -> dict:
    q = _parse_q(args.q)
    schedule = _norm_schedule(args)
    gap = max_principle_report(parsed, float(q), schedule, tol, expression=text)
    report = _base_report(args, operation, text)
    report["schedule"] = [
        dict(point, value=abs(b - d))
        for point, b, d in zip(gap.schedule, gap.ball.values(),
                               gap.boundary.values())
    ]
    report["result"] = {"ball": gap.ball.final, "boundary": gap.boundary.final}
    report["gap"] = gap.gap
    report["stabilized"] = {"ball": gap.ball.stabilized,
                            "boundary": gap.boundary.stabilized}
    report["holomorphic"] = gap.holomorphic
    report["tolerances"] = {"tol": tol}
    return report


def _cmd_maxprinciple(args) -> int:
    text = _load_expr(args)
    parsed = parse_expression(text, args.n)
    tol = args.tol if args.tol is not None else 1e-8
    report = _gap_report(args, "maxprinciple", parsed, text, tol)
    _emit(report, args, args._started)
    return EXIT_OK


def _cmd_ci_check(args) -> int:
    text = _load_expr(args)
    parsed = parse_expression(text, args.n)
    if isinstance(parsed, NCPoly):
        zero = NCPoly.zero(args.n)
        parsed = MatPoly([[parsed if r == c else zero
                           for c in range(args.level)]
                          for r in range(args.level)])
        text = print_matrix(parsed)
    threshold = args.tol if args.tol is not None else 2e-2
    report = _gap_report(args, "ci-check", parsed, text, 1e-8)
    report["tolerances"] = {"gap": threshold}
    _emit(report, args, args._started)
    if report["gap"] > threshold:
        print(f"FAIL: gap {report['gap']:.3e} exceeds {threshold:.3e}")
        return EXIT_CHECK_FAILED
    print("PASS")
    return EXIT_OK


def _cmd_relations_residual(args) -> int:
    q = _parse_q(args.q)
    trunc = _parse_trunc(args.trunc)
    N = trunc[-1]
    M = args.theta if args.theta is not None else 8
    threshold = args.tol if args.tol is not None else 1e-12
    if args.side == "fock":
        rep = fock_generators(FockConfig(n=args.n, N=N, q_val=float(q)))
        ctx = AlgebraContext(args.n, BALL)
    else:
        rep = boundary_generators(
            BoundaryConfig(n=args.n, N=N, M=M, q_val=float(q)))
        ctx = AlgebraContext(args.n, SPHERE)
    residual = relation_residual(rep, ctx, float(q))
    report = _base_report(args, f"relations-residual-{args.side}",
                          f"n={args.n}")
    report["schedule"] = [{"N": N, "M": M if args.side == "boundary" else None,
                           "value": residual}]
    report["result"] = residual
    report["tolerances"] = {"residual": threshold}
    _emit(report, args, args._started)
    if residual > threshold:
        print(f"FAIL: residual {residual:.3e} exceeds {threshold:.3e}")
        return EXIT_CHECK_FAILED
    print("PASS")
    return EXIT_OK


def _cmd_confluence_fuzz(args) -> int:
    if args.n < 1:
        raise ContextError(f"--n must be at least 1, got {args.n}")
    if args.count < 0:
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    failures = 0
    strategies = [("leftmost", None), ("rightmost", None),
                  ("random", 0), ("random", 1), ("random", 2)]
    for pn, p in random_poly_stream(args.seed, args.count, n_max=args.n):
        ctx = AlgebraContext(pn, args.mode)
        expected = normalize(p, ctx)
        for name, seed in strategies:
            got = normalize_by_steps(p, ctx, name, seed)
            if got != expected:
                failures += 1
                break
    report = _base_report(args, "confluence-fuzz", f"count={args.count}")
    report["result"] = {"checked": args.count, "failures": failures}
    _emit(report, args, args._started)
    if failures:
        print(f"FAIL: {failures} strategy disagreements")
        return EXIT_CHECK_FAILED
    print("PASS")
    return EXIT_OK


def _cmd_pbw_rank(args) -> int:
    q = _parse_q(args.q)
    N = _parse_trunc(args.trunc)[-1]
    threshold = args.tol if args.tol is not None else 1e-8
    value = pbw_gram_min_singular(args.n, args.degree, N, float(q))
    report = _base_report(args, "pbw-rank", f"degree<={args.degree}")
    report["schedule"] = [{"N": N, "M": None, "value": value}]
    report["result"] = value
    report["tolerances"] = {"min_singular": threshold}
    _emit(report, args, args._started)
    if value < threshold:
        print(f"FAIL: minimum singular value {value:.3e} below {threshold:.3e}")
        return EXIT_CHECK_FAILED
    print("PASS")
    return EXIT_OK


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

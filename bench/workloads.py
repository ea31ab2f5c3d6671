"""The benchmark's workloads: seeded op lists and the per-op oracle.

An op is one qball CLI command, given as argv.  Each op carries what its
output must be ("expect") and its input sizes ("info").  Ops are drawn
from the reference pools under refs/ (see make_refs.py for how those were
made and cross-validated), except fuzz-stream ops, whose expected outcome
is a fact of the algebra: every rewriting strategy reaches the same normal
form, so confluence-fuzz must report zero failures and exit 0.

Flags passed are only those each subcommand uses today and keeps after the
CLI-contract clean-up: --mode only for normal-form and confluence-fuzz,
--seed only for confluence-fuzz, never --tol.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
MONOTONE_SLACK = 1e-12     # NormEstimate.is_monotone's default slack

WHY = {
    "nf-cold": (
        "normal-form on seeded degree 6-8 products (sum c_j zj')^a (sum d_k zk)^b, "
        "n in {2,3}, ball and sphere, each with a letter structure new to the "
        "pass: rewrite and scalars (Fraction arithmetic) take the time and the "
        "word cache fills inside the op; numpy is never used (ROADMAP item 3)"),
    "fuzz-stream": (
        "many small confluence-fuzz ops (n <= 3, ball and sphere, one --seed "
        "each): un-memoized reduce_step / NCPoly.__add__ over small polynomials, "
        "plus per-call cli and parsing overhead (single-step rewriter path)"),
    "maxprinciple": (
        "maxprinciple and ci-check --level 2 on seeded holomorphic and "
        "non-holomorphic polynomials, n in {1,2,3}, nested schedules, theta "
        "64-256, with the baseline op --n 2 --expr z1+z2 --trunc 20,40 --theta "
        "256: boundary-block rebuilds, rep_apply and dense SVD; rewrite is "
        "bypassed (ROADMAP item 2; predicts no change for item 3)"),
    "fock-large": (
        "norm --side ball --n 3 with --trunc 18,24 --theta 8, q in {1/2, 4/5}: "
        "Fock blocks of 2300-2600 certified rows, the only path where "
        "operator_norm leaves LAPACK for power iteration (ROADMAP item 4)"),
}

# Ops in the traced run: a fixed prefix of the op list, so that per-layer
# counts repeat exactly for a given seed.
TRACE_OPS = {"nf-cold": 8, "fuzz-stream": 150, "maxprinciple": 12, "fock-large": 4}

# Passes per run: --seconds divided by the time one pass takes at reference
# speed (clock.py) at the seed commit.  The op count of a run, and so the
# percentile op_tail_ms reads, depends on --seconds alone, not on how fast
# the host or the code under test happens to be.
PASS_S = {"nf-cold": 16, "fuzz-stream": 16, "maxprinciple": 10, "fock-large": 9}

# fuzz-stream ops draw distinct confluence-fuzz seeds from one fixed pool;
# any two runs share most ops, so the mix (and its tail) moves little.
FUZZ_POOL = 550
FUZZ_OPS = 500
FUZZ_COUNT = 16


def names() -> List[str]:
    return list(WHY)


def _pool_ops(name: str, seed: int) -> List[dict]:
    with open(os.path.join(HERE, "refs", f"{name}.json"), encoding="utf-8") as handle:
        pool = json.load(handle)
    rng = random.Random(f"{name}:{seed}")
    ops = [dict(rng.choice(slot)) for slot in pool["slots"]]
    if name == "fock-large":
        rng.shuffle(ops)
    return ops


def _fuzz_ops(seed: int) -> List[dict]:
    pool = random.Random("fuzz-stream").sample(range(1, 10 ** 6), FUZZ_POOL)
    ops = []
    for i, op_seed in enumerate(random.Random(f"fuzz-stream:{seed}").sample(
            pool, FUZZ_OPS)):
        mode = ("ball", "sphere")[i % 2]
        ops.append({
            "argv": ["confluence-fuzz", "--n", "3", "--mode", mode,
                     "--count", str(FUZZ_COUNT), "--seed", str(op_seed)],
            "expect": {"exit": 0,
                       "result": {"checked": FUZZ_COUNT, "failures": 0}},
            "info": {"n": 3, "mode": mode, "count": FUZZ_COUNT},
        })
    return ops


def build_ops(name: str, seed: int) -> List[dict]:
    """The op list of one pass, a pure function of (workload, seed)."""
    ops = _fuzz_ops(seed) if name == "fuzz-stream" else _pool_ops(name, seed)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def describe(ops: List[dict]) -> dict:
    """Input sizes of an op list, for the run's output."""
    infos = [op["info"] for op in ops]
    out: Dict[str, object] = {"ops_in_list": len(ops),
                              "commands": sorted({op["argv"][0] for op in ops}),
                              "n": sorted({i["n"] for i in infos})}
    for key in ("mode", "q", "degree", "count"):
        values = sorted({i[key] for i in infos if key in i})
        if values:
            out[key] = values
    schedules = sorted({json.dumps(i["schedule"]) for i in infos if "schedule" in i})
    if schedules:
        out["schedules"] = [json.loads(s) for s in schedules]
        out["certified_rows"] = sum(i["certified_rows"] for i in infos)
    return out


def check(op: dict, exit_code, report) -> str:
    """Empty string if the op's outcome matches its reference, else why not."""
    expect = op["expect"]
    if exit_code != expect["exit"]:
        return f"exit code {exit_code!r}, expected {expect['exit']}"
    if report is None:
        return "no JSON report written"
    if "points" in expect:
        return _check_norms(op["argv"][0], expect, report)
    if "result_sha256" in expect:
        text = report.get("result")
        if not isinstance(text, str) or hashlib.sha256(
                text.encode("utf-8")).hexdigest() != expect["result_sha256"]:
            return "normal form differs from reference text"
        return ""
    if report.get("result") != expect["result"]:
        return "result differs from reference"
    return ""


def _check_norms(command: str, expect: dict, report: dict) -> str:
    tol = expect["tol"]
    points = expect["points"]
    schedule = report.get("schedule", [])
    if [(p.get("N"), p.get("M")) for p in schedule] != [(p["N"], p["M"]) for p in points]:
        return "schedule points differ from reference"
    if command == "norm":
        values = [p["value"] for p in schedule]
        for got, ref in zip(values, points):
            if abs(got - ref["ball"]) > tol:
                return (f"N={ref['N']}: value {got!r} off dense reference "
                        f"{ref['ball']!r} by {got - ref['ball']:.3e} (tol {tol:g})")
        if any(b < a - MONOTONE_SLACK for a, b in zip(values, values[1:])):
            return f"non-monotone schedule {values!r}"
        return ""
    # gap reports: per-point |ball - boundary| and final values of each side
    for got, ref in zip(schedule, points):
        if abs(got["value"] - abs(ref["ball"] - ref["boundary"])) > 2 * tol:
            return f"N={ref['N']}: gap {got['value']!r} off reference"
    result = report.get("result") or {}
    for side in ("ball", "boundary"):
        if abs(result.get(side, float("nan")) - points[-1][side]) <= tol:
            continue
        return f"{side} value {result.get(side)!r} off reference {points[-1][side]!r}"
    if report.get("holomorphic") != expect["holomorphic"]:
        return "holomorphic flag differs from reference"
    return ""

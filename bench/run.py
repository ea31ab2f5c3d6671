"""qball benchmark: whole CLI commands, checked against references.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; nothing needs installing (the package is
imported from src/).  NAME is one of nf-cold, fuzz-stream, maxprinciple,
fock-large, or "all" to run each in turn.  See bench/README.md for the
workloads, metrics and reference pools.

One client, closed loop: an op is one qball CLI command, run in-process
through qball.cli.main(argv) with stdout captured, and the next op starts
when the previous one returns.  Ops run in fresh worker processes, one per
pass over the seeded op list; S seconds buy a fixed number of whole passes
(workloads.PASS_S).  Every op is checked against its reference and its
--json report is digested; a digest that differs from an earlier run of
the same source tree fails the op.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed prefix
of the op list three times, in fresh workers: untraced, with span wrappers
(tracing.py) and with call counters, and reports per-layer metrics and the
tracing overhead (traced minus untraced time over the same ops).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The run exits 1 without that line if it cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import clock
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(BENCH, ".state")

# One BLAS/OpenMP thread (nproc >= 1 everywhere): steadier than two
# threads on a shared machine, and the dense blocks measured are small.
THREADS = "1"
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"]
SETUP_REPEATS = 5
HELD_OUT_SEED = 20041      # keep out of tuning; confirm claimed gains on it
WORKER_BUDGET_S = 170      # a run must end within 180 s

LARGE_ROWS = 2048


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def measure_setup(env) -> List[Tuple[float, float]]:
    """(raw, reference-speed) time from a fresh interpreter to qball.cli
    imported."""
    cmd = [sys.executable, os.path.join(BENCH, "clock.py")]
    run = {"env": env, "cwd": ROOT, "check": True, "timeout": 60,
           "stdout": subprocess.PIPE, "text": True}
    subprocess.run(cmd, **run)  # warm-up: bytecode compiled, files cached
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        probe = json.loads(subprocess.run(cmd, **run).stdout)
        raw = time.perf_counter() - started
        scaled = raw
        if probe["kernel_s"]:
            scaled = (raw - probe["spent_s"]) * clock.REF_S / probe["kernel_s"]
        times.append((raw, scaled))
    return times


def run_worker(ops, mode: str, env, budget_end: float, tag: str) -> dict:
    """One pass in a fresh worker; its spans (if any) stay in STATE."""
    temp = {name: os.path.join(STATE, f"{name}-{os.getpid()}.json")
               for name in ("spec", "result", "report")}
    spans_path = os.path.join(STATE, f"spans-{tag}.jsonl")
    spec = {"src": SRC, "ops": [{"id": op["id"], "argv": op["argv"]} for op in ops],
            "mode": mode, "spans_path": spans_path,
            "report_path": temp["report"]}
    try:
        with open(temp["spec"], "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                        temp["spec"], temp["result"]], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL,
                       timeout=max(1.0, budget_end - time.monotonic()))
        with open(temp["result"], encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        for path in temp.values():
            if os.path.exists(path):
                os.remove(path)
    if mode == "spans":
        with open(spans_path, encoding="utf-8") as handle:
            result["spans"] = [json.loads(line) for line in handle]
        result["spans_path"] = os.path.relpath(spans_path, ROOT)
    return result


def source_digest() -> str:
    """Digest of the package source, naming 'the same code' for digests."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()[:16]


class DigestStore:
    """--json report digests of earlier runs of the same source tree."""

    def __init__(self) -> None:
        self.path = os.path.join(STATE, f"digests-{source_digest()}.json")
        self.known: Dict[str, str] = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                self.known = json.load(handle)
        self.compared = 0

    def check(self, argv, digest: str) -> str:
        key = json.dumps(argv)
        earlier = self.known.setdefault(key, digest)
        self.compared += 1
        if earlier != digest:
            return "JSON report differs from an earlier run of the same code"
        return ""

    def save(self) -> None:
        tmp = self.path + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.known, handle, sort_keys=True)
        os.replace(tmp, self.path)


def check_passes(ops, passes, store: DigestStore) -> List[str]:
    """One failure reason per failed op execution."""
    by_id = {op["id"]: op for op in ops}
    failures = []
    for result in (r for p in passes for r in p["ops"]):
        op = by_id[result["id"]]
        reason = result["error"] or workloads.check(op, result["exit"], result["report"])
        if not reason and result["digest"] is not None:
            reason = store.check(op["argv"], result["digest"])
        if reason:
            failures.append(f"op {op['id']} ({' '.join(op['argv'][:4])} ...): {reason}")
    return failures


def _value(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _latency_stats(latencies: List[float]) -> dict:
    """Throughput, median and tail of op latencies (seconds)."""
    k = len(latencies)
    ordered = sorted(latencies)
    if k > 10:   # the highest percentile with ten ops beyond it
        tail, tail_pct, beyond = ordered[k - 11], 100.0 * (k - 10) / k, 10
    else:
        tail, tail_pct, beyond = ordered[-1], 100.0, 0
    return {"ops_per_s": k / sum(latencies),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail, "tail_pct": tail_pct, "beyond": beyond}


def end_to_end(name: str, seed: int, seconds: float, env, store) -> dict:
    budget_end = time.monotonic() + WORKER_BUDGET_S
    ops = workloads.build_ops(name, seed)
    setup = measure_setup(env)
    # Whole passes only, so that every metric describes the same op mix.
    count = max(1, round(seconds / workloads.PASS_S[name]))
    passes = [run_worker(ops, "off", env, budget_end, name) for _ in range(count)]
    results = [r for p in passes for r in p["ops"]]
    if not results:
        raise RuntimeError("no op completed")
    failures = check_passes(ops, passes, store)
    k = len(results)
    scaled = _latency_stats([r["scaled_s"] for r in results])
    raw = _latency_stats([r["latency_s"] for r in results])
    metrics = {
        "setup_s": _value(statistics.median(s for _, s in setup), "s"),
        "ops_per_s": _value(scaled["ops_per_s"], "1/s"),
        "op_p50_ms": _value(scaled["op_p50_ms"], "ms"),
        "op_tail_ms": _value(scaled["op_tail_ms"], "ms"),
        "peak_rss_mb": _value(max(p["maxrss_kb"] for p in passes) / 1024, "MB"),
    }
    raw["setup_s"] = statistics.median(r for r, _ in setup)
    notes = {
        "samples": {"setup_s": len(setup), "ops": k},
        "passes": len(passes),
        "op_tail_ms": {"percentile": round(scaled["tail_pct"], 2),
                       "ops_beyond": scaled["beyond"]},
        "error_rate": {"value": len(failures) / k, "unit": "ratio",
                       "failed": len(failures), "attempted": k},
        "digests_compared": store.compared,
        "wall_clock": {m: raw[m] for m in ("setup_s", "ops_per_s", "op_p50_ms",
                                           "op_tail_ms")},
    }
    return {"ops": ops, "attempted": k, "failures": failures,
            "metrics": metrics, "notes": notes}


def per_layer(name: str, seed: int, env, store) -> dict:
    ops = workloads.build_ops(name, seed)[:workloads.TRACE_OPS[name]]
    budget_end = time.monotonic() + WORKER_BUDGET_S
    tag = f"{name}-seed{seed}"
    plain = run_worker(ops, "off", env, budget_end, tag)
    traced = run_worker(ops, "spans", env, budget_end, tag)
    counted = run_worker(ops, "counts", env, budget_end, tag)
    passes = [plain, traced, counted]
    failures = check_passes(ops, passes, store)

    spans = traced["spans"]
    own = tracing.self_times(spans)
    total_ms: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span, self_s in zip(spans, own):
        total_ms[span[0]] += 1000 * self_s
        calls[span[0]] += 1
    norm_rows = [s[5] for s in spans if s[0] == "norms.operator_norm" and s[5]]

    def ms(span_name):
        return _value(total_ms[span_name], "ms")

    def count(value):
        return _value(value, "count")

    untraced_ms = 1000 * sum(r["scaled_s"] for r in plain["ops"])
    traced_ms = 1000 * sum(r["scaled_s"] for r in traced["ops"])
    built = traced["built_rows"]
    metrics = {
        "cli.self_ms": ms("cli"),
        "cli.calls": count(calls["cli"]),
        "parsing.parse_expression_ms": ms("parsing.parse_expression"),
        "parsing.parse_expression_calls": count(calls["parsing.parse_expression"]),
        "parsing.print_ms": ms("parsing.print"),
        "rewrite.normalize_ms": ms("rewrite.normalize"),
        "rewrite.normalize_calls": count(calls["rewrite.normalize"]),
        "rewrite.normalize_by_steps_ms": ms("rewrite.normalize_by_steps"),
        "sampling.random_poly_stream_ms": ms("sampling.random_poly_stream"),
        "representations.fock_generators_ms": ms("representations.fock_generators"),
        "representations.fock_generators_calls":
            count(calls["representations.fock_generators"]),
        "representations.boundary_block_generators_ms":
            ms("representations.boundary_block_generators"),
        "representations.boundary_block_generators_calls":
            count(calls["representations.boundary_block_generators"]),
        "representations.rep_apply_ms": ms("representations.rep_apply"),
        "representations.rep_apply_calls": count(calls["representations.rep_apply"]),
        "representations.compress_ms": ms("representations.compress"),
        "representations.certified_rows": count(traced["certified_rows"]),
        "representations.certified_frac":
            _value(traced["certified_rows"] / built if built else 0.0, "ratio"),
        "norms.self_ms": ms("norms"),
        "norms.operator_norm_ms": ms("norms.operator_norm"),
        "norms.operator_norm_calls": count(calls["norms.operator_norm"]),
        "norms.operator_norm_large_calls":
            count(sum(1 for rows in norm_rows if rows > LARGE_ROWS)),
        "norms.operator_norm_max_rows": count(max(norm_rows, default=0)),
    }
    for metric, value in counted["counts"].items():
        metrics[metric] = count(value)
    metrics["trace.untraced_ms"] = _value(untraced_ms, "ms")
    metrics["trace.overhead_ms"] = _value(traced_ms - untraced_ms, "ms")
    k = sum(len(p["ops"]) for p in passes)
    notes = {"samples": {"ops_per_pass": len(ops), "passes": 3,
                         "spans": len(spans)},
             "spans_file": traced["spans_path"],
             "error_rate": {"value": len(failures) / k, "unit": "ratio",
                            "failed": len(failures), "attempted": k},
             "digests_compared": store.compared}
    return {"ops": ops, "attempted": k, "failures": failures,
            "metrics": metrics, "notes": notes}


def run_one(name: str, args, env) -> dict:
    store = DigestStore()
    if args.trace:
        outcome = per_layer(name, args.seed, env, store)
    else:
        outcome = end_to_end(name, args.seed, args.seconds, env, store)
    store.save()
    print(f"== workload {name} (seed {args.seed}, trace {args.trace}) ==")
    print(f"why        : {workloads.WHY[name]}")
    print(f"inputs     : {json.dumps(workloads.describe(outcome['ops']))}")
    print(f"threads    : {', '.join(f'{v}={THREADS}' for v in THREAD_VARS)}; "
          f"one client, closed loop")
    print(f"seeds      : this run {args.seed}; held out for claims {HELD_OUT_SEED}")
    for metric, entry in outcome["metrics"].items():
        print(f"  {metric:<48} {entry['value']:.6g} {entry['unit']}")
    rate = outcome["notes"]["error_rate"]
    print(f"  {'error_rate':<48} {rate['value']:.6g} ratio "
          f"({rate['failed']} of {rate['attempted']} op runs failed)")
    print(f"notes      : {json.dumps(outcome['notes'])}")
    for reason in outcome["failures"][:20]:
        print(f"FAILED     : {reason}")
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.names() + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qball", "cli.py")):
        print(f"error: no qball package under {SRC}", file=sys.stderr)
        return 1
    os.makedirs(STATE, exist_ok=True)
    env = _env()
    names = workloads.names() if args.workload == "all" else [args.workload]
    try:
        outcomes = {name: run_one(name, args, env) for name in names}
    except (subprocess.SubprocessError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = outcomes[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry for name, outcome in outcomes.items()
                   for metric, entry in outcome["metrics"].items()}
    failed = sum(len(o["failures"]) for o in outcomes.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(o["attempted"] for o in outcomes.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

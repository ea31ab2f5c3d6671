"""One pass of benchmark ops in a fresh interpreter.

    python3 bench/worker.py SPEC.json RESULT.json

SPEC holds the package's source directory, the ops (argv lists), the
tracing mode ("off", "spans" or "counts") and temporary file paths.  Every op
calls qball.cli.main(argv) in this process with stdout captured and writes
its --json report; the next op starts when the previous one returns.  Op
times are kept raw and at reference speed (see clock.py).  The worker is
fresh for each pass because every real CLI call starts with cold module
caches.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time


def _run_op(main, argv, report_path, sampler):
    if os.path.exists(report_path):
        os.remove(report_path)
    # Untimed: earlier ops' garbage is collected and their surviving objects
    # (module caches) frozen, so this op's collections scan only its own
    # objects, as in a fresh CLI process.
    gc.collect()
    gc.freeze()
    sink = io.StringIO()
    error = ""
    mark = sampler.mark() if sampler else 0
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv + ["--json", report_path])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op
            code, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - started
    text = None
    if os.path.exists(report_path):
        with open(report_path, "rb") as handle:
            text = handle.read()
    return {
        "latency_s": latency,
        "scaled_s": sampler.scaled(latency, mark) if sampler else latency,
        "exit": code,
        "error": error,
        "digest": hashlib.sha256(text).hexdigest() if text is not None else None,
        "report": json.loads(text) if text is not None else None,
    }


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import qball.cli
    import clock
    import tracing

    recorder = counter = None
    if spec["mode"] == "spans":
        recorder = tracing.SpanRecorder()
        recorder.install()
        cli_main = recorder.wrap("cli", qball.cli.main)
    else:
        if spec["mode"] == "counts":
            counter = tracing.CallCounter()
            counter.install()
        cli_main = qball.cli.main

    # The counters slow arithmetic by design; that pass reports no times.
    sampler = None if counter is not None else clock.Sampler()
    if sampler is not None:
        sampler.start()
    results = []
    for op in spec["ops"]:
        if recorder is not None:
            recorder.op = op["id"]
        result = _run_op(cli_main, op["argv"], spec["report_path"], sampler)
        result["id"] = op["id"]
        results.append(result)

    if sampler is not None:
        sampler.stop()
    out = {"ops": results,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        with open(spec["spans_path"], "w", encoding="utf-8") as handle:
            for span in recorder.spans:
                handle.write(json.dumps(span) + "\n")
        out["certified_rows"] = recorder.certified_rows
        out["built_rows"] = recorder.built_rows
    if counter is not None:
        out["counts"] = counter.counts
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

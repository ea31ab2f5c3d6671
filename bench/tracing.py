"""Tracing from outside the program: wrappers the benchmark installs on the
module attributes each caller resolves.

SpanRecorder records a span (name, start, end, parent span, op id) for
every call through a wrapped attribute and keeps the spans in memory; the
worker writes them out when its pass ends.  CallCounter only counts calls,
for functions called millions of times (scalar and polynomial arithmetic),
whose span wrappers would distort every time around them; it runs in a pass
of its own.

An attribute that a later version of the package no longer has is skipped,
and its metrics read 0.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional

# (module, attribute, span name).  cli resolves the entry points of every
# layer it calls; norms resolves the representation builders, rep_apply,
# compress and operator_norm.  All norms entry points share one span name,
# so norms.self_ms is the norms layer's own time.
SPAN_TARGETS = [
    ("qball.cli", "parse_expression", "parsing.parse_expression"),
    ("qball.cli", "print_poly", "parsing.print"),
    ("qball.cli", "print_matrix", "parsing.print"),
    ("qball.cli", "normalize", "rewrite.normalize"),
    ("qball.cli", "normalize_by_steps", "rewrite.normalize_by_steps"),
    ("qball.cli", "random_poly_stream", "sampling.random_poly_stream"),
    ("qball.cli", "ball_norm", "norms"),
    ("qball.cli", "boundary_norm", "norms"),
    ("qball.cli", "matrix_norm_level_k", "norms"),
    ("qball.cli", "max_principle_report", "norms"),
    ("qball.cli", "pbw_gram_min_singular", "norms"),
    ("qball.norms", "fock_generators", "representations.fock_generators"),
    ("qball.norms", "boundary_block_generators",
     "representations.boundary_block_generators"),
    ("qball.norms", "rep_apply", "representations.rep_apply"),
    ("qball.norms", "compress", "representations.compress"),
    ("qball.norms", "operator_norm", "norms.operator_norm"),
]

# (module, class or None, attribute, counter name)
COUNT_TARGETS = [
    ("qball.rewrite", None, "reduce_step", "rewrite.reduce_step_calls"),
    ("qball.algebra", "NCPoly", "__add__", "algebra.poly_add_calls"),
    ("qball.algebra", "NCPoly", "__mul__", "algebra.poly_mul_calls"),
    ("qball.scalars", "Scalar", "__mul__", "scalars.mul_calls"),
    ("qball.scalars", "Scalar", "__add__", "scalars.add_calls"),
    ("qball.scalars", "Scalar", "evaluate", "scalars.evaluate_calls"),
]


def _owner(module: str, cls: Optional[str] = None):
    owner = importlib.import_module(module)
    return getattr(owner, cls, None) if cls else owner


class SpanRecorder:
    """In-memory spans: [name, start, end, parent index, op id, rows]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None
        # certify_compression: certified rows kept / rows built
        self.certified_rows = 0
        self.built_rows = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if name == "norms.operator_norm" and hasattr(args[0], "shape"):
                record[5] = int(max(args[0].shape))
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in SPAN_TARGETS:
            owner = _owner(module)
            if hasattr(owner, attr):
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        norms = _owner("qball.norms")
        if hasattr(norms, "certify_compression"):
            certify = norms.certify_compression

            def counted(rep, *args, **kwargs):
                indices = certify(rep, *args, **kwargs)
                self.certified_rows += len(indices)
                self.built_rows += int(rep.dim)
                return indices

            norms.certify_compression = counted


class CallCounter:
    """Exact call counts of high-frequency functions."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {name: 0 for *_, name in COUNT_TARGETS}

    def install(self) -> None:
        for module, cls, attr, name in COUNT_TARGETS:
            owner = _owner(module, cls)
            if owner is None or not hasattr(owner, attr):
                continue
            setattr(owner, attr, self._counted(name, getattr(owner, attr)))

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own

"""Regenerate the reference pools under bench/refs/.

Run from the repository root (takes a few minutes, most of it dense SVDs):

    PYTHONPATH=src python3 bench/make_refs.py [nf-cold] [maxprinciple] [fock-large]

A pool is a list of slots; each slot holds a few variants of one op shape
(same n, degree, schedule, q and letter structure; different
coefficients).  A benchmark run takes one variant per slot, chosen by its seed, so
every seed does the same amount of work on different inputs.

The references are computed once, here, not by the code path a run times:

* normal forms are cross-validated before they are stored: rep_apply of the
  input and of its normal form must agree on the certified subspace of the
  Fock representation (ball mode only) and of several boundary character
  blocks (both modes; the boundary family annihilates the sphere relation);
* norm values are dense LAPACK, ``np.linalg.norm(block, 2)``, on the same
  certified blocks at the same (N, M), whatever the block size.  The program
  switches to power iteration above 2048 rows; the reference never does.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import os
import random
import sys
import time
from fractions import Fraction

import numpy as np

from qball.algebra import BALL, SPHERE, AlgebraContext, NCPoly
from qball.parsing import parse_expression, print_poly
from qball.representations import (
    BoundaryConfig,
    FockConfig,
    boundary_block_generators,
    certify_compression,
    compress,
    fock_generators,
    rep_apply,
)
from qball.rewrite import normalize

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
GEN_SEED = 2004
TOL = 1e-8                 # the CLI's default norm tolerance
CI_THRESHOLD = 2e-2        # the CLI's default ci-check pass threshold
CI_MARGIN = 5e-3           # keep reference gaps this far from the threshold
MONOTONE_SLACK = 1e-12     # NormEstimate.is_monotone's default slack

# -- normal forms -----------------------------------------------------

# (n, mode, starred letters S, unstarred letters T, a, b) stands for
# (sum_{j in S} c_j zj')^a * (sum_{k in T} d_k zk)^b.  Every shape differs
# from every other in n, mode, letters or exponents, so each op brings word
# structure no earlier op of the pass has; the list interleaves the four
# (n, mode) families, whose rewrite caches never share entries.  Shapes were
# picked to cost about 0.2-1.5 s each at the seed; no degree-10 product.
NF_SHAPES = [
    (2, BALL, (1, 2), (1, 2), 3, 4), (2, SPHERE, (1, 2), (1, 2), 3, 4),
    (3, BALL, (1, 2), (2, 3), 3, 4), (3, SPHERE, (2, 3), (1, 2), 3, 4),
    (2, BALL, (1, 2), (1, 2), 4, 3), (2, SPHERE, (1, 2), (1, 2), 4, 4),
    (3, BALL, (1, 2, 3), (1, 2, 3), 4, 2), (3, SPHERE, (1, 2, 3), (1, 2, 3), 4, 2),
    (2, BALL, (1, 2), (1, 2), 2, 6), (2, SPHERE, (1, 2), (1, 2), 2, 6),
    (3, BALL, (1, 3), (1, 3), 4, 3), (3, SPHERE, (1, 3), (1, 3), 4, 3),
    (2, BALL, (1, 2), (1, 2), 5, 3), (2, SPHERE, (1, 2), (1, 2), 5, 3),
    (3, BALL, (2, 3), (2, 3), 3, 4), (3, SPHERE, (1, 2), (1, 2), 4, 3),
    (2, BALL, (1, 2), (1, 2), 4, 4), (2, SPHERE, (1, 2), (1, 2), 4, 3),
    (3, BALL, (2, 3), (1, 2), 4, 4), (3, SPHERE, (1, 2), (2, 3), 4, 4),
    (3, BALL, (1, 2, 3), (1, 2, 3), 3, 3), (3, SPHERE, (2, 3), (1, 2), 4, 4),
]
NF_VARIANTS = 4
# Coefficient magnitudes are fixed per position, so every variant of a shape
# does Fraction arithmetic of the same size; the seed varies the phase
# (1, -1, i, -i) and the power of q (-1, 0, 1) of each coefficient.
NF_MAGNITUDES = {True: ["1", "1/2", "2/3"], False: ["1", "3/2", "2"]}


def _linear(rng: random.Random, letters, starred: bool) -> str:
    mark = "'" if starred else ""
    terms = []
    for j, magnitude in zip(letters, NF_MAGNITUDES[starred]):
        phase = rng.choice(["", "-", "i*", "-i*"])
        power = rng.choice(["*q^-1", "", "*q"])
        terms.append(f"({phase}{magnitude}{power})*z{j}{mark}")
    return " + ".join(terms)


def _cross_validate(p: NCPoly, nf: NCPoly, mode: str) -> float:
    """Largest certified deviation between rep(p) and rep(nf)."""
    degree = p.degree()
    N = degree + 3
    q = 0.6
    reps = []
    if mode == BALL:
        reps.append(fock_generators(FockConfig(p.n, N, q)))
    if p.n > 1:
        cfg = BoundaryConfig(p.n, N, 5, q)
        reps += [boundary_block_generators(cfg, cmath.exp(2j * cmath.pi * t / 5))
                 for t in range(5)]
    worst = 0.0
    for rep in reps:
        idx = certify_compression(rep, degree)
        a = compress(rep_apply(p, rep, q), idx)
        b = compress(rep_apply(nf, rep, q), idx)
        scale = max(1.0, float(np.linalg.norm(a, 2)))
        worst = max(worst, float(np.linalg.norm(a - b, 2)) / scale)
    return worst


def nf_pool() -> dict:
    rng = random.Random(GEN_SEED)
    slots = []
    for n, mode, S, T, a, b in NF_SHAPES:
        variants = []
        for _ in range(NF_VARIANTS):
            expr = f"({_linear(rng, S, True)})^{a}*({_linear(rng, T, False)})^{b}"
            p = parse_expression(expr, n)
            nf = normalize(p, AlgebraContext(n, mode))
            deviation = _cross_validate(p, nf, mode)
            if deviation > 1e-9:
                raise SystemExit(f"cross-validation failed for {expr}: {deviation:.3e}")
            variants.append({
                "argv": ["normal-form", "--n", str(n), "--mode", mode, "--expr", expr],
                "expect": {"exit": 0, "result_sha256": hashlib.sha256(
                    print_poly(nf).encode("utf-8")).hexdigest()},
                "info": {"n": n, "mode": mode, "degree": a + b,
                         "terms_out": len(nf.terms)},
            })
        print(f"nf-cold n={n} {mode} S={S} T={T} a={a} b={b}: "
              f"{[v['info']['terms_out'] for v in variants]} terms", flush=True)
        slots.append(variants)
    return {"workload": "nf-cold", "gen_seed": GEN_SEED, "slots": slots}


# -- norm references --------------------------------------------------

def _schedule(trunc, theta):
    return [(N, max(1, theta >> (len(trunc) - 1 - i))) for i, N in enumerate(trunc)]


def _dense(entries, rep, q, L):
    idx = certify_compression(rep, L)
    block = np.block([[compress(rep_apply(p, rep, q), idx) for p in row]
                      for row in entries])
    return float(np.linalg.norm(block, 2)), len(idx)


def reference_points(entries, n: int, q: float, trunc, theta) -> list:
    """Dense per-point Fock, boundary and ball values of a matrix of polys."""
    L = max(p.degree() for row in entries for p in row)
    points = []
    for N, M in _schedule(trunc, theta):
        fock, rows = _dense(entries, fock_generators(FockConfig(n, N, q)), q, L)
        cfg = BoundaryConfig(n, N, M, q)
        boundary = max(_dense(entries, boundary_block_generators(
            cfg, cmath.exp(2j * cmath.pi * t / M)), q, L)[0] for t in range(M))
        points.append({"N": N, "M": M, "fock": fock, "boundary": boundary,
                       "ball": max(fock, boundary), "fock_rows": rows})
    return points


def _monotone(values) -> bool:
    return all(b >= a - MONOTONE_SLACK for a, b in zip(values, values[1:]))


def _random_words(rng: random.Random, n: int, holomorphic: bool):
    """Three distinct words of lengths 1, 2, 2 (a slot's letter structure)."""
    while True:
        words = [tuple((rng.randint(1, n), not holomorphic and rng.random() < 0.5)
                       for _ in range(length)) for length in (1, 2, 2)]
        starred = any(s for word in words for _, s in word)
        # n = 1 has a single holomorphic word of length 2; it may repeat
        distinct = len(set(words)) == 3 or (n == 1 and holomorphic)
        if distinct and starred != holomorphic:
            return words


def _poly_text(rng: random.Random, words) -> str:
    """The words with seeded small coefficients."""
    return " + ".join(
        rng.choice(["1", "2", "(-1)", "1/2", "i", "(1-i)", "q"]) + "*"
        + "*".join(f"z{j}" + ("'" if s else "") for j, s in word)
        for word in words)


# (command, n, holomorphic, trunc, theta, q); slot 0 is the ROADMAP baseline
# op.  q is fixed per slot, so the Fock representations that ops of one pass
# share through the norms cache are the same for every seed.
MP_SLOTS = [
    ("maxprinciple", 2, None, [20, 40], 256, "1/2"),
    ("maxprinciple", 1, True, [10, 20], 256, "1/2"),
    ("maxprinciple", 1, False, [10, 20], 256, "2/3"),
    ("maxprinciple", 2, True, [10, 20], 128, "3/4"),
    ("maxprinciple", 2, False, [10, 20], 128, "1/2"),
    ("maxprinciple", 3, True, [6, 9, 12], 64, "2/3"),
    ("maxprinciple", 3, False, [8, 12], 64, "3/4"),
    ("ci-check", 1, True, [10, 20], 256, "3/4"),
    ("ci-check", 2, True, [10, 20], 128, "1/2"),
    ("ci-check", 2, False, [10, 20], 128, "2/3"),
    ("ci-check", 3, True, [8, 12], 64, "3/4"),
    ("ci-check", 3, False, [8, 12], 64, "1/2"),
]
MP_VARIANTS = 4


def mp_pool() -> dict:
    rng = random.Random(GEN_SEED)
    slots = []
    for command, n, holo, trunc, theta, q_text in MP_SLOTS:
        # Variants share the slot's words, so they cost the same to evaluate.
        words = None if holo is None else _random_words(rng, n, holo)
        variants = []
        while len(variants) < (1 if holo is None else MP_VARIANTS):
            text = "z1+z2" if holo is None else _poly_text(rng, words)
            p = parse_expression(text, n)
            if holo is not None and p.degree() != 2:
                continue
            q = float(Fraction(q_text))
            zero = NCPoly.zero(n)
            entries = [[p, zero], [zero, p]] if command == "ci-check" else [[p]]
            pts = reference_points(entries, n, q, trunc, theta)
            if not (_monotone([x["ball"] for x in pts])
                    and _monotone([x["boundary"] for x in pts])):
                raise SystemExit(f"non-monotone reference for {text}")
            gap = abs(pts[-1]["ball"] - pts[-1]["boundary"])
            expect_exit = 0
            if command == "ci-check":
                if abs(gap - CI_THRESHOLD) < CI_MARGIN:
                    continue
                expect_exit = 0 if gap <= CI_THRESHOLD else 4
            argv = [command] + (["--level", "2"] if command == "ci-check" else []) + [
                "--n", str(n), "--q", q_text, "--expr", text,
                "--trunc", ",".join(map(str, trunc)), "--theta", str(theta)]
            variants.append({
                "argv": argv,
                "expect": {"exit": expect_exit, "tol": TOL, "points": pts,
                           "holomorphic": not any(l.starred for w in p.terms for l in w)},
                "info": {"n": n, "q": q_text, "degree": p.degree(),
                         "schedule": [[x["N"], x["M"]] for x in pts],
                         "certified_rows": sum(x["fock_rows"] for x in pts)},
            })
        print(f"maxprinciple {command} n={n} holo={holo}: "
              f"{[v['argv'][-5] for v in variants]}", flush=True)
        slots.append(variants)
    return {"workload": "maxprinciple", "gen_seed": GEN_SEED, "slots": slots}


# Degree-1/2 polynomials at n = 3 whose Fock blocks at N = 24 have 2300 or
# 2600 certified rows, past the 2048-row switch to power iteration.  Some
# are dominated by the Fock side (the vacuum projection 1 - sum zk zk' is 0
# on the boundary), so the iterative value is what the CLI reports.
FL_SLOTS = [
    ("z1+z2+z3", "1/2"),
    ("z1+z2+z3", "4/5"),
    ("1-z1*z1'", "4/5"),
    ("z1'+z2'+z3'+1-z1*z1'-z2*z2'-z3*z3'", "1/2"),
    ("z1'*z1+1-z1*z1'-z2*z2'-z3*z3'", "1/2"),
    ("3-3*z3*z3'+z1'*z2", "4/5"),
]
FL_SCALES = ["1", "2"]
FL_TRUNC, FL_THETA = [18, 24], 8


def fl_pool() -> dict:
    slots = []
    for text, q_text in FL_SLOTS:
        variants = []
        for scale in FL_SCALES:
            expr = text if scale == "1" else f"{scale}*({text})"
            p = parse_expression(expr, 3)
            pts = reference_points([[p]], 3, float(Fraction(q_text)),
                                   FL_TRUNC, FL_THETA)
            if not _monotone([x["ball"] for x in pts]):
                raise SystemExit(f"non-monotone reference for {expr}")
            variants.append({
                "argv": ["norm", "--side", "ball", "--n", "3", "--q", q_text,
                         "--expr", expr, "--trunc", ",".join(map(str, FL_TRUNC)),
                         "--theta", str(FL_THETA)],
                "expect": {"exit": 0, "tol": TOL, "points": pts},
                "info": {"n": 3, "q": q_text, "degree": p.degree(),
                         "schedule": [[x["N"], x["M"]] for x in pts],
                         "certified_rows": sum(x["fock_rows"] for x in pts)},
            })
            print(f"fock-large {expr} q={q_text}: "
                  f"{[round(x['ball'], 12) for x in pts]}", flush=True)
        slots.append(variants)
    return {"workload": "fock-large", "gen_seed": GEN_SEED, "slots": slots}


POOLS = {"nf-cold": nf_pool, "maxprinciple": mp_pool, "fock-large": fl_pool}


def main(names) -> None:
    for name in names or list(POOLS):
        started = time.perf_counter()
        pool = POOLS[name]()
        path = os.path.join(REFS, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(pool, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path} in {time.perf_counter() - started:.1f}s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

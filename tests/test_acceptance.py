"""Acceptance suite: one pass/fail line per criterion (run with pytest -s)."""

import cmath
import random

import numpy as np
import pytest

from qball.algebra import BALL, SPHERE, AlgebraContext, NCPoly
from qball.norms import (
    ball_norm,
    boundary_norm,
    make_schedule,
    max_principle_report,
    operator_norm,
    pbw_gram_min_singular,
    relation_residual,
)
from qball.parsing import parse_expression
from qball.representations import (
    BoundaryConfig,
    FockConfig,
    certify_compression,
    fock_generators,
    rep_apply,
)
from qball.rewrite import canonical_monomials, normalize, normalize_by_steps
from qball.sampling import holomorphic_catalog, random_poly, random_poly_stream

from oracles import boundary_generators, fraction_terms, fraction_value

Q = 0.5
STREAM_SEED = 7
N1_SCHEDULE = make_schedule([10, 20, 40], 4096)
N2_SCHEDULE = make_schedule([6, 9, 12], 64)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


@pytest.fixture(scope="module")
def poly_stream():
    return random_poly_stream(STREAM_SEED, 500, n_max=3, max_degree=4)


def test_criterion_1_representation_soundness():
    worst = 0.0
    for q in (0.25, 0.5, 0.75):
        for n in (1, 2, 3):
            rep = fock_generators(FockConfig(n, 8, q))
            worst = max(worst, relation_residual(rep, AlgebraContext(n, BALL), q))
        for n in (2, 3):
            rep = boundary_generators(BoundaryConfig(n, 8, 8, q))
            worst = max(worst,
                        relation_residual(rep, AlgebraContext(n, SPHERE), q))
    report(1, "representation soundness", worst < 1e-12,
           f"max residual {worst:.2e}")


def test_criterion_2_rewrite_representation_cross_validation(poly_stream):
    reps = {n: fock_generators(FockConfig(n, 8, Q)) for n in (1, 2, 3)}
    worst = 0.0
    for n, p in poly_stream:
        nf = normalize(p, AlgebraContext(n, BALL))
        rep = reps[n]
        idx = certify_compression(rep, p.degree())
        diff = rep_apply(p, rep, Q, idx) - rep_apply(nf, rep, Q, idx)
        if diff.size:
            worst = max(worst, float(np.linalg.norm(diff, 2)))
    report(2, "rewrite/representation cross-validation", worst < 1e-10,
           f"500 polynomials, max deviation {worst:.2e}")


def test_criterion_3_confluence(poly_stream):
    strategies = [("leftmost", None), ("rightmost", None),
                  ("random", 0), ("random", 1), ("random", 2)]
    failures = 0
    for n, p in poly_stream:
        ctx = AlgebraContext(n, BALL)
        expected = normalize(p, ctx)
        for strategy, seed in strategies:
            if normalize_by_steps(p, ctx, strategy, seed) != expected:
                failures += 1
                break
    golden = normalize(parse_expression("z1'*z1*z1'*z1", 1),
                       AlgebraContext(1, BALL))
    expected = parse_expression(
        "q^6*z1^2*z1'^2 + (1-q^2)*(q^4+2*q^2)*z1*z1' + (1-q^2)^2", 1)
    ok = failures == 0 and golden == expected
    report(3, "confluence (5 strategies, 500 polynomials + golden)", ok,
           f"{failures} disagreements")


def test_criterion_4_boundary_ideal_smoke():
    ok = True
    details = []
    for n in (1, 2):
        terms = " - ".join(f"z{j}*z{j}'" for j in range(1, n + 1))
        f = parse_expression(f"1 - {terms}", n)
        bnd = boundary_norm(f, Q, [(8, 16)]).final
        ball = ball_norm(f, Q, [(8, 16)]).final
        ok = ok and bnd < 1e-12 and abs(ball - 1.0) < 1e-9
        details.append(f"n={n}: ball={ball:.9f} boundary={bnd:.1e}")
    report(4, "boundary-ideal smoke test", ok, "; ".join(details))


def test_criterion_5_max_principle_desk_scale():
    ok = True
    details = []
    for text, n, f in holomorphic_catalog():
        schedule = N1_SCHEDULE if n == 1 else N2_SCHEDULE
        threshold = 1e-3 if n == 1 else 1e-2
        rep = max_principle_report(f, Q, schedule)
        gaps = rep.gaps()
        monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        entry_ok = rep.holomorphic and rep.gap <= threshold and monotone
        ok = ok and entry_ok
        details.append(f"{text!r}: gap={rep.gap:.2e}")
    report(5, "maximum principle on the holomorphic catalog", ok,
           "; ".join(details))


def test_criterion_6_complete_isometry_level_2():
    ok = True
    details = []
    for text in ("[z1, z2; 0, z1]", "[z1, z2]", "[z1, 0; 0, z2]"):
        F = parse_expression(text, 2)
        rep = max_principle_report(F, Q, N2_SCHEDULE)
        entry_ok = rep.holomorphic and rep.gap <= 2e-2
        ok = ok and entry_ok
        details.append(f"{text!r}: gap={rep.gap:.2e}")
    report(6, "complete isometry at matrix level 2", ok, "; ".join(details))


def _grid_max(f: NCPoly, points: int) -> float:
    # independent oracle: scalar evaluation of f on the unit circle
    best = 0.0
    for t in range(points):
        z = cmath.exp(2j * cmath.pi * t / points)
        total = 0j
        for word, coeff in fraction_terms(f).items():
            value = fraction_value(coeff, Q)
            for letter in word:
                value *= z.conjugate() if letter.starred else z
            total += value
        best = max(best, abs(total))
    return best


def test_criterion_7_classical_oracle_n1():
    entries = [(text, f) for text, n, f in holomorphic_catalog() if n == 1]
    rng = random.Random(19)
    for _ in range(3):
        f = random_poly(rng, 1, max_degree=3, star_free=True)
        if not f.is_zero():
            entries.append(("random star-free", f))
    ok = True
    details = []
    for text, f in entries:
        oracle = _grid_max(f, 4096)
        value = boundary_norm(f, Q, [(8, 4096)]).final
        # dual route: full cyclic-shift matrix representation
        rep = boundary_generators(BoundaryConfig(1, 1, 256, Q))
        matrix_route = operator_norm(rep_apply(f, rep, Q))
        ok = (ok and abs(value - oracle) < 1e-6
              and abs(matrix_route - _grid_max(f, 256)) < 1e-8)
        details.append(f"{text!r}: |Δ|={abs(value - oracle):.1e}")
    report(7, "classical circle oracle (n=1)", ok, "; ".join(details))


def test_criterion_8_monotonicity_and_domination():
    catalog = [(n, f) for _, n, f in holomorphic_catalog()]
    for n in (1, 2):
        terms = " - ".join(f"z{j}*z{j}'" for j in range(1, n + 1))
        catalog.append((n, parse_expression(f"1 - {terms}", n)))
    rng = random.Random(20)
    for _ in range(4):
        n = rng.randint(1, 2)
        catalog.append((n, random_poly(rng, n, max_degree=3)))
    ok = True
    worst_gap = 0.0
    for n, f in catalog:
        schedule = make_schedule([6, 8, 10], 64)
        ball = ball_norm(f, Q, schedule)
        bnd = boundary_norm(f, Q, schedule)
        ok = ok and ball.is_monotone() and bnd.is_monotone()
        ok = ok and ball.final >= bnd.final - 1e-9
        worst_gap = max(worst_gap, bnd.final - ball.final)
    report(8, "monotonicity and ball/boundary domination", ok,
           f"max(boundary-ball)={worst_gap:.2e}")


def test_criterion_9_faithfulness_and_pbw_rank():
    ok = True
    smallest = float("inf")
    for word in canonical_monomials(2, 3):
        f = NCPoly.from_word(2, word)
        value = ball_norm(f, Q, [(8, 8)]).final
        smallest = min(smallest, value)
        ok = ok and value > 1e-6
    gram = pbw_gram_min_singular(2, 3, 8, Q)
    ok = ok and gram > 1e-8
    report(9, "faithfulness probe and PBW rank", ok,
           f"min norm {smallest:.2e}, min Gram singular value {gram:.2e}")

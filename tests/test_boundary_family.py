"""The boundary family as a trigonometric polynomial in omega.

boundary_certified_value evaluates sum_d omega^d A_d on all M-th roots of
unity at once, or only at omega = 1 for an omega_invariant input.  The
oracle below is the direct construction it replaced: one character block
per omega, built and evaluated on its own.
"""

import cmath
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qball.norms as norms
from qball.algebra import Letter, MatPoly, NCPoly
from qball.norms import (
    ball_norm,
    boundary_certified_value,
    boundary_norm,
    fock_certified_value,
    make_schedule,
    max_principle_report,
    omega_invariant,
)
from qball.parsing import parse_expression
from qball.representations import (
    BoundaryConfig,
    boundary_block_generators,
    certify_compression,
    rep_apply,
)
from qball.sampling import random_poly

from oracles import circle_grid_max, fraction_constant

Q = 0.5
TOL = 1e-12


def per_omega_value(f, q_val, N, M):
    """Max block norm over the M-th roots of unity, one block at a time."""
    F = f if isinstance(f, MatPoly) else MatPoly([[f]])
    L = F.degree()
    cfg = BoundaryConfig(n=F.n, N=N, M=M, q_val=q_val)
    best = 0.0
    for t in range(M):
        rep = boundary_block_generators(cfg, cmath.exp(2j * cmath.pi * t / M))
        indices = certify_compression(rep, L)
        block = np.block([[rep_apply(p, rep, q_val, indices)
                           for p in row] for row in F.entries])
        best = max(best, float(np.linalg.norm(block, 2)))
    return best


@pytest.mark.parametrize("n, N, M", [(1, 4, 64), (2, 7, 32), (3, 6, 16)])
def test_boundary_value_matches_per_omega_oracle(n, N, M):
    rng = random.Random(40 + n)
    for _ in range(6):
        f = random_poly(rng, n, max_degree=3)
        assert boundary_certified_value(f, Q, N, M) == pytest.approx(
            per_omega_value(f, Q, N, M), abs=TOL)


@pytest.mark.parametrize("text, n", [
    ("[z1, z2]", 2),
    ("[z1', z2*z1; 1 + z1*z1, q*z2']", 2),
    ("[z1*z3', 0; z2, i*z1' + z3]", 3),
])
def test_boundary_matrix_value_matches_per_omega_oracle(text, n):
    F = parse_expression(text, n)
    assert boundary_certified_value(F, Q, 6, 16) == pytest.approx(
        per_omega_value(F, Q, 6, 16), abs=TOL)


@pytest.mark.parametrize("batch_bytes, dense_limit", [(1, 2048), (1 << 20, 4)])
def test_chunking_and_dense_limit_fallback(monkeypatch, batch_bytes,
                                           dense_limit):
    """One block per batch, and a component above the dense limit going
    through svds once per omega, give the batched value."""
    f = parse_expression("z1 + z2*z1' + q*z2'*z2", 2)
    expected = boundary_certified_value(f, Q, 6, 16)
    calls = []
    svds = scipy.sparse.linalg.svds

    def counted_svds(A, *args, **kwargs):
        calls.append(A.shape)
        return svds(A, *args, **kwargs)

    monkeypatch.setattr(norms, "_BATCH_BYTES", batch_bytes)
    monkeypatch.setattr(norms, "_DENSE_LIMIT", dense_limit)
    monkeypatch.setattr(scipy.sparse.linalg, "svds", counted_svds)
    assert boundary_certified_value(f, Q, 6, 16) == pytest.approx(
        expected, abs=TOL)
    # each of the 16 blocks is one 5 x 5 component (certified levels 0..4)
    assert calls == ([] if dense_limit == 2048 else [(5, 5)] * 16)


def test_n1_nested_grids_monotone_and_equal_circle_oracle():
    rng = random.Random(44)
    for _ in range(8):
        f = random_poly(rng, 1, max_degree=3)
        sched = [(4, 16), (8, 32), (16, 64)]
        est = boundary_norm(f, Q, sched)
        assert est.is_monotone()
        for point in est.points:
            assert point["value"] == pytest.approx(
                circle_grid_max(f, Q, point["M"]), abs=TOL)


@pytest.mark.parametrize("text, n", [
    ("z1 + z2'*z1", 2),
    ("1 + z1*z3 - z2'", 3),
    ("[z1, z2; 0, z1']", 2),
    ("[z1, z2]", 2),
])
def test_max_principle_report_builds_boundary_once_per_point(monkeypatch,
                                                             text, n):
    f = parse_expression(text, n)
    sched = make_schedule([4, 6, 8], 16)
    invariance_tests = []
    invariant = norms.omega_invariant

    def counted_invariant(F):
        invariance_tests.append(F)
        return invariant(F)

    # omega_invariant runs once per schedule call, not once per point
    monkeypatch.setattr(norms, "omega_invariant", counted_invariant)
    ball = ball_norm(f, Q, sched)
    assert len(invariance_tests) == 1
    bdry = boundary_norm(f, Q, sched)
    assert len(invariance_tests) == 2
    calls = []
    build = norms.boundary_block_generators

    def counted(cfg, omega):
        calls.append((cfg.N, cfg.M))
        return build(cfg, omega)

    monkeypatch.setattr(norms, "boundary_block_generators", counted)
    report = max_principle_report(f, Q, sched)
    assert len(invariance_tests) == 3
    # one omega = 1 block per schedule point, for both sides together
    assert calls == sched
    for got, want in ((report.ball, ball), (report.boundary, bdry)):
        assert got.values() == pytest.approx(want.values(), abs=TOL)
        assert got.stabilized == want.stabilized
    assert report.gap == pytest.approx(abs(ball.final - bdry.final), abs=TOL)


# -- the gauge torus: omega-invariant inputs need one block ------------

def charges(word, n):
    return [sum(-1 if x.starred else 1 for x in word if x.index == j)
            for j in range(1, n + 1)]


@st.composite
def gauge_inputs(draw):
    """(f, built_invariant): a polynomial or k x l matrix of polynomials,
    n <= 3, with words of length <= 3.  When built_invariant, each word is
    kept only in the entries (a, b) where x.c(w) + alpha_a - beta_b equals
    that of the first word in entry (0, 0), for a drawn integer weight x
    with x_1 != 0 and row and column offsets alpha, beta; otherwise words
    land in random entries."""
    n = draw(st.integers(1, 3))
    k, l = (1, 1) if draw(st.booleans()) else draw(
        st.sampled_from([(1, 2), (2, 1), (2, 2)]))
    built_invariant = draw(st.booleans())
    x = [draw(st.sampled_from([-2, -1, 1, 2]))] + draw(
        st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    alpha = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    beta = draw(st.lists(st.integers(-2, 2), min_size=l, max_size=l))
    letters = st.builds(Letter, st.integers(1, n), st.booleans())
    words = draw(st.lists(st.lists(letters, max_size=3).map(tuple),
                          min_size=1, max_size=8))

    def weight(word, a, b):
        return (sum(u * c for u, c in zip(x, charges(word, n)))
                + alpha[a] - beta[b])

    entries = [[NCPoly.zero(n) for _ in range(l)] for _ in range(k)]
    for w, word in enumerate(words):
        if built_invariant:
            cells = [(a, b) for a in range(k) for b in range(l)
                     if weight(word, a, b) == weight(words[0], 0, 0)]
        else:
            cells = [(w * 7 % k, w * 5 % l)]
        for a, b in cells:
            coeff = fraction_constant(n, (
                draw(st.integers(-1, 1)),
                Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
                draw(st.integers(-2, 2))))
            entries[a][b] = entries[a][b] + NCPoly.from_word(n, word) * coeff
    f = entries[0][0] if (k, l) == (1, 1) else MatPoly(entries)
    return f, built_invariant


@settings(max_examples=40)
@given(case=gauge_inputs(), extra=st.integers(1, 2),
       M=st.sampled_from([1, 3, 8, 64]))
def test_invariant_inputs_one_block_equals_full_grid(case, extra, M):
    f, built_invariant = case
    if built_invariant:
        assert omega_invariant(f)
    F = f if isinstance(f, MatPoly) else MatPoly([[f]])
    N = F.degree() + extra
    assert boundary_certified_value(f, Q, N, M) == pytest.approx(
        per_omega_value(f, Q, N, M), abs=TOL)


@pytest.mark.parametrize("text, n, invariant", [
    ("(z1+z2)^2*z2 + z2^2*z1", 2, True),        # homogeneous, x = (1, 1)
    ("z1'*z2 + z3^2*z1 + z1^2", 3, True),       # x = (2, 6, 1)
    ("z1*z2' + z3*z1 + z2'*z1*z3^2", 3, True),  # one z1-charge
    ("1/2*z3 + (1-i)*z2*z2 + (1-i)*z2*z1", 3, True),   # x = (1, 1, 2)
    ("[z1, 1; 1, z1']", 1, True),               # row and column offsets
    ("[z1, z1^2]", 2, True),                    # column offsets
    ("z1 + z1^2", 1, False),
    ("(1-i)*z2 + 1/2*z1*z2 + i*z2*z2", 2, False),
    ("[z1, 1; 1, z1]", 1, False),
])
def test_invariance_examples(text, n, invariant):
    assert omega_invariant(parse_expression(text, n)) is invariant


def test_circle_upper_bounds_a_4096_point_grid():
    rng = random.Random(47)
    checked = 0
    while checked < 8:
        n = rng.randint(1, 3)
        f = random_poly(rng, n, max_degree=3)
        if omega_invariant(f):
            continue
        sched = make_schedule([f.degree() + 1, f.degree() + 3], 32)
        bdry, ball = boundary_norm(f, Q, sched), ball_norm(f, Q, sched)
        assert not bdry.omega["invariant"] and not ball.omega["invariant"]
        for (N, M), b_up, f_up in zip(sched, bdry.omega["circle_upper"],
                                      ball.omega["circle_upper"]):
            fine = boundary_certified_value(f, Q, N, 4096)
            assert b_up >= fine - TOL
            assert f_up >= max(fock_certified_value(f, Q, N), fine) - TOL
        checked += 1


def test_circle_upper_is_the_value_or_null():
    # z1^3 + z1'^3: K = 3, so M = 8 < 3 pi proves nothing and M = 16 does
    f = parse_expression("z1^3 + z1'^3", 1)
    est = boundary_norm(f, Q, [(4, 8), (4, 16)])
    assert est.omega["circle_upper"][0] is None
    assert est.omega["circle_upper"][1] == pytest.approx(
        est.values()[1] / (1 - 3 * np.pi / 16), rel=TOL)
    g = parse_expression("[z1'*z2, z2^2; z3, z1*z3]", 3)
    est = ball_norm(g, Q, make_schedule([3, 5], 16))
    assert est.omega == {"invariant": True, "circle_upper": est.values()}

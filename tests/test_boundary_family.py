"""The boundary family as a trigonometric polynomial in omega.

boundary_certified_value evaluates sum_d omega^d A_d on all M-th roots of
unity at once.  The oracle below is the direct construction it replaced:
one character block per omega, built and evaluated on its own.
"""

import cmath
import random

import numpy as np
import pytest
import scipy.sparse.linalg

import qball.norms as norms
from qball.algebra import MatPoly
from qball.norms import (
    ball_norm,
    boundary_certified_value,
    boundary_norm,
    make_schedule,
    matrix_norm_level_k,
    max_principle_report,
)
from qball.parsing import parse_expression
from qball.representations import (
    BoundaryConfig,
    boundary_block_generators,
    certify_compression,
    compress,
    rep_apply,
)
from qball.sampling import random_poly

from oracles import circle_grid_max

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
        block = np.block([[compress(rep_apply(p, rep, q_val), indices)
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
    if isinstance(f, MatPoly):
        ball = matrix_norm_level_k(f, "ball", Q, sched)
        bdry = matrix_norm_level_k(f, "boundary", Q, sched)
    else:
        ball = ball_norm(f, Q, sched)
        bdry = boundary_norm(f, Q, sched)
    calls = []
    build = norms.boundary_block_generators

    def counted(cfg, omega):
        calls.append((cfg.N, cfg.M))
        return build(cfg, omega)

    monkeypatch.setattr(norms, "boundary_block_generators", counted)
    report = max_principle_report(f, Q, sched)
    # one omega = 1 block per schedule point, for both sides together
    assert calls == sched
    for got, want in ((report.ball, ball), (report.boundary, bdry)):
        assert got.values() == pytest.approx(want.values(), abs=TOL)
        assert got.stabilized == want.stabilized
    assert report.gap == pytest.approx(abs(ball.final - bdry.final), abs=TOL)

import random

import numpy as np
import pytest

from qball.algebra import BALL, SPHERE, AlgebraContext, NCPoly, poly_adjoint
from qball.parsing import parse_expression
from qball.representations import (
    BoundaryConfig,
    FockConfig,
    TruncationError,
    boundary_block_generators,
    certify_compression,
    compress,
    fock_generators,
    graded_lex_basis,
    rep_apply,
)
from qball.norms import relation_residual
from qball.rewrite import normalize
from qball.sampling import random_poly

from oracles import boundary_generators, cycle_matrix

Q = 0.5


def test_basis_enumeration_graded_lex():
    basis = graded_lex_basis(2, 2)
    assert basis == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_fock_weights_n1():
    rep = fock_generators(FockConfig(1, 2, Q))
    sub = rep.mats[0].toarray().diagonal(-1)
    assert sub == pytest.approx([np.sqrt(3) / 2, np.sqrt(15) / 4])


def test_fock_phase_n2():
    rep = fock_generators(FockConfig(2, 4, Q))
    basis = graded_lex_basis(2, 4)
    index = {m: i for i, m in enumerate(basis)}
    col = rep.mats[0].toarray()[:, index[(0, 1)]]
    expected = np.zeros(rep.dim, dtype=complex)
    expected[index[(1, 1)]] = Q * np.sqrt(1 - Q ** 2)
    assert col == pytest.approx(expected)


def test_fock_telescoping_identity():
    rep = fock_generators(FockConfig(2, 6, Q))
    total = rep.identity.toarray()
    for j in (1, 2):
        Z = rep.mats[j - 1].toarray()
        total = total - Z @ Z.conj().T
    for i in np.nonzero(rep.levels <= 5)[0]:
        expected = np.zeros(rep.dim)
        expected[i] = Q ** (2 * rep.levels[i])
        assert total[:, i] == pytest.approx(expected, abs=1e-13)


def test_fock_grading_structure():
    rep = fock_generators(FockConfig(3, 5, Q))
    for mat in rep.mats:
        coo = mat.tocoo()
        for r, c in zip(coo.row, coo.col):
            assert rep.levels[r] == rep.levels[c] + 1


def test_boundary_n1_is_cycle():
    rep = boundary_generators(BoundaryConfig(1, 1, 6, Q))
    mat = rep.mats[0].toarray()
    assert mat == pytest.approx(cycle_matrix(6).toarray())
    eigs = np.linalg.eigvals(mat)
    for root in np.exp(2j * np.pi * np.arange(6) / 6):
        assert np.abs(eigs - root).min() < 1e-9


def test_boundary_n2_z1_action():
    rep = boundary_generators(BoundaryConfig(2, 3, 4, Q))
    mat = rep.mats[0].toarray()
    # e_{m} (x) xi -> q^m e_m (x) C xi ; basis is m-major
    for m in range(4):
        for t in range(4):
            col = mat[:, m * 4 + t]
            expected = np.zeros(rep.dim, dtype=complex)
            expected[m * 4 + (t + 1) % 4] = Q ** m
            assert col == pytest.approx(expected)


def test_boundary_sphere_sum_identity():
    rep = boundary_generators(BoundaryConfig(3, 5, 4, Q))
    total = rep.identity.toarray()
    for j in (1, 2, 3):
        Z = rep.mats[j - 1].toarray()
        total = total - Z @ Z.conj().T
    good = np.nonzero(rep.levels <= 4)[0]
    assert np.abs(total[np.ix_(good, good)]).max() < 1e-13


def test_rep_apply_identity_and_adjoint():
    rep = fock_generators(FockConfig(2, 5, Q))
    assert rep_apply(NCPoly.one(2), rep, Q).toarray() == pytest.approx(
        np.eye(rep.dim))
    a = rep_apply(parse_expression("z1'", 2), rep, Q).toarray()
    b = rep_apply(parse_expression("z1", 2), rep, Q).toarray()
    assert a == pytest.approx(b.conj().T)


def test_rep_apply_defining_relation():
    rep = fock_generators(FockConfig(1, 6, Q))
    lhs = rep_apply(parse_expression("z1'*z1", 1), rep, Q)
    rhs = rep_apply(parse_expression("q^2*z1*z1' + (1-q^2)", 1), rep, Q)
    idx = certify_compression(rep, 2)
    assert np.abs(compress(lhs - rhs, idx)).max() < 1e-12


def test_certify_compression_bounds():
    rep = fock_generators(FockConfig(2, 4, Q))
    assert len(certify_compression(rep, 0)) == rep.dim
    with pytest.raises(TruncationError):
        certify_compression(rep, 5)
    exact = boundary_generators(BoundaryConfig(1, 1, 8, Q))
    assert len(certify_compression(exact, 100)) == 8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fock_relation_residual(n):
    rep = fock_generators(FockConfig(n, 8, Q))
    assert relation_residual(rep, AlgebraContext(n, BALL), Q) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_boundary_relation_residual(n):
    rep = boundary_generators(BoundaryConfig(n, 8, 8, Q))
    assert relation_residual(rep, AlgebraContext(n, SPHERE), Q) < 1e-12


def test_relation_residual_detects_corruption():
    rep = fock_generators(FockConfig(2, 8, Q))
    rep.mats[0].data[0] *= 1.01  # corrupt one raising weight
    assert relation_residual(rep, AlgebraContext(2, BALL), Q) > 1e-3


def test_boundary_block_matches_full_rep():
    cfg = BoundaryConfig(2, 4, 3, Q)
    full = boundary_generators(cfg)
    f = parse_expression("z1*z2' + q*z1'", 2)
    A = rep_apply(f, full, Q).toarray()
    block_norms = []
    for t in range(3):
        omega = np.exp(2j * np.pi * t / 3)
        block = boundary_block_generators(cfg, omega)
        block_norms.append(
            np.linalg.norm(rep_apply(f, block, Q).toarray(), 2))
    assert np.linalg.norm(A, 2) == pytest.approx(max(block_norms), abs=1e-12)


def test_homomorphism_cross_check():
    # rewriting and representations validate one another
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = random_poly(rng, n)
        nf = normalize(p, AlgebraContext(n, BALL))
        rep = fock_generators(FockConfig(n, 8, Q))
        idx = certify_compression(rep, p.degree())
        diff = compress(rep_apply(p, rep, Q) - rep_apply(nf, rep, Q), idx)
        assert np.linalg.norm(diff, 2) < 1e-10


def test_sphere_cross_check_on_boundary_reps():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(2, 3)
        p = random_poly(rng, n)
        nf = normalize(p, AlgebraContext(n, SPHERE))
        rep = boundary_generators(BoundaryConfig(n, 8, 4, Q))
        idx = certify_compression(rep, p.degree())
        diff = compress(rep_apply(p, rep, Q) - rep_apply(nf, rep, Q), idx)
        assert np.linalg.norm(diff, 2) < 1e-10


def test_star_compatibility_numeric():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 2)
        p = random_poly(rng, n)
        rep = fock_generators(FockConfig(n, 6, Q))
        a = rep_apply(poly_adjoint(p), rep, Q).toarray()
        b = rep_apply(p, rep, Q).toarray().conj().T
        assert np.abs(a - b).max() < 1e-14


def test_positivity():
    rng = random.Random(24)
    for _ in range(20):
        n = rng.randint(1, 2)
        p = random_poly(rng, n, max_degree=2)
        rep = fock_generators(FockConfig(n, 8, Q))
        gram = poly_adjoint(p) * p
        idx = certify_compression(rep, gram.degree())
        block = compress(rep_apply(gram, rep, Q), idx)
        eigs = np.linalg.eigvalsh((block + block.conj().T) / 2)
        assert eigs.min() >= -1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_annihilates_sphere_relation(n):
    rep = boundary_generators(BoundaryConfig(n, 8, 4, Q))
    terms = " - ".join(f"z{j}*z{j}'" for j in range(1, n + 1))
    f = parse_expression(f"1 - {terms}", n)
    idx = certify_compression(rep, 2)
    assert np.linalg.norm(compress(rep_apply(f, rep, Q), idx), 2) < 1e-12

import cmath
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qball.algebra import (
    BALL,
    SPHERE,
    AlgebraContext,
    Letter,
    NCPoly,
)
from qball.parsing import parse_expression
from qball.representations import (
    BoundaryConfig,
    FockConfig,
    TruncationError,
    boundary_block_generators,
    certify_compression,
    fock_generators,
    graded_lex_basis,
    rep_apply,
)
from qball.norms import relation_residual
from qball.rewrite import normalize
from qball.sampling import random_poly

from oracles import (boundary_generators, cycle_matrix, fraction_constant,
                     fraction_terms, fraction_value)

Q = 0.5


def generator_matrix(rep, j):
    """Dense matrix of generator j in rep."""
    return rep_apply(NCPoly.generator(rep.n, j), rep, Q)


def test_basis_enumeration_graded_lex():
    basis = graded_lex_basis(2, 2)
    assert basis == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_fock_weights_n1():
    rep = fock_generators(FockConfig(1, 2, Q))
    sub = generator_matrix(rep, 1).diagonal(-1)
    assert sub == pytest.approx([np.sqrt(3) / 2, np.sqrt(15) / 4])


def test_fock_phase_n2():
    rep = fock_generators(FockConfig(2, 4, Q))
    basis = graded_lex_basis(2, 4)
    index = {m: i for i, m in enumerate(basis)}
    col = generator_matrix(rep, 1)[:, index[(0, 1)]]
    expected = np.zeros(rep.dim, dtype=complex)
    expected[index[(1, 1)]] = Q * np.sqrt(1 - Q ** 2)
    assert col == pytest.approx(expected)


def test_fock_telescoping_identity():
    rep = fock_generators(FockConfig(2, 6, Q))
    total = np.eye(rep.dim)
    for j in (1, 2):
        Z = generator_matrix(rep, j)
        total = total - Z @ Z.conj().T
    for i in np.nonzero(rep.levels <= 5)[0]:
        expected = np.zeros(rep.dim)
        expected[i] = Q ** (2 * rep.levels[i])
        assert total[:, i] == pytest.approx(expected, abs=1e-13)


def test_fock_grading_structure():
    rep = fock_generators(FockConfig(3, 5, Q))
    for j in (1, 2, 3):
        for r, c in zip(*np.nonzero(generator_matrix(rep, j))):
            assert rep.levels[r] == rep.levels[c] + 1


def test_boundary_n1_is_cycle():
    rep = boundary_generators(BoundaryConfig(1, 1, 6, Q))
    mat = generator_matrix(rep, 1)
    assert mat == pytest.approx(cycle_matrix(6).toarray())
    eigs = np.linalg.eigvals(mat)
    for root in np.exp(2j * np.pi * np.arange(6) / 6):
        assert np.abs(eigs - root).min() < 1e-9


def test_boundary_n2_z1_action():
    rep = boundary_generators(BoundaryConfig(2, 3, 4, Q))
    mat = generator_matrix(rep, 1)
    # e_{m} (x) xi -> q^m e_m (x) C xi ; basis is m-major
    for m in range(4):
        for t in range(4):
            col = mat[:, m * 4 + t]
            expected = np.zeros(rep.dim, dtype=complex)
            expected[m * 4 + (t + 1) % 4] = Q ** m
            assert col == pytest.approx(expected)


def test_boundary_sphere_sum_identity():
    rep = boundary_generators(BoundaryConfig(3, 5, 4, Q))
    total = np.eye(rep.dim)
    for j in (1, 2, 3):
        Z = generator_matrix(rep, j)
        total = total - Z @ Z.conj().T
    good = np.nonzero(rep.levels <= 4)[0]
    assert np.abs(total[np.ix_(good, good)]).max() < 1e-13


def test_rep_apply_identity_and_adjoint():
    rep = fock_generators(FockConfig(2, 5, Q))
    assert rep_apply(NCPoly.one(2), rep, Q) == pytest.approx(np.eye(rep.dim))
    a = rep_apply(parse_expression("z1'", 2), rep, Q)
    b = rep_apply(parse_expression("z1", 2), rep, Q)
    assert a == pytest.approx(b.conj().T)


def test_rep_apply_defining_relation():
    rep = fock_generators(FockConfig(1, 6, Q))
    idx = certify_compression(rep, 2)
    lhs = rep_apply(parse_expression("z1'*z1", 1), rep, Q, idx)
    rhs = rep_apply(parse_expression("q^2*z1*z1' + (1-q^2)", 1), rep, Q, idx)
    assert np.abs(lhs - rhs).max() < 1e-12


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
    rep.maps[0][1][0] *= 1.01  # corrupt one raising weight (of e_0 -> e_(1,0))
    assert relation_residual(rep, AlgebraContext(2, BALL), Q) > 1e-3


def test_boundary_block_matches_full_rep():
    cfg = BoundaryConfig(2, 4, 3, Q)
    full = boundary_generators(cfg)
    f = parse_expression("z1*z2' + q*z1'", 2)
    A = rep_apply(f, full, Q)
    block_norms = []
    for t in range(3):
        omega = np.exp(2j * np.pi * t / 3)
        block = boundary_block_generators(cfg, omega)
        block_norms.append(
            np.linalg.norm(rep_apply(f, block, Q), 2))
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
        diff = rep_apply(p, rep, Q, idx) - rep_apply(nf, rep, Q, idx)
        assert np.linalg.norm(diff, 2) < 1e-10


def test_sphere_cross_check_on_boundary_reps():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(2, 3)
        p = random_poly(rng, n)
        nf = normalize(p, AlgebraContext(n, SPHERE))
        rep = boundary_generators(BoundaryConfig(n, 8, 4, Q))
        idx = certify_compression(rep, p.degree())
        diff = rep_apply(p, rep, Q, idx) - rep_apply(nf, rep, Q, idx)
        assert np.linalg.norm(diff, 2) < 1e-10


def test_star_compatibility_numeric():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 2)
        p = random_poly(rng, n)
        rep = fock_generators(FockConfig(n, 6, Q))
        a = rep_apply(p.adjoint(), rep, Q)
        b = rep_apply(p, rep, Q).conj().T
        assert np.abs(a - b).max() < 1e-14


def test_positivity():
    rng = random.Random(24)
    for _ in range(20):
        n = rng.randint(1, 2)
        p = random_poly(rng, n, max_degree=2)
        rep = fock_generators(FockConfig(n, 8, Q))
        gram = p.adjoint() * p
        idx = certify_compression(rep, gram.degree())
        block = rep_apply(gram, rep, Q, idx)
        eigs = np.linalg.eigvalsh((block + block.conj().T) / 2)
        assert eigs.min() >= -1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_annihilates_sphere_relation(n):
    rep = boundary_generators(BoundaryConfig(n, 8, 4, Q))
    terms = " - ".join(f"z{j}*z{j}'" for j in range(1, n + 1))
    f = parse_expression(f"1 - {terms}", n)
    idx = certify_compression(rep, 2)
    assert np.linalg.norm(rep_apply(f, rep, Q, idx), 2) < 1e-12


# -- rep_apply against products of dense generator matrices -------------

def dense_fock(n, N, q_val):
    """Dense truncated Fock generators, straight from the formula
    e_m -> q^{sum_{k>j} m_k} sqrt(1 - q^{2(m_j+1)}) e_{m+delta_j}."""
    index = {m: i for i, m in enumerate(graded_lex_basis(n, N))}
    gens = []
    for j in range(n):
        Z = np.zeros((len(index), len(index)), dtype=complex)
        for m, col in index.items():
            if sum(m) < N:
                up = m[:j] + (m[j] + 1,) + m[j + 1:]
                Z[index[up], col] = (q_val ** sum(m[j + 1:])
                                     * np.sqrt(1 - q_val ** (2 * m[j] + 2)))
        gens.append(Z)
    return gens


def dense_boundary_block(n, N, q_val, omega):
    """Dense boundary block: z1 = omega diag(q^|m|), z2..zn Fock in n - 1
    variables; the 1 x 1 block omega for n = 1."""
    if n == 1:
        return [np.array([[omega]], dtype=complex)]
    levels = np.array([sum(m) for m in graded_lex_basis(n - 1, N)])
    return [omega * np.diag(q_val ** levels)] + dense_fock(n - 1, N, q_val)


@st.composite
def starred_polys(draw, n):
    """Up to four words of length <= 4 in z1..zn and their adjoints."""
    p = NCPoly.zero(n)
    for _ in range(draw(st.integers(1, 4))):
        word = draw(st.lists(st.builds(Letter, st.integers(1, n), st.booleans()),
                             max_size=4))
        coeff = fraction_constant(n, (
            draw(st.integers(-1, 1)),
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
            draw(st.integers(-2, 2))))
        p = p + NCPoly.from_word(n, tuple(word)) * coeff
    return p


@settings(max_examples=100)
@given(data=st.data())
def test_rep_apply_equals_dense_generator_products(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(starred_polys(n))
    N = data.draw(st.integers(1, 7))
    if data.draw(st.booleans()):
        rep, gens = fock_generators(FockConfig(n, N, Q)), dense_fock(n, N, Q)
    else:
        omega = cmath.exp(2j * cmath.pi * data.draw(st.integers(1, 4)) / 5)
        rep = boundary_block_generators(BoundaryConfig(n, N, 5, Q), omega)
        gens = dense_boundary_block(n, N, Q, omega)
    idx = np.array(sorted(data.draw(st.sets(st.integers(0, rep.dim - 1)))),
                   dtype=int)
    want = np.zeros((rep.dim, rep.dim), dtype=complex)
    for word, coeff in fraction_terms(p).items():
        mat = np.eye(rep.dim)
        for letter in word:
            G = gens[letter.index - 1]
            mat = mat @ (G.conj().T if letter.starred else G)
        want += fraction_value(coeff, Q) * mat
    got = rep_apply(p, rep, Q, idx)
    assert got.shape == (len(idx), len(idx))
    assert np.abs(got - want[np.ix_(idx, idx)]).max(initial=0.0) < 1e-13
    assert np.abs(rep_apply(p, rep, Q) - want).max(initial=0.0) < 1e-13

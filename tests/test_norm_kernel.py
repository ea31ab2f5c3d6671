"""The norm kernel against dense LAPACK on the same certified blocks.

operator_norm splits a block into the connected components of its
structural nonzeros and takes the max of their top singular values; the
full-spectrum np.linalg.norm(block, 2) of the unsplit block is the oracle.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings
from hypothesis import strategies as st

import qball.norms as norms
from oracles import fraction_constant
from qball.algebra import Letter, MatPoly, NCPoly
from qball.norms import (
    NormConvergenceError,
    boundary_certified_value,
    fock_certified_value,
    operator_norm,
)
from qball.parsing import parse_expression
from qball.representations import (
    BoundaryConfig,
    FockConfig,
    boundary_block_generators,
    certify_compression,
    fock_generators,
    rep_apply,
)

Q = 0.5
TOL = 1e-12


@st.composite
def polys(draw, n, min_terms=1):
    """Up to three words of length <= 3, so of random multi-charge."""
    p = NCPoly.zero(n)
    for _ in range(draw(st.integers(min_terms, 3))):
        word = draw(st.lists(st.builds(Letter, st.integers(1, n), st.booleans()),
                             max_size=3))
        coeff = fraction_constant(n, (
            draw(st.integers(-1, 1)),
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
            draw(st.integers(-2, 2))))
        p = p + NCPoly.from_word(n, tuple(word)) * coeff
    return p


@st.composite
def inputs(draw):
    """A polynomial or a k x l matrix of polynomials, n <= 3."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return draw(polys(n))
    k, l = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return MatPoly([[draw(polys(n, min_terms=0)) for _ in range(l)]
                    for _ in range(k)])


def dense_block(F, rep, L):
    """The certified block of F in rep, unsplit."""
    indices = certify_compression(rep, L)
    return np.block([[rep_apply(p, rep, Q, indices) for p in row]
                     for row in F.entries])


def as_matrix(f):
    return f if isinstance(f, MatPoly) else MatPoly([[f]])


@settings(max_examples=40)
@given(f=inputs(), extra=st.integers(1, 3))
def test_fock_value_matches_lapack_on_the_same_block(f, extra):
    F = as_matrix(f)
    N = F.degree() + extra
    block = dense_block(F, fock_generators(FockConfig(F.n, N, Q)), F.degree())
    assert fock_certified_value(f, Q, N) == pytest.approx(
        float(np.linalg.norm(block, 2)), abs=TOL)


@settings(max_examples=40)
@given(f=inputs(), extra=st.integers(1, 3), M=st.sampled_from([1, 3, 8]))
def test_boundary_value_matches_lapack_on_the_same_blocks(f, extra, M):
    F = as_matrix(f)
    N = F.degree() + extra
    cfg = BoundaryConfig(F.n, N, M, Q)
    want = max(float(np.linalg.norm(dense_block(
        F, boundary_block_generators(cfg, np.exp(2j * np.pi * t / M)),
        F.degree()), 2)) for t in range(M))
    assert boundary_certified_value(f, Q, N, M) == pytest.approx(want, abs=TOL)


@pytest.fixture
def svds_calls(monkeypatch):
    calls = []
    svds = scipy.sparse.linalg.svds

    def counted_svds(A, *args, **kwargs):
        calls.append(A.shape)
        return svds(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "svds", counted_svds)
    return calls


def fock_block(text, n, N):
    f = parse_expression(text, n)
    return dense_block(as_matrix(f), fock_generators(FockConfig(n, N, Q)),
                       f.degree())


def test_iterative_component_matches_lapack(monkeypatch, svds_calls):
    monkeypatch.setattr(norms, "_DENSE_LIMIT", 100)
    block = fock_block("1+z1+z2+z3", 3, 12)     # one 364-row component
    assert operator_norm(block) == pytest.approx(
        float(np.linalg.norm(block, 2)), abs=TOL)
    assert svds_calls == [(364, 364)]


def test_schedule_monotone_across_dense_iterative_switch(monkeypatch,
                                                         svds_calls):
    monkeypatch.setattr(norms, "_DENSE_LIMIT", 100)
    f = parse_expression("1+z1+z2+z3", 3)
    # certified rows 56, 120, 220, 364: the first point stays dense
    values = [fock_certified_value(f, Q, N) for N in (6, 8, 10, 12)]
    assert svds_calls == [(120, 120), (220, 220), (364, 364)]
    assert all(b >= a - TOL for a, b in zip(values, values[1:]))


def test_arpack_failure_raises_norm_convergence_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("No convergence", [], [])

    monkeypatch.setattr(norms, "_DENSE_LIMIT", 100)
    monkeypatch.setattr(scipy.sparse.linalg, "svds", no_convergence)
    with pytest.raises(NormConvergenceError):
        operator_norm(fock_block("1+z1+z2+z3", 3, 12))


def test_split_is_exact_on_structural_zeros_only():
    A = np.zeros((4, 4), dtype=complex)
    A[:2, :2] = [[1, 2], [3, 4]]
    A[3, 2] = 6       # the 1 x 1 component beats the 2 x 2 one (5.46)
    assert operator_norm(A) == pytest.approx(6.0, abs=TOL)
    # no threshold: a tiny entry is a component of its own
    assert operator_norm(np.diag([1e-300, 0])) == pytest.approx(1e-300, rel=TOL)
    # an explicitly stored zero is not a structural nonzero
    S = sp.csr_matrix((np.array([0.0, 2.0]), ([0, 1], [1, 1])), shape=(2, 2))
    assert operator_norm(S) == pytest.approx(2.0, abs=TOL)


def test_stack_with_phases_takes_the_max_over_blocks():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 6, 5)) * (rng.random((3, 6, 5)) < 0.3)
    phases = np.exp(2j * np.pi * rng.random((7, 3)))
    want = max(np.linalg.norm(np.tensordot(w, A, axes=1), 2) for w in phases)
    assert operator_norm(A, phases=phases) == pytest.approx(want, abs=TOL)


def test_zero_empty_and_tolerance():
    assert operator_norm(np.zeros((3, 5))) == 0.0
    assert operator_norm(np.zeros((0, 4))) == 0.0
    assert operator_norm(sp.csr_matrix((6, 6))) == 0.0
    assert operator_norm(np.zeros((0, 2, 2)), phases=np.ones((4, 0))) == 0.0
    for tol in (0.0, -1e-8):
        with pytest.raises(ValueError):
            operator_norm(np.eye(2), tol=tol)


@settings(max_examples=60)
@given(r=st.integers(0, 30), c=st.integers(0, 30),
       density=st.floats(0, 0.3), seed=st.integers(0, 2 ** 16))
def test_component_labels_equal_csgraph(r, c, density, seed):
    """csgraph is the oracle here only; the kernel labels in numpy."""
    rows, cols = np.nonzero(
        np.random.default_rng(seed).random((r, c)) < density)
    count, labels = norms._components(r + c, rows, r + cols)
    want_count, want = connected_components(sp.csr_matrix(
        (np.ones(len(rows)), (rows, r + cols)), shape=(r + c, r + c)),
        directed=False)
    assert count == want_count
    assert labels.tolist() == want.tolist()


def test_component_labels_on_a_long_chain():
    # edges listed from the far end, so roots must travel the whole chain
    nodes = np.arange(5000)
    count, labels = norms._components(5000, nodes[:0:-1], nodes[-2::-1])
    assert count == 1 and not labels.any()

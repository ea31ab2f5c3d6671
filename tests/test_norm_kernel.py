"""The norm kernel against dense LAPACK on the same certified blocks.

operator_norm splits a block into the connected components of its
structural nonzeros and takes the max of their top singular values; the
full-spectrum np.linalg.norm(block, 2) of the unsplit block is the oracle.
The kernel takes a block only as Entries, a stack of matrices over one
pattern: dense test inputs reach it through oracles.entries_of.  The norm
paths hand it rep_entries, the stack of their parts' nonzeros; it must be
the stack of the dense blocks of the word-by-word loop
(oracles.reference_stack) bit for bit, and so give the same norm.
"""

import dataclasses
import warnings
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings
from hypothesis import strategies as st

import qball.norms as norms
from oracles import (
    entries_of,
    fraction_constant,
    reference_dense_block,
    reference_stack,
)
from qball.algebra import BALL, SPHERE, AlgebraContext, Letter, MatPoly, NCPoly
from qball.norms import (
    NormConvergenceError,
    ball_norm,
    boundary_norm,
    fock_certified_value,
    operator_norm,
)
from qball.parsing import parse_expression
from qball.representations import (
    BoundaryConfig,
    FockConfig,
    _adjoint,
    boundary_block_generators,
    certify_compression,
    fock_generators,
    rep_apply,
    rep_entries,
)
from qball.rewrite import defining_relations

Q = 0.5
TOL = 1e-12


@st.composite
def polys(draw, n, min_terms=1, real=False):
    """Up to three words of length <= 3, so of random multi-charge; with
    real, every coefficient is real."""
    p = NCPoly.zero(n)
    for _ in range(draw(st.integers(min_terms, 3))):
        word = draw(st.lists(st.builds(Letter, st.integers(1, n), st.booleans()),
                             max_size=3))
        coeff = fraction_constant(n, (
            draw(st.integers(-1, 1)),
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
            0 if real else draw(st.integers(-2, 2))))
        p = p + NCPoly.from_word(n, tuple(word)) * coeff
    return p


@st.composite
def inputs(draw, real=False):
    """A polynomial or a k x l matrix of polynomials, n <= 3."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return draw(polys(n, real=real))
    k, l = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return MatPoly([[draw(polys(n, min_terms=0, real=real)) for _ in range(l)]
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
    assert boundary_norm(f, Q, [(N, M)]).final == pytest.approx(want, abs=TOL)


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
    assert operator_norm(entries_of(block)) == pytest.approx(
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
        operator_norm(entries_of(fock_block("1+z1+z2+z3", 3, 12)))


def test_split_is_exact_on_structural_zeros_only():
    A = np.zeros((4, 4), dtype=complex)
    A[:2, :2] = [[1, 2], [3, 4]]
    A[3, 2] = 6       # the 1 x 1 component beats the 2 x 2 one (5.46)
    assert operator_norm(entries_of(A)) == pytest.approx(6.0, abs=TOL)
    # no threshold: a tiny entry is a component of its own
    assert operator_norm(entries_of(np.diag([1e-300, 0]))) == pytest.approx(
        1e-300, rel=TOL)
    # an explicitly stored zero is not a structural nonzero
    S = sp.csr_matrix((np.array([0.0, 2.0]), ([0, 1], [1, 1])), shape=(2, 2))
    assert operator_norm(entries_of(S)) == pytest.approx(2.0, abs=TOL)


def test_stack_with_phases_takes_the_max_over_blocks():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 6, 5)) * (rng.random((3, 6, 5)) < 0.3)
    phases = np.exp(2j * np.pi * rng.random((7, 3)))
    want = max(np.linalg.norm(np.tensordot(w, A, axes=1), 2) for w in phases)
    assert operator_norm(entries_of(A), phases=phases) == pytest.approx(
        want, abs=TOL)


def test_zero_empty_and_tolerance():
    assert operator_norm(entries_of(np.zeros((3, 5)))) == 0.0
    assert operator_norm(entries_of(np.zeros((0, 4)))) == 0.0
    assert operator_norm(entries_of(sp.csr_matrix((6, 6)))) == 0.0
    assert operator_norm(entries_of(np.zeros((0, 2, 2))),
                         phases=np.ones((4, 0))) == 0.0
    for tol in (0.0, -1e-8):
        with pytest.raises(ValueError):
            operator_norm(entries_of(np.eye(2)), tol=tol)


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


def strict_norm(A, **kwargs):
    """operator_norm of the dense A (or stack) with every warning raised as
    an error, whatever the pytest configuration: an overflow in the kernel
    must not pass."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return operator_norm(entries_of(A), **kwargs)


SCALES = [1e-310, 1e-200, 1.0, 1e200, 1e300]
# at 1e-310 sigma_1 itself is subnormal, so it is only as exact as the
# subnormal spacing: a few of those are allowed on top of 1e-15 relative
SUBNORMAL = 4 * np.finfo(float).smallest_subnormal


def complex_block(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (6, 6), (5, 8)])
def test_kernel_keeps_relative_accuracy_at_any_scale(scale, shape):
    """Squaring would lose sigma_1 below ~1e-154 and overflow above ~1e154;
    the power-of-two scale keeps it within ~eps relative."""
    A = complex_block(np.random.default_rng(11), *shape) * scale
    assert strict_norm(A) == pytest.approx(float(np.linalg.norm(A, 2)),
                                           rel=1e-15, abs=SUBNORMAL)


@pytest.mark.parametrize("scale", SCALES)
def test_phased_stack_keeps_relative_accuracy_at_any_scale(scale):
    # phases in {1, i, -1, -i}: the combined blocks are exact at every scale
    rng = np.random.default_rng(12)
    A = complex_block(rng, 3, 6, 5) * scale
    phases = 1j ** rng.integers(0, 4, size=(5, 3))
    want = max(float(np.linalg.norm(np.tensordot(w, A, axes=1), 2))
               for w in phases)
    assert strict_norm(A, phases=phases) == pytest.approx(
        want, rel=1e-15, abs=SUBNORMAL)


def test_zero_empty_and_cancelling_blocks_give_exact_zero():
    X = complex_block(np.random.default_rng(13), 4, 4)
    assert strict_norm(np.zeros((4, 4), dtype=complex)) == 0.0
    assert strict_norm(np.zeros((0, 3), dtype=complex)) == 0.0
    assert strict_norm(np.stack([X, X]),
                       phases=np.array([[1.0, -1.0]])) == 0.0


@pytest.mark.parametrize("A", [[[3, np.inf], [0, 0]], [[np.nan, 1], [0, 2]]])
def test_non_finite_entries_are_refused(A):
    """frexp(inf) has exponent 0 and max(best, nan) keeps best, so such a
    block would otherwise read as 0."""
    with pytest.raises(ValueError, match="nan or infinite"):
        operator_norm(entries_of(A))
    with pytest.raises(ValueError, match="nan or infinite"):
        operator_norm(entries_of(np.stack([np.eye(2), A])),
                      phases=np.ones((3, 2)))


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_convergence_error_reports_the_unscaled_value(monkeypatch, scale):
    """A 2 x 2 component goes to the dense kernel first, then a 5 x 5 one
    to ARPACK, which fails: last_value is the 2 x 2 value at the input's
    scale."""
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("No convergence", [], [])

    monkeypatch.setattr(norms, "_DENSE_LIMIT", 3)
    monkeypatch.setattr(scipy.sparse.linalg, "svds", no_convergence)
    rng = np.random.default_rng(14)
    small = complex_block(rng, 2, 2) * scale
    A = np.zeros((7, 7), dtype=complex)
    A[:2, :2], A[2:, 2:] = small, complex_block(rng, 5, 5) * scale
    with pytest.raises(NormConvergenceError) as err:
        strict_norm(A)
    assert err.value.last_value == pytest.approx(
        float(np.linalg.norm(small, 2)), rel=1e-15, abs=0)


# -- the entries form against the dense block ----------------------------

@st.composite
def blocks(draw):
    """A polynomial or k x l MatPoly, n <= 3, whose (0, 0) entry may carry
    defining relations (their entries cancel exactly, or in rounding), in
    a Fock block or a boundary block at a non-real root of unity, on full
    or certified indices; and a second MatPoly of the same shape."""
    F = MatPoly.of(draw(inputs()))
    rows = [list(row) for row in F.entries]
    relations = defining_relations(
        AlgebraContext(F.n, draw(st.sampled_from([BALL, SPHERE]))))
    for relation in draw(st.lists(st.sampled_from(relations), max_size=2)):
        rows[0][0] = rows[0][0] + relation
    F = MatPoly(rows)
    N = F.degree() + draw(st.integers(0, 2))
    if draw(st.booleans()):
        rep = fock_generators(FockConfig(F.n, max(N, 1), Q))
    else:
        omega = np.exp(2j * np.pi * draw(st.integers(1, 4)) / 5)
        rep = boundary_block_generators(
            BoundaryConfig(F.n, max(N, 1), 5, Q), omega)
    indices = (certify_compression(rep, F.degree())
               if draw(st.booleans()) else None)
    G = MatPoly([[draw(polys(F.n, min_terms=0)) for _ in row]
                 for row in F.entries])
    return F, G, rep, indices


def scatter(entries):
    """The first matrix of a stack of entries, dense."""
    rows, cols, values, shape = entries
    out = np.zeros(shape, dtype=complex)
    out[rows, cols] = values[0]
    return out


@settings(max_examples=150)
@given(case=blocks())
def test_entries_are_the_dense_block(case):
    F, _, rep, indices = case
    entries = rep_entries([F], rep, Q, indices)
    assert np.array_equal(scatter(entries), rep_apply(F, rep, Q, indices))
    assert np.array_equal(scatter(entries),
                          reference_dense_block(F, rep, Q, indices))
    rows, cols, values, (r, c) = entries
    assert values.shape == (1, len(rows)) and (values != 0).all()
    keys = rows * c + cols      # row-major, each position once
    assert (np.diff(keys) > 0).all()
    assert ((0 <= rows) & (rows < r) & (0 <= cols) & (cols < c)).all()


@settings(max_examples=150)
@given(case=blocks(), picks=st.lists(st.sampled_from([0, 1]), min_size=1,
                                     max_size=3))
def test_stack_is_the_reference_stack_bit_for_bit(case, picks):
    """F carries defining relations, so its entries cancel where G's
    need not: the stack keeps a position that is 0 in one part only."""
    F, G, rep, indices = case
    parts = [(F, G)[k] for k in picks]
    got = rep_entries(parts, rep, Q, indices)
    want = reference_stack(parts, rep, Q, indices)
    assert got.shape == want.shape
    assert np.array_equal(got.rows, want.rows)
    assert np.array_equal(got.cols, want.cols)
    assert got.values.shape == (len(parts), len(want.rows))
    assert got.values.tobytes() == want.values.tobytes()


@settings(max_examples=100)
@given(case=blocks(), M=st.integers(1, 8))
def test_norm_of_the_entries_is_the_norm_of_the_dense_block(case, M):
    F, G, rep, indices = case
    dense = [rep_apply(P, rep, Q, indices) for P in (F, G)]
    assert operator_norm(rep_entries([F], rep, Q, indices)) == operator_norm(
        entries_of(dense[0]))
    phases = np.exp(2j * np.pi * (np.outer(np.arange(M), [-1, 2]) % M) / M)
    assert operator_norm(rep_entries([F, G], rep, Q, indices),
                         phases=phases) == operator_norm(
        entries_of(np.stack(dense)), phases=phases)


# -- real blocks stay real ----------------------------------------------

EPS = np.finfo(float).eps


@st.composite
def real_stacks(draw):
    """One or two parts with real coefficients (a polynomial or k x l
    MatPolys of one shape), n <= 3, in a Fock block or the omega = 1
    boundary block, on full or certified indices."""
    F = MatPoly.of(draw(inputs(real=True)))
    parts = [F] + [MatPoly([[draw(polys(F.n, min_terms=0, real=True))
                             for _ in row] for row in F.entries])
                   for _ in range(draw(st.integers(0, 1)))]
    N = max(F.degree() + draw(st.integers(0, 2)), 1)
    if draw(st.booleans()):
        rep = fock_generators(FockConfig(F.n, N, Q))
    else:
        rep = boundary_block_generators(BoundaryConfig(F.n, N, 5, Q), 1.0)
    indices = (certify_compression(rep, F.degree())
               if draw(st.booleans()) else None)
    return parts, rep, indices


def complex_maps(rep):
    """rep with every weight cast to complex128, so that its blocks are
    evaluated in complex arithmetic."""
    return dataclasses.replace(
        rep, maps=[(t, w.astype(complex)) for t, w in rep.maps])


@settings(max_examples=100)
@given(case=real_stacks())
def test_real_stack_is_the_real_part_of_the_complex_one(case):
    """(a + 0i)(b + 0i) rounds to ab, so the float64 stack is bit for bit
    the real part of the stack evaluated in complex arithmetic."""
    parts, rep, indices = case
    got = rep_entries(parts, rep, Q, indices)
    want = reference_stack(parts, complex_maps(rep), Q, indices)
    assert got.values.dtype == np.float64
    assert want.values.dtype == np.complex128 and not want.values.imag.any()
    assert got.shape == want.shape
    assert np.array_equal(got.rows, want.rows)
    assert np.array_equal(got.cols, want.cols)
    assert got.values.tobytes() == want.values.real.copy().tobytes()


@settings(max_examples=60)
@given(case=real_stacks())
def test_real_kernel_matches_complex_kernel_and_lapack(case):
    parts, rep, indices = case
    A = rep_entries(parts, rep, Q, indices)
    value = operator_norm(A)
    as_complex = operator_norm(A._replace(values=A.values.astype(complex)))
    assert abs(value - as_complex) <= 4 * EPS * value
    dense = np.zeros(A.shape)
    dense[A.rows, A.cols] = A.values.sum(axis=0)
    assert value == pytest.approx(float(np.linalg.norm(dense, 2)), abs=TOL)


def test_complex_coefficient_or_omega_gives_complex128():
    real, phased = (parse_expression(text, 2)
                    for text in ("z1 + q*z2'*z1", "i*z1 + q*z2'*z1"))
    fock = fock_generators(FockConfig(2, 4, Q))
    assert rep_entries([real], fock, Q).values.dtype == np.float64
    assert rep_entries([phased], fock, Q).values.dtype == np.complex128
    assert rep_entries([real, phased], fock, Q).values.dtype == np.complex128
    cfg = BoundaryConfig(2, 4, 5, Q)
    for omega, dtype in ((1.0, np.float64), (-1.0, np.float64),
                         (1 + 0j, np.float64), (1j, np.complex128),
                         (np.exp(2j * np.pi / 5), np.complex128)):
        rep = boundary_block_generators(cfg, omega)
        assert [w.dtype for _, w in rep.maps] == [dtype, np.float64]
        assert [_adjoint(*m)[1].dtype for m in rep.maps] == [dtype, np.float64]
        assert rep_entries([real], rep, Q).values.dtype == dtype
        assert rep_entries([phased], rep, Q).values.dtype == np.complex128


# -- one pass over many blocks --------------------------------------------

def schedule_items(f, schedule):
    """The (block, phases) items both sides of ball_norm(f) hand the kernel."""
    seen = []
    kernel = norms._block_norms

    def recorded(items, tol):
        seen.extend(items)
        return kernel(items, tol)

    with mock.patch.object(norms, "_block_norms", recorded):
        ball_norm(f, Q, schedule)
    return seen


def roots_of_unity(M, D):
    return np.exp(2j * np.pi * (np.outer(np.arange(M), np.arange(D)) % M) / M)


@st.composite
def dense_items(draw):
    """A D x r x c stack, r or c possibly 0, of density 0 to 1 (so 1 x k
    and k x 1 components, and zero blocks), real or complex, with no
    phases or a table of M roots of unity."""
    D, r, c = (draw(st.integers(lo, 5)) for lo in (1, 0, 0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    A = rng.normal(size=(D, r, c)) * (
        rng.random((D, r, c)) < draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])))
    if draw(st.booleans()):
        A = A + 1j * rng.normal(size=A.shape) * (A != 0)
    M = draw(st.sampled_from([None, 1, 3, 8]))
    return entries_of(A), None if M is None else roots_of_unity(M, D)


@settings(max_examples=60, deadline=None)
@given(f=inputs(), steps=st.lists(st.sampled_from([1, 2]), min_size=2,
                                  max_size=2),
       M=st.sampled_from([1, 3, 4]), extras=st.lists(dense_items(),
                                                     max_size=5),
       limit=st.sampled_from([None, 3]), order=st.randoms())
def test_one_pass_equals_one_call_per_block(f, steps, M, extras, limit,
                                            order):
    """The items of a 3-point schedule (a grid order repeats where a step
    is 1, so two points share one table), with dense stacks mixed in and
    shuffled, give each block's own value, compared with ==; with limit,
    every component over 3 rows and columns goes to ARPACK."""
    F = as_matrix(f)
    N = F.degree() + 1
    grids = [M, M * steps[0], M * steps[0] * steps[1]]
    schedule = [(N + k, grid) for k, grid in enumerate(grids)]
    items = schedule_items(f, schedule) + extras
    order.shuffle(items)
    with mock.patch.object(norms, "_DENSE_LIMIT", limit or norms._DENSE_LIMIT):
        assert norms._block_norms(items, TOL) == [
            operator_norm(A, TOL, phases) for A, phases in items]


def test_one_labelling_per_schedule_side(monkeypatch):
    calls = []
    label = norms._components

    def counted(*args):
        calls.append(args[0])
        return label(*args)

    monkeypatch.setattr(norms, "_components", counted)
    ball_norm(parse_expression("z1 + z2*z1' + q*z2'*z2", 2), Q,
              [(4, 4), (6, 8), (8, 16)])
    assert len(calls) == 2


def live_dense_groups(A, phases):
    """The (phase table, rows, columns) of each live dense component of
    one block, labelled on its own by csgraph."""
    r, c = A.shape
    graph = sp.coo_matrix((np.ones(len(A.rows)), (A.rows, r + A.cols)),
                          shape=(r + c, r + c))
    count, labels = connected_components(graph, directed=False)
    n_rows = np.bincount(labels[:r], minlength=count)
    n_cols = np.bincount(labels[r:], minlength=count)
    return {(id(phases), a, b) for a, b in zip(n_rows, n_cols)
            if 0 < min(a, b) <= norms._DENSE_LIMIT}


STACK_CASES = [
    ("z1 + z2*z1' + q*z2'*z2", False, [(4, 4), (6, 8), (8, 16)]),
    ("z1*z2' + z2", True, [(4, 4), (6, 8), (8, 16)]),
    # a maxprinciple benchmark op (--trunc 20,40 --theta 256): 41 groups
    ("z1 + z2", True, [(20, 128), (40, 256)]),
]


@pytest.mark.parametrize("text, shared, schedule", STACK_CASES,
                         ids=[f"{text}-{shared}" for text, shared, _ in
                              STACK_CASES])
def test_one_stack_per_table_and_shape_on_each_schedule_side(
        monkeypatch, text, shared, schedule):
    """Each side's dense components, over all its points, make one
    _stack_top call per (phase table, shape).  Where points share a shape,
    a call per shape per point would make more."""
    sides, stacks = [], []
    kernel, top = norms._block_norms, norms._stack_top

    def recorded(items, tol):
        sides.append(list(items))
        return kernel(items, tol)

    def counted(sub, phases):
        stacks.append(sub.shape)
        return top(sub, phases)

    monkeypatch.setattr(norms, "_block_norms", recorded)
    monkeypatch.setattr(norms, "_stack_top", counted)
    ball_norm(parse_expression(text, 2), Q, schedule)
    assert len(sides) == 2
    per_side = sum(len(set().union(*(live_dense_groups(*item)
                                      for item in items)))
                   for items in sides)
    per_point = sum(len(live_dense_groups(*item))
                    for items in sides for item in items)
    assert len(stacks) == per_side
    assert (per_side < per_point) == shared


def test_no_dense_stack_is_alive_while_arpack_runs(monkeypatch):
    """The iterative path's peak memory rests on it: every stack, and
    every array it views, is released before the first svds call."""
    stacks, alive = [], []
    top, svds_top = norms._stack_top, norms._svds_top

    def kept(sub, phases):
        view = sub
        while isinstance(view, np.ndarray):
            stacks.append(weakref.ref(view))
            view = view.base
        return top(sub, phases)

    def checked(*args):
        alive.append(sum(ref() is not None for ref in stacks))
        return svds_top(*args)

    monkeypatch.setattr(norms, "_DENSE_LIMIT", 40)
    monkeypatch.setattr(norms, "_stack_top", kept)
    monkeypatch.setattr(norms, "_svds_top", checked)
    ball_norm(parse_expression(
        "z1'+z2'+z3'+1-z1*z1'-z2*z2'-z3*z3'", 3), Q, [(8, 1), (10, 1)])
    assert stacks and alive
    assert alive == [0] * len(alive)


def test_arpack_failure_at_a_later_point_carries_the_value_before(
        monkeypatch):
    """Fock certified rows 56, 120 and 220: only the third point's one
    component goes to ARPACK, which fails; last_value is the Fock value at
    the second point, bit for bit."""
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("No convergence", [], [])

    monkeypatch.setattr(norms, "_DENSE_LIMIT", 200)
    f = parse_expression("1+z1+z2+z3", 3)
    before = max(fock_certified_value(f, Q, N) for N in (6, 8))
    monkeypatch.setattr(scipy.sparse.linalg, "svds", no_convergence)
    with pytest.raises(NormConvergenceError) as err:
        ball_norm(f, Q, [(6, 1), (8, 1), (10, 1)])
    assert err.value.last_value == before

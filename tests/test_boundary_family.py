"""The boundary family as a trigonometric polynomial in omega.

A one-point boundary_norm schedule evaluates sum_d omega^d A_d on all M-th
roots of unity at once, or only at omega = 1 for an input that gauge finds
omega-invariant.  The
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
    NormConvergenceError,
    ball_norm,
    boundary_norm,
    fock_certified_value,
    gauge,
    make_schedule,
    max_principle_report,
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
from qball.sampling import random_poly

from oracles import (
    circle_grid_max,
    fraction_constant,
    gauged_block,
    reference_invariant,
    reference_schedules,
)

Q = 0.5
TOL = 1e-12
EPS = np.finfo(float).eps


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
        assert boundary_norm(f, Q, [(N, M)]).final == pytest.approx(
            per_omega_value(f, Q, N, M), abs=TOL)


@pytest.mark.parametrize("text, n", [
    ("[z1, z2]", 2),
    ("[z1', z2*z1; 1 + z1*z1, q*z2']", 2),
    ("[z1*z3', 0; z2, i*z1' + z3]", 3),
])
def test_boundary_matrix_value_matches_per_omega_oracle(text, n):
    F = parse_expression(text, n)
    assert boundary_norm(F, Q, [(6, 16)]).final == pytest.approx(
        per_omega_value(F, Q, 6, 16), abs=TOL)


@pytest.mark.parametrize("batch_bytes, dense_limit", [(1, 2048), (1 << 20, 4)])
def test_chunking_and_dense_limit_fallback(monkeypatch, batch_bytes,
                                           dense_limit):
    """One block per batch, and a component above the dense limit going
    through svds once per omega evaluated, give the batched value.  No
    input is omega-invariant.  The real one evaluates only the grid points
    t <= M // 2, since block(conj omega) = conj(block(omega)); the second
    is real after a gauge with rho(e_1) = -1, s = 8, and evaluates the
    nodes t = 4..12; the third has no gauge (two words of charge 0 whose
    phases differ by pi / 2) and evaluates all 16."""
    calls = []
    svds = scipy.sparse.linalg.svds

    def counted_svds(A, *args, **kwargs):
        calls.append(A.shape)
        return svds(A, *args, **kwargs)

    for text, blocks in (("z1 + z2*z1' + q*z2'*z2", 9),
                         ("i*z1 + z2*z1' + q*z2'*z2", 9),
                         ("i*z1 + z2*z1' + q*z2'*z2 + i*z1'*z1", 16)):
        f = parse_expression(text, 2)
        expected = boundary_norm(f, Q, [(6, 16)]).final
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_BATCH_BYTES", batch_bytes)
            patch.setattr(norms, "_DENSE_LIMIT", dense_limit)
            patch.setattr(scipy.sparse.linalg, "svds", counted_svds)
            calls.clear()
            assert boundary_norm(f, Q, [(6, 16)]).final == pytest.approx(
                expected, abs=TOL)
        # each block is one 5 x 5 component (certified levels 0..4)
        assert calls == ([] if dense_limit == 2048 else [(5, 5)] * blocks)


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
    decide = norms.gauge

    def counted_gauge(F, q_val, M0):
        invariance_tests.append(F)
        return decide(F, q_val, M0)

    # gauge runs once per schedule call, not once per point
    monkeypatch.setattr(norms, "gauge", counted_gauge)
    ball = ball_norm(f, Q, sched)
    assert len(invariance_tests) == 1
    bdry = boundary_norm(f, Q, sched)
    assert len(invariance_tests) == 2
    calls = []
    build = norms.boundary_block_generators

    def counted(cfg, omega):
        calls.append((cfg.N, cfg.M))
        return build(cfg, omega)

    fock_builds, evaluations = [], []
    build_fock, entries = norms.fock_generators, norms.rep_entries

    def counted_fock(cfg):
        fock_builds.append(cfg.N)
        return build_fock(cfg)

    def counted_entries(parts, rep, q_val, indices=None):
        evaluations.append(rep.n)
        return entries(parts, rep, q_val, indices)

    monkeypatch.setattr(norms, "boundary_block_generators", counted)
    monkeypatch.setattr(norms, "fock_generators", counted_fock)
    monkeypatch.setattr(norms, "rep_entries", counted_entries)
    report = max_principle_report(f, Q, sched)
    assert len(invariance_tests) == 3
    # one build and one evaluation per side per schedule, at the last point
    assert calls == sched[-1:]
    assert fock_builds == [sched[-1][0]]
    assert len(evaluations) == 2
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
        assert gauge(f, Q, M)[0]
    F = f if isinstance(f, MatPoly) else MatPoly([[f]])
    N = F.degree() + extra
    assert boundary_norm(f, Q, [(N, M)]).final == pytest.approx(
        per_omega_value(f, Q, N, M), abs=TOL)


@st.composite
def real_non_invariant(draw):
    """A polynomial or k x l matrix of polynomials with real coefficients,
    n <= 3, that is not omega-invariant as written: entry (0, 0) holds a
    word w and z1*w, whose charge vectors differ by e_1 (at q one of them
    may sum to 0 with a repeated word)."""
    n = draw(st.integers(1, 3))
    k, l = (1, 1) if draw(st.booleans()) else draw(
        st.sampled_from([(1, 2), (2, 1), (2, 2)]))
    letters = st.builds(Letter, st.integers(1, n), st.booleans())
    words = draw(st.lists(st.lists(letters, max_size=3).map(tuple),
                          min_size=1, max_size=6))
    cells = [(0, 0), (0, 0)] + [(draw(st.integers(0, k - 1)),
                                 draw(st.integers(0, l - 1)))
                                for _ in words[1:]]
    entries = [[NCPoly.zero(n) for _ in range(l)] for _ in range(k)]
    for word, (a, b) in zip([(Letter(1, False),) + words[0]] + words, cells):
        coeff = fraction_constant(n, (
            draw(st.integers(-1, 1)),
            Fraction(draw(st.integers(1, 3)) * draw(st.sampled_from([-1, 1])),
                     draw(st.integers(1, 3))), 0))
        entries[a][b] = entries[a][b] + NCPoly.from_word(n, word) * coeff
    return entries[0][0] if (k, l) == (1, 1) else MatPoly(entries)


@settings(max_examples=40)
@given(f=real_non_invariant(), extra=st.integers(1, 2),
       M=st.sampled_from([1, 2, 3, 5, 8, 15, 16]))
def test_real_non_invariant_half_grid_equals_all_roots(f, extra, M):
    """Real coefficients: block(conj omega) = conj(block(omega)) has the
    same singular values, so the grid points t <= M // 2 give the max over
    all M roots."""
    assert gauge(f, Q, M)[1:] == (None, 0)
    N = MatPoly.of(f).degree() + extra
    assert boundary_norm(f, Q, [(N, M)]).final == pytest.approx(
        per_omega_value(f, Q, N, M), rel=1e-14, abs=0)


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
    assert gauge(parse_expression(text, n), Q, 1)[0] is invariant


def test_one_echelon_per_schedule(monkeypatch):
    """gauge reads invariance, the angles and the axis off one echelon
    form, so each schedule call reduces its rows once."""
    calls = []
    echelon = norms._echelon

    def counted(rows):
        calls.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(norms, "_echelon", counted)
    f = parse_expression("(1-i)*z2 + 1/2*z1*z2 + i*z2*z2", 2)
    sched = make_schedule([4, 6], 16)
    ball_norm(f, Q, sched)
    assert len(calls) == 1
    max_principle_report(f, Q, sched)
    assert len(calls) == 2


@pytest.mark.parametrize("text, n", [
    ("(2*q-1)*z1*z2 + z2", 2),
    ("(q-1/2)*z1 + z1*z1'", 1),
])
def test_a_word_zero_at_q_leaves_an_invariant_input(text, n):
    """At q = 1/2 the word of z1-charge 1 is 0 and the words left are
    invariant: one block gives the whole circle, each circle_upper is its
    value, and the boundary value is the per-omega max over every node."""
    f = parse_expression(text, n)
    report = max_principle_report(f, Q, make_schedule([4, 8], 16))
    for est in (report.ball, report.boundary):
        assert est.omega == {"invariant": True, "circle_upper": est.values()}
    for point in report.boundary.points:
        assert point["value"] == pytest.approx(
            per_omega_value(f, Q, point["N"], point["M"]), rel=1e-14)


def test_a_word_zero_at_q_leaves_the_charge_split():
    """(q-1/2)*z1^3 is 0 at q = 1/2, so the z1-charges, K and the circle
    bounds are those of z1 + z1', and so are the values."""
    sched = make_schedule([4, 8], 16)
    got = boundary_norm(parse_expression("(q-1/2)*z1^3 + z1 + z1'", 1), Q,
                        sched)
    want = boundary_norm(parse_expression("z1 + z1'", 1), Q, sched)
    assert not got.omega["invariant"]
    assert got.omega == want.omega
    assert got.values() == want.values()


@st.composite
def planted_zero_word(draw):
    """A gauge_inputs() draw with one more word in a drawn entry, of
    coefficient (2q - 1) (x + iy) q^k: 0 at q = 1/2 and nowhere else."""
    F = MatPoly.of(draw(gauge_inputs())[0])
    letters = st.builds(Letter, st.integers(1, F.n), st.booleans())
    word = draw(st.lists(letters, min_size=1, max_size=3).map(tuple))
    a = draw(st.integers(0, F.shape[0] - 1))
    b = draw(st.integers(0, F.shape[1] - 1))
    x, y = draw(st.sampled_from([(1, 0), (-2, 0), (0, 1), (1, -1)]))
    k = draw(st.integers(-1, 1))
    entries = [list(row) for row in F.entries]
    entries[a][b] = entries[a][b] + NCPoly.from_word(F.n, word) * (
        fraction_constant(F.n, (k + 1, 2 * x, 2 * y), (k, -x, -y)))
    return MatPoly(entries)


@settings(max_examples=100, deadline=None)
@given(f=st.one_of(gauge_inputs().map(lambda case: case[0]),
                   real_non_invariant(), planted_zero_word()),
       M0=st.sampled_from([1, 8, 64]))
def test_invariance_equals_the_fraction_oracle(f, M0):
    """gauge's invariance is the rank test of reference_invariant over the
    words nonzero at q, whatever the grid order."""
    assert gauge(f, Q, M0)[0] is reference_invariant(MatPoly.of(f), Q)


def test_circle_upper_bounds_a_4096_point_grid():
    rng = random.Random(47)
    checked = 0
    while checked < 8:
        n = rng.randint(1, 3)
        f = random_poly(rng, n, max_degree=3)
        if gauge(f, Q, 1)[0]:
            continue
        sched = make_schedule([f.degree() + 1, f.degree() + 3], 32)
        bdry, ball = boundary_norm(f, Q, sched), ball_norm(f, Q, sched)
        assert not bdry.omega["invariant"] and not ball.omega["invariant"]
        for (N, M), b_up, f_up in zip(sched, bdry.omega["circle_upper"],
                                      ball.omega["circle_upper"]):
            fine = boundary_norm(f, Q, [(N, 4096)]).final
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


# -- nested schedules: one build per side, each point only what is new ---

@st.composite
def nested_schedules(draw, degree):
    """2 or 3 points (N, M), N from degree + 1 and non-decreasing, each M
    the one before times 1, 2 or 4, as make_schedule's grids are."""
    N = degree + draw(st.integers(1, 2))
    M = draw(st.sampled_from([1, 2, 3, 4, 8]))
    points = [(N, M)]
    for _ in range(draw(st.integers(1, 2))):
        N += draw(st.integers(0, 2))
        M *= draw(st.sampled_from([1, 2, 4]))
        points.append((N, M))
    return points


@settings(max_examples=60)
@given(f=st.one_of(gauge_inputs().map(lambda case: case[0]),
                   real_non_invariant()),
       data=st.data())
def test_nested_schedules_equal_the_per_point_oracle(f, data):
    """Scalars and matrices, invariant or not, real or complex: every value
    of the one-pass schedules is the per-point loop's to 4 eps relative,
    and no value is below the one before it."""
    sched = data.draw(nested_schedules(MatPoly.of(f).degree()))
    report = max_principle_report(f, Q, sched)
    want = reference_schedules(f, Q, sched, norms.DEFAULT_TOL, ball=True)
    for got, expected in zip((report.ball, report.boundary), want):
        assert got.is_monotone()
        assert got.omega["invariant"] == expected.omega["invariant"]
        for a, b in zip(got.values(), expected.values()):
            assert abs(a - b) <= 4 * EPS * max(abs(a), abs(b))


@pytest.mark.parametrize("sched", [
    [(6, 8), (4, 16)],              # N decreases
    [(4, 8), (6, 12)],              # 8 does not divide 12
], ids=["N-decreases", "M-does-not-divide"])
def test_schedules_that_do_not_nest_are_refused(sched):
    f = parse_expression("z1 + z2'*z1", 2)
    for run in (ball_norm, boundary_norm, max_principle_report):
        with pytest.raises(ValueError, match="not nested"):
            run(f, Q, sched)


def test_grid_ratio_three_nests():
    """M = 3 -> 9: point 0's roots of unity are every third root of point
    1's, and each point's value is its own grid max."""
    f = parse_expression("(1-i)*z2 + 1/2*z1*z2 + i*z2*z2", 2)
    assert not gauge(f, Q, 3)[0]
    est = boundary_norm(f, Q, [(4, 3), (6, 9)])
    assert est.is_monotone()
    for point in est.points:
        assert point["value"] == pytest.approx(
            per_omega_value(f, Q, point["N"], point["M"]), rel=1e-13)


def test_convergence_error_carries_the_value_before_it(monkeypatch):
    """z1 + z2 (n = 2): the boundary block is one component, 3 x 3 at N = 3
    (dense) and 5 x 5 at N = 5 (ARPACK, which fails); last_value is the
    value at N = 3, not the 0 of the failing point's other components."""
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("No convergence", [], [])

    f = parse_expression("z1 + z2", 2)
    first = boundary_norm(f, Q, [(3, 1)]).final
    monkeypatch.setattr(norms, "_DENSE_LIMIT", 3)
    monkeypatch.setattr(scipy.sparse.linalg, "svds", no_convergence)
    with pytest.raises(NormConvergenceError) as err:
        boundary_norm(f, Q, [(3, 1), (5, 1)])
    assert first > 0 and err.value.last_value == first


# -- real gauges: a diagonal unitary that makes every coefficient real ---

def dense_fock_value(F, q_val, N):
    """The certified Fock block of F at N, complex, by a dense SVD."""
    rep = fock_generators(FockConfig(F.n, N, q_val))
    indices = certify_compression(rep, F.degree())
    return float(np.linalg.norm(np.block(
        [[rep_apply(p, rep, q_val, indices) for p in row]
         for row in F.entries]), 2))


def test_gauge_with_an_axis():
    """beta . v(w) = -arg c_w (mod pi) for (1-i)*z2, 1/2*z1*z2, i*z2*z2:
    beta_2 = pi/4 (mod pi), beta_1 = -pi/4, so rho(e_1) = -i = omega_s
    with s = 3M/4, and the gauged coefficients are real."""
    F = parse_expression("(1-i)*z2 + 1/2*z1*z2 + i*z2*z2", 2)
    assert gauge(F, 0.75, 2)[2] is None
    for M0 in (4, 8, 64, 128):
        invariant, beta, axis = gauge(F, 0.75, M0)
        assert not invariant
        assert axis == 3 * M0 // 4
        assert cmath.exp(2j * beta[0]) == pytest.approx(-1j, abs=1e-15)
    # beta = (beta_1, beta_2, row, column, constant); a scalar's one
    # entry (0, 0) has the row and column phases e^{i(beta_3 - beta_4)}
    for c, word in ((1 - 1j, "z2"), (0.5, "z1*z2"), (1j, "z2*z2")):
        v = charges(next(iter(parse_expression(word, 2).terms)), 2) + [
            1, -1, 1]
        assert abs((c * cmath.exp(1j * np.dot(beta, v))).imag) < 1e-15


def test_an_axis_for_two_gauges():
    """i*z1*z1 + 1: 2 beta_1 = -pi/2 (mod pi), so beta_1 = pi/4 or 3pi/4
    and rho = i or -i, a 4th root of unity: no axis at M0 = 2, s0 = M0/4
    from 4 on, and the nodes about it give the full-grid max."""
    f = parse_expression("i*z1*z1 + 1", 1)
    assert [gauge(f, Q, M0)[2] for M0 in (1, 2, 4, 8, 32)] == [
        None, None, 1, 2, 8]
    for M in (4, 8, 32):
        assert boundary_norm(f, Q, [(3, M)]).final == pytest.approx(
            per_omega_value(f, Q, 3, M), rel=1e-14)


def test_the_axis_pairs_the_nodes():
    """At q = 3/4, N = 10, M = 64, rho(e_1) = -i and s = 48: the block
    norm at node t is that at s - t, to rounding, but not that at -t.  So
    the nodes 24..56 about the axis give the full-grid max, which the
    half grid about 0 misses."""
    f = parse_expression("(1-i)*z2 + 1/2*z1*z2 + i*z2*z2", 2)
    cfg = BoundaryConfig(n=2, N=10, M=64, q_val=0.75)
    sigma = []
    for t in range(64):
        rep = boundary_block_generators(cfg, cmath.exp(2j * cmath.pi * t / 64))
        sigma.append(np.linalg.norm(rep_apply(
            f, rep, 0.75, certify_compression(rep, 2)), 2))
    sigma = np.array(sigma)
    t = np.arange(64)
    assert np.abs(sigma - sigma[(48 - t) % 64]).max() <= 1e-14
    assert np.abs(sigma - sigma[-t % 64]).max() > 0.1
    assert sigma[:33].max() < sigma.max() - 0.02
    assert boundary_norm(f, 0.75, [(10, 64)]).final == pytest.approx(
        sigma.max(), rel=1e-14)


@pytest.mark.parametrize("text, n", [
    ("(-1)*z1 + i*z1'*z1 + 1*z1*z1'", 1),   # two charge-0 phases, pi/2 apart
    ("1/2*z3 + i*z3'*z3' + 2*z2*z2'", 3),   # 2v(z3) + v(z3'z3') - 3v(z2z2') = 0
    ("(2*q-1)*i*z1'*z1 + z1 + z1*z1'", 1),  # at q = 2/3: as the first
])
def test_no_gauge(text, n):
    assert gauge(parse_expression(text, n), 2 / 3, 64)[1:] == (None, None)


def test_gauge_without_an_axis():
    """(1+2i)*z1 + z1*z1: beta_1 = arg(1+2i) (mod pi), so rho(e_1) =
    (1+2i)^2/5 = (-3+4i)/5, no root of unity: the Fock side gauges, the
    boundary evaluates every node."""
    invariant, beta, axis = gauge(parse_expression("(1+2*i)*z1 + z1*z1", 1),
                                  0.5, 64)
    assert not invariant and axis is None
    assert cmath.exp(2j * beta[0]) == pytest.approx((-3 + 4j) / 5, abs=1e-15)


@pytest.mark.parametrize("text, n", [
    ("(2*q-1)*i*z1 + z1*z2", 2),
    ("(2*q-1)*i*z1'*z1 + z1 + z1*z1'", 1),
])
def test_a_coefficient_zero_at_q_is_skipped(text, n):
    """At q = 1/2 the complex word is 0, the rest real: beta = 0, axis 0."""
    assert gauge(parse_expression(text, n), 0.5, 64)[1:] == (None, 0)


def test_real_inputs_keep_the_half_grid(monkeypatch):
    """All-real coefficients: beta = 0 and axis 0, so the Fock stack stays
    as rep_entries gives it and the boundary evaluates t = 0..M // 2.  A
    gauged input evaluates the nodes 0 <= 2t - s <= M about its axis."""
    grids = []
    kernel = norms._block_norms

    def recorded(items, tol):
        grids.extend(phases for _, phases in items)
        return kernel(items, tol)

    def nodes(text, q_val, d):
        """The nodes t of each point of a (4, 16), (6, 32) schedule, read
        from the phases' column of z1-charge 1, d = that column."""
        grids.clear()
        boundary_norm(parse_expression(text, 2), q_val, [(4, 16), (6, 32)])
        return [(np.round(np.angle(p[:, d]) * M / (2 * np.pi)) % M).tolist()
                for p, M in zip(grids, (16, 32))]

    monkeypatch.setattr(norms, "_block_norms", recorded)
    real = "z1 + z2*z1' + q*z2'*z2"             # charges -1, 0, 1
    assert gauge(parse_expression(real, 2), Q, 16) == (False, None, 0)
    assert nodes(real, Q, 2) == [list(range(9)), list(range(17))]
    # rho(e_1) = -i: s = 12 at M = 16, s = 24 at M = 32; charges 0, 1
    gauged = "(1-i)*z2 + 1/2*z1*z2 + i*z2*z2"
    assert nodes(gauged, 0.75, 1) == [list(range(6, 15)),
                                      list(range(12, 29))]


COEFFS = ["1", "(-1)", "i", "(-i)", "(1+i)", "(1-i)", "1/2", "2"]


@st.composite
def small_phase_inputs(draw):
    """A scalar or 2 x 2 matrix, n <= 3, of 1 to 3 words per entry of
    <= 3 letters, each coefficient from {+-1, +-i, 1+-i, 1/2, 2} q^k."""
    n = draw(st.integers(1, 3))
    size = draw(st.sampled_from([1, 2]))
    letter = st.tuples(st.integers(1, n), st.booleans()).map(
        lambda x: f"z{x[0]}" + ("'" if x[1] else ""))

    def entry():
        terms = draw(st.lists(st.tuples(
            st.sampled_from(COEFFS), st.integers(-1, 2),
            st.lists(letter, max_size=3)), min_size=1, max_size=3))
        return " + ".join(f"{c}*q^{e}*" + ("*".join(w) or "1")
                          for c, e, w in terms)

    if size == 1:
        return parse_expression(entry(), n)
    return parse_expression(
        "[" + "; ".join(", ".join(entry() for _ in range(2))
                        for _ in range(2)) + "]", n)


@settings(max_examples=100, deadline=None)
@given(f=small_phase_inputs(), extra=st.integers(1, 2),
       M=st.sampled_from([1, 2, 4, 8, 12, 16]))
def test_gauged_values_equal_the_complex_full_grid(f, extra, M):
    """Whenever a gauge exists, the gauged Fock value and the boundary
    value over the nodes about the axis equal the ungauged complex values
    (dense SVD, every node) to 1e-13 relative, and the imaginary parts the
    gauge drops are below 1e-14 of the largest entry."""
    F = MatPoly.of(f)
    invariant, beta, axis = gauge(F, Q, M)
    if beta is None and axis is None:
        return                      # no gauge: the complex path
    N = F.degree() + extra
    want = dense_fock_value(F, Q, N)
    assert fock_certified_value(F, Q, N) == pytest.approx(want, rel=1e-13,
                                                          abs=0)
    if beta is not None:
        rep = fock_generators(FockConfig(F.n, N, Q))
        block = gauged_block(F, rep, Q, certify_compression(rep, F.degree()),
                             beta)
        assert np.abs(block.imag).max() <= 1e-14 * np.abs(block).max()
    if not invariant:
        assert boundary_norm(F, Q, [(N, M)]).final == pytest.approx(
            per_omega_value(F, Q, N, M), rel=1e-13, abs=1e-300)

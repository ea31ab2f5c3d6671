import random

import numpy as np
import pytest
import scipy.sparse as sp

from qball.algebra import NCPoly
from qball.norms import (
    MatPoly,
    ball_norm,
    boundary_norm,
    make_schedule,
    max_principle_report,
    operator_norm,
    pbw_gram_min_singular,
)
from qball.parsing import parse_expression
from qball.representations import TruncationError
from qball.sampling import random_poly

from oracles import circle_grid_max, cycle_matrix

Q = 0.5


# -- operator_norm ----------------------------------------------------

def test_operator_norm_identity():
    assert operator_norm(np.eye(17)) == pytest.approx(1.0)


def test_operator_norm_cycle():
    assert operator_norm(cycle_matrix(32)) == pytest.approx(1.0)


def test_operator_norm_q_diagonal():
    d = sp.diags([Q ** (2 * m) for m in range(20)])
    assert operator_norm(d) == pytest.approx(1.0)


def test_operator_norm_zero_and_validation():
    assert operator_norm(np.zeros((4, 4))) == 0.0
    with pytest.raises(ValueError):
        operator_norm(np.eye(2), tol=0.0)


def test_operator_norm_matches_lapack_on_random():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2))


# -- schedules --------------------------------------------------------

def test_make_schedule_doubles_theta():
    assert make_schedule([10, 20, 40], 4096) == [
        (10, 1024), (20, 2048), (40, 4096)]


def test_make_schedule_rejects_nonincreasing():
    with pytest.raises(ValueError):
        make_schedule([10, 10], 64)


def test_empty_schedule_raises():
    f = parse_expression("1+z1", 1)
    for norm in (ball_norm, boundary_norm, max_principle_report):
        with pytest.raises(ValueError):
            norm(f, Q, [])


# -- ball norms -------------------------------------------------------

def test_ball_norm_generator_n1():
    f = parse_expression("z1", 1)
    est = ball_norm(f, Q, [(10, 64)])
    assert est.final == pytest.approx(1.0, abs=1e-9)


def test_ball_norm_fock_side_only():
    # without the boundary family the z1 bound is the top Fock weight
    from qball.norms import fock_certified_value
    f = parse_expression("z1", 1)
    # compression to levels <= N-1 sees weights up to sqrt(1-q^(2(N-1)))
    val = fock_certified_value(f, Q, 10)
    assert val == pytest.approx(np.sqrt(1 - Q ** (2 * 9)))
    # the family bound (Fock + boundary) at N=10 clears 0.999999
    assert ball_norm(f, Q, [(10, 8)]).final > 0.999999


def test_ball_norm_of_sphere_relation():
    for n in (1, 2):
        terms = " - ".join(f"z{j}*z{j}'" for j in range(1, n + 1))
        f = parse_expression(f"1 - {terms}", n)
        for N in (4, 8):
            est = ball_norm(f, Q, [(N, 8)])
            assert est.final == pytest.approx(1.0, abs=1e-9)


def test_ball_norm_zero():
    assert ball_norm(NCPoly.zero(2), Q, [(4, 4)]).final == 0.0


def test_ball_norm_truncation_error():
    f = parse_expression("z1*z1*z1", 1)
    with pytest.raises(TruncationError):
        ball_norm(f, Q, [(3, 4)])


# -- boundary norms ---------------------------------------------------

def test_boundary_norm_one_plus_z1():
    f = parse_expression("1+z1", 1)
    est = boundary_norm(f, Q, [(4, 4096)])
    assert est.final == pytest.approx(2.0, abs=1e-6)


def test_boundary_norm_kills_sphere_relation():
    for n in (1, 2, 3):
        terms = " - ".join(f"z{j}*z{j}'" for j in range(1, n + 1))
        f = parse_expression(f"1 - {terms}", n)
        assert boundary_norm(f, Q, [(6, 8)]).final < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_norm_generator_is_one(n):
    f = parse_expression("z1", n)
    assert boundary_norm(f, Q, [(6, 8)]).final == pytest.approx(1.0, abs=1e-9)


def test_circle_oracle_matches_boundary_n1():
    rng = random.Random(31)
    for _ in range(10):
        f = random_poly(rng, 1, max_degree=3)
        est = boundary_norm(f, Q, [(8, 512)])
        assert est.final == pytest.approx(
            circle_grid_max(f, Q, 512), abs=1e-10)


# -- matrix levels ----------------------------------------------------

def test_level_one_consistency():
    f = parse_expression("q*z1 + z2'*z2", 2)
    F = MatPoly([[f]])
    sched = [(8, 8)]
    assert ball_norm(F, Q, sched).final == pytest.approx(
        ball_norm(f, Q, sched).final, abs=1e-12)
    assert boundary_norm(F, Q, sched).final == pytest.approx(
        boundary_norm(f, Q, sched).final, abs=1e-12)


def test_row_matrix_norm_is_one():
    F = parse_expression("[z1, z2]", 2)
    sched = [(8, 16)]
    for norm in (ball_norm, boundary_norm):
        assert norm(F, Q, sched).final == pytest.approx(
            1.0, abs=1e-6)


def test_diagonal_matrix_equals_entry_norm():
    z1 = parse_expression("z1", 1)
    F = MatPoly([[z1, NCPoly.zero(1)], [NCPoly.zero(1), z1]])
    sched = [(6, 8)]
    assert ball_norm(F, Q, sched).final == pytest.approx(
        ball_norm(z1, Q, sched).final, abs=1e-12)


# -- reports and invariants -------------------------------------------

def test_gap_report_holomorphic_n1():
    f = parse_expression("1+z1", 1)
    report = max_principle_report(f, Q, make_schedule([10, 20, 40], 4096))
    assert report.holomorphic
    assert report.gap < 1e-2
    gaps = report.gaps()
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_gap_report_sphere_relation_exhibits_boundary_ideal():
    f = parse_expression("1 - z1*z1'", 1)
    report = max_principle_report(f, Q, [(8, 64)])
    assert not report.holomorphic
    assert report.gap == pytest.approx(1.0, abs=1e-9)


def test_gap_report_generator():
    f = parse_expression("z1", 1)
    report = max_principle_report(f, Q, [(10, 64)])
    assert report.gap < 1e-9


def test_monotone_estimates():
    rng = random.Random(32)
    for _ in range(10):
        n = rng.randint(1, 2)
        f = random_poly(rng, n, max_degree=2)
        sched = make_schedule([4, 6, 8], 32)
        assert ball_norm(f, Q, sched).is_monotone()
        assert boundary_norm(f, Q, sched).is_monotone()


def test_domination_ball_geq_boundary():
    rng = random.Random(33)
    for _ in range(10):
        n = rng.randint(1, 2)
        f = random_poly(rng, n, max_degree=2)
        sched = [(6, 16)]
        assert (ball_norm(f, Q, sched).final
                >= boundary_norm(f, Q, sched).final - 1e-9)


def test_scale_equivariance():
    rng = random.Random(34)
    for _ in range(5):
        f = random_poly(rng, 2, max_degree=2)
        c = NCPoly.constant(2, {0: -3}, {0: 2})
        sched = [(6, 8)]
        scaled = ball_norm(c * f, Q, sched).final
        base = ball_norm(f, Q, sched).final
        assert scaled == pytest.approx(abs(complex(-3, 2)) * base,
                                       rel=1e-10, abs=1e-12)


def test_stabilization_flag():
    f = parse_expression("z1", 1)
    est = ball_norm(f, Q, make_schedule([10, 12, 14], 16))
    assert est.stabilized
    assert est.final == est.points[-1]["value"]


# -- PBW probe --------------------------------------------------------

def test_pbw_gram_min_singular():
    assert pbw_gram_min_singular(2, 3, 8, Q) > 1e-8


def test_make_schedule_nests_grids_for_any_theta():
    # Earlier grids halve theta only while the result still divides it.
    assert make_schedule([2, 4, 6], 10) == [(2, 5), (4, 5), (6, 10)]
    assert make_schedule([1, 2, 3, 4], 12) == [(1, 3), (2, 3), (3, 6), (4, 12)]
    assert make_schedule([1, 2, 3], 2) == [(1, 1), (2, 1), (3, 2)]
    for theta in (1, 3, 6, 10, 12, 40, 64, 96, 100):
        grids = [M for _, M in make_schedule([1, 2, 3, 4], theta)]
        assert grids[-1] == theta
        assert all(b % a == 0 for a, b in zip(grids, grids[1:]))


def test_make_schedule_rejects_theta_below_one():
    for theta in (0, -1, -64):
        with pytest.raises(ValueError):
            make_schedule([4, 8], theta)

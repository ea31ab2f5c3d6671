import random

import pytest

from qball.algebra import AlgebraContext, ContextError, Letter, MatPoly, NCPoly
from qball.sampling import random_poly

ONE = ({0: 1}, {})


def q(n, k=1):
    return NCPoly.constant(n, {k: 1})


def z(n, j):
    return NCPoly.generator(n, j)


def zs(n, j):
    return NCPoly.generator(n, j, starred=True)


def test_free_product_of_generators():
    p = z(2, 1) * zs(2, 1)
    assert p.terms == {(Letter(1, False), Letter(1, True)): ONE}


def test_unit_law():
    p = z(2, 1) + z(2, 2)
    assert p * NCPoly.one(2) == p
    assert NCPoly.one(2) * p == p


def test_scalar_bilinearity():
    a = q(2) * z(2, 1)
    b = z(2, 2) * q(2)
    prod = a * b
    expected = q(2, 2) * z(2, 1) * z(2, 2)
    assert prod == expected


def test_adjoint_reverses_and_stars():
    p = z(2, 1) * z(2, 2)
    assert p.adjoint().terms == {(Letter(2, True), Letter(1, True)): ONE}


def test_adjoint_antilinear():
    i = NCPoly.constant(1, {}, {0: 1})
    p = i * z(1, 1)
    assert p.adjoint() == -i * zs(1, 1)


def test_adjoint_involution_random():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 3)
        p = random_poly(rng, n)
        assert p.adjoint().adjoint() == p


def test_adjoint_antihomomorphism_random():
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randint(1, 3)
        a, b = random_poly(rng, n), random_poly(rng, n)
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        a, b, c = (random_poly(rng, n, max_degree=3) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a


def test_context_mismatch():
    with pytest.raises(ContextError):
        z(1, 1) * z(2, 1)
    with pytest.raises(ContextError, match="unknown mode 'torus'"):
        AlgebraContext(2, "torus")
    with pytest.raises(ContextError, match="need n >= 1, got 0"):
        NCPoly(0)
    assert (NCPoly.one(1) == 1) is False
    for rows in ([], [[z(1, 1)], [z(1, 1), z(1, 1)]]):
        with pytest.raises(ValueError, match="nonempty and equally long"):
            MatPoly(rows)
    with pytest.raises(ValueError, match="entries must share the same n"):
        MatPoly([[z(1, 1), z(2, 1)]])


def test_word_validation():
    with pytest.raises(ContextError):
        NCPoly(1, {(Letter(2, False),): ONE})


def test_degree_and_zero():
    assert NCPoly.zero(2).degree() == 0
    assert NCPoly.one(2).degree() == 0
    assert (z(2, 1) * z(2, 2)).degree() == 2
    assert (z(2, 1) - z(2, 1)).is_zero()

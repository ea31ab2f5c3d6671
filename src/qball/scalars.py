"""Exact coefficient arithmetic: Laurent polynomials in the deformation
parameter q over the Gaussian rationals.

A scalar is a finite map {exponent -> Gaussian rational}; zero coefficients
are never stored, so equality is structural equality of the sparse form.
The deformation parameter stays symbolic here and is only specialized to a
float in the numerics layer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Tuple, Union

RationalLike = Union[int, Fraction]


class DomainError(ValueError):
    """Raised when a numeric evaluation point is outside (0, 1)."""


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        d = self.re * self.re + self.im * self.im
        if d == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / d, -self.im / d)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_GR_ZERO = GaussianRational(0)
_GR_ONE = GaussianRational(1)


class Scalar:
    """Laurent polynomial in q with GaussianRational coefficients.

    Instances are immutable; all arithmetic is exact.  The internal map
    never stores a zero coefficient.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Dict[int, GaussianRational] | None = None):
        clean = {}
        if coeffs:
            for k, c in coeffs.items():
                if not c.is_zero():
                    clean[int(k)] = c
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar({0: _GR_ONE})

    @staticmethod
    def i() -> "Scalar":
        return Scalar({0: GaussianRational(0, 1)})

    @staticmethod
    def q(exponent: int = 1) -> "Scalar":
        return Scalar({exponent: _GR_ONE})

    @staticmethod
    def from_rational(value: RationalLike) -> "Scalar":
        return Scalar({0: GaussianRational(value)})

    @staticmethod
    def from_gaussian(re: RationalLike, im: RationalLike = 0) -> "Scalar":
        return Scalar({0: GaussianRational(re, im)})

    @staticmethod
    def from_integers(re: Dict[int, int], im: Dict[int, int] | None = None,
                      den: int = 1) -> "Scalar":
        """(re + i*im) / den for integer Laurent maps {exponent: int}."""
        im = im or {}
        return Scalar({k: GaussianRational(Fraction(re.get(k, 0), den),
                                           Fraction(im.get(k, 0), den))
                       for k in re.keys() | im.keys()})

    @staticmethod
    def one_minus_q2() -> "Scalar":
        """The recurring factor 1 - q^2."""
        return Scalar({0: _GR_ONE, 2: -_GR_ONE})

    # -- inspection ---------------------------------------------------

    def items(self) -> Iterable[Tuple[int, GaussianRational]]:
        return self._coeffs.items()

    def is_zero(self) -> bool:
        return not self._coeffs

    def monomial(self) -> Tuple[int, GaussianRational] | None:
        """The (exponent, coefficient) pair if this is a single term."""
        if len(self._coeffs) == 1:
            return next(iter(self._coeffs.items()))
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            s = out.get(k, _GR_ZERO) + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return Scalar(out)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar({k: -c for k, c in self._coeffs.items()})

    def __mul__(self, other: "Scalar") -> "Scalar":
        out: Dict[int, GaussianRational] = {}
        for k1, c1 in self._coeffs.items():
            for k2, c2 in other._coeffs.items():
                k = k1 + k2
                s = out.get(k, _GR_ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return Scalar(out)

    def conjugate(self) -> "Scalar":
        """Complex conjugation; q is real, so exponents are fixed."""
        return Scalar({k: c.conjugate() for k, c in self._coeffs.items()})

    def inverse(self) -> "Scalar":
        """Inverse of a single-term scalar c*q^k; otherwise raises."""
        mono = self.monomial()
        if mono is None:
            raise ZeroDivisionError(
                "only single-term scalars c*q^k are invertible")
        k, c = mono
        return Scalar({-k: c.inverse()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def evaluate(self, q_val: float) -> complex:
        """Evaluate at a numeric q in (0, 1), summing by ascending exponent."""
        if not 0 < q_val < 1:
            raise DomainError(f"q must lie in (0, 1), got {q_val}")
        total = 0j
        for k in sorted(self._coeffs):
            total += complex(self._coeffs[k]) * q_val ** k
        return total

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Scalar(0)"
        parts = [f"({c.re}+{c.im}i)*q^{k}" for k, c in sorted(self._coeffs.items())]
        return "Scalar(" + " + ".join(parts) + ")"


def scalar_eval(s: Scalar, q_val: float) -> complex:
    """Functional form of Scalar.evaluate."""
    return s.evaluate(q_val)

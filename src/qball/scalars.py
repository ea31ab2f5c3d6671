"""Numeric evaluation of exact coefficients.

A coefficient is a Laurent polynomial in the deformation parameter q over
the Gaussian rationals, held as Gaussian-integer numerators over a
denominator: integer Laurent maps (re, im), {exponent: nonzero int}, and an
int den > 0 (see algebra.NCPoly).  q stays symbolic in the exact layers and
is specialized to a float only here, for the numerics layer.
"""

from __future__ import annotations

from typing import Dict, Tuple


class DomainError(ValueError):
    """Raised when a numeric evaluation point is outside (0, 1)."""


def coefficient_numerators(coeff: Tuple[Dict[int, int], Dict[int, int]],
                           den: int, q_val: float) -> Tuple[int, int, int]:
    """(re, im, common): the exact value of (re + i*im)/den at the exact
    ratio a/b of the float q in (0, 1) is (re + i*im)/common, with
    common = den * a^-lo * b^hi > 0 (lo <= 0 <= hi bound the exponents)."""
    if not 0 < q_val < 1:
        raise DomainError(f"q must lie in (0, 1), got {q_val}")
    a, b = q_val.as_integer_ratio()
    exponents = coeff[0].keys() | coeff[1].keys() | {0}
    lo, hi = min(exponents), max(exponents)
    re, im = (sum(c * a ** (k - lo) * b ** (hi - k) for k, c in part.items())
              for part in coeff)
    return re, im, den * a ** -lo * b ** hi


def coefficient_value(coeff: Tuple[Dict[int, int], Dict[int, int]], den: int,
                      q_val: float) -> complex:
    """(re + i*im)/den at a numeric q in (0, 1), correctly rounded: each
    part of coefficient_numerators is one integer over the common
    denominator, rounded once by a correctly rounded int/int division.  A
    part too large for a float is a DomainError, and so is a nonzero value
    that rounds to 0; a sum of terms that cancel exactly stays 0."""
    re, im, common = coefficient_numerators(coeff, den, q_val)
    try:
        value = complex(re / common, im / common)
    except OverflowError:
        raise DomainError(
            f"coefficient not a finite float at q = {q_val}") from None
    if value == 0 and (re or im):
        raise DomainError(f"coefficient underflows to 0 at q = {q_val}")
    return value

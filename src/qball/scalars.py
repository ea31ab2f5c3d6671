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


def coefficient_value(coeff: Tuple[Dict[int, int], Dict[int, int]], den: int,
                      q_val: float) -> complex:
    """(re + i*im)/den at a numeric q in (0, 1), correctly rounded: with q
    the exact ratio a/b of its float, each part is one integer over the
    common denominator den * a^-lo * b^hi (lo <= 0 <= hi bound the
    exponents), rounded once by a correctly rounded int/int division.  A
    part too large for a float is a DomainError, and so is a nonzero value
    that rounds to 0; a sum of terms that cancel exactly stays 0."""
    if not 0 < q_val < 1:
        raise DomainError(f"q must lie in (0, 1), got {q_val}")
    a, b = q_val.as_integer_ratio()
    exponents = coeff[0].keys() | coeff[1].keys() | {0}
    lo, hi = min(exponents), max(exponents)
    common = den * a ** -lo * b ** hi
    exact = [sum(c * a ** (k - lo) * b ** (hi - k) for k, c in part.items())
             for part in coeff]
    try:
        value = complex(exact[0] / common, exact[1] / common)
    except OverflowError:
        raise DomainError(
            f"coefficient not a finite float at q = {q_val}") from None
    if value == 0 and any(exact):
        raise DomainError(f"coefficient underflows to 0 at q = {q_val}")
    return value

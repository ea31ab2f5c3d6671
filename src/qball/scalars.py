"""Numeric evaluation of exact coefficients.

A coefficient is a Laurent polynomial in the deformation parameter q over
the Gaussian rationals, held as Gaussian-integer numerators over a
denominator: integer Laurent maps (re, im), {exponent: nonzero int}, and an
int den > 0 (see algebra.NCPoly).  q stays symbolic in the exact layers and
is specialized to a float only here, for the numerics layer.
"""

from __future__ import annotations

import cmath
from typing import Dict, Tuple


class DomainError(ValueError):
    """Raised when a numeric evaluation point is outside (0, 1)."""


def coefficient_value(coeff: Tuple[Dict[int, int], Dict[int, int]], den: int,
                      q_val: float) -> complex:
    """(re + i*im)/den at a numeric q in (0, 1), summed by ascending
    exponent; each part is one correctly rounded int/int division.  A value
    that is not a finite complex float is a DomainError, and so is a 0 that
    a term underflowing to 0 may have caused (every term is nonzero); a sum
    of terms that cancel exactly stays 0."""
    if not 0 < q_val < 1:
        raise DomainError(f"q must lie in (0, 1), got {q_val}")
    re, im = coeff
    total, underflow = 0j, False
    try:
        for k in sorted(re.keys() | im.keys()):
            term = complex(re.get(k, 0) / den, im.get(k, 0) / den) * q_val ** k
            total, underflow = total + term, underflow or term == 0
    except OverflowError:
        total = complex("inf")
    if not cmath.isfinite(total):
        raise DomainError(f"coefficient not a finite float at q = {q_val}")
    if underflow and total == 0:
        raise DomainError(f"coefficient underflows to 0 at q = {q_val}")
    return total

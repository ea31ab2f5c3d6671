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
    """(re + i*im)/den at a numeric q in (0, 1), summed by ascending
    exponent; each part is one correctly rounded int/int division."""
    if not 0 < q_val < 1:
        raise DomainError(f"q must lie in (0, 1), got {q_val}")
    re, im = coeff
    total = 0j
    for k in sorted(re.keys() | im.keys()):
        total += complex(re.get(k, 0) / den, im.get(k, 0) / den) * q_val ** k
    return total

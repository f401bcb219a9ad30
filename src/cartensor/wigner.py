"""Exact Wigner 3j symbols and Clebsch-Gordan coefficients for integer angular momenta.

Values are returned as CoeffAtom instances (rational * sqrt(rational)), computed by
the Racah factorial sum, so downstream algebra stays exact.  Results are cached;
both entry points are pure functions of their integer arguments, so the caches are
safe under concurrent readers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coeff import ATOM_ZERO, CoeffAtom, atom, factorial, atom_mul


def triangle_ok(l1: int, l2: int, l3: int) -> bool:
    """|l1-l2| <= l3 <= l1+l2 with all li >= 0."""
    return l1 >= 0 and l2 >= 0 and l3 >= 0 and abs(l1 - l2) <= l3 <= l1 + l2


@lru_cache(maxsize=None)
def three_j(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> CoeffAtom:
    """Wigner 3j symbol (l1 l2 l3; m1 m2 m3), exact."""
    if not triangle_ok(l1, l2, l3):
        return ATOM_ZERO
    if m1 + m2 + m3 != 0:
        return ATOM_ZERO
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return ATOM_ZERO

    # Racah sum
    k_min = max(0, l2 - l3 - m1, l1 - l3 + m2)
    k_max = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denom = (factorial(k)
                 * factorial(l1 + l2 - l3 - k)
                 * factorial(l1 - m1 - k)
                 * factorial(l2 + m2 - k)
                 * factorial(l3 - l2 + m1 + k)
                 * factorial(l3 - l1 - m2 + k))
        total += Fraction((-1) ** k, denom)
    if total == 0:
        return ATOM_ZERO

    delta = Fraction(
        factorial(l1 + l2 - l3) * factorial(l1 - l2 + l3) * factorial(-l1 + l2 + l3),
        factorial(l1 + l2 + l3 + 1),
    )
    weights = Fraction(
        factorial(l1 + m1) * factorial(l1 - m1)
        * factorial(l2 + m2) * factorial(l2 - m2)
        * factorial(l3 + m3) * factorial(l3 - m3)
    )
    sign = -1 if (l1 - l2 - m3) % 2 else 1
    return atom(sign * total, delta * weights)


@lru_cache(maxsize=None)
def clebsch_gordan(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> CoeffAtom:
    """<l1 m1 l2 m2 | l3 m3>, exact."""
    if m1 + m2 != m3:
        return ATOM_ZERO
    tj = three_j(l1, l2, l3, m1, m2, -m3)
    if tj.rat == 0:
        return ATOM_ZERO
    sign = -1 if (l1 - l2 + m3) % 2 else 1
    return atom_mul(atom(sign), atom_mul(atom(1, 2 * l3 + 1), tj))


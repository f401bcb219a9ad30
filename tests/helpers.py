"""Constructions that only the tests use: a cross product, the closed-form
pair-coupling constant and float Clebsch-Gordan values."""

from fractions import Fraction
from functools import lru_cache

from cartensor.coeff import CoeffAtom, atom, factorial
from cartensor.tensor import TensorPoly, TensorTerm
from cartensor.wigner import clebsch_gordan


def cross_vector(v1: str, v2: str) -> TensorPoly:
    """The rank-1 tensor (v1 x v2) = eps_i,v1,v2, in canonical form."""
    if v1 == v2:
        return TensorPoly(1)
    s1, s2 = sorted((v1, v2))
    eps = (('f', 0), ('s', s1), ('s', s2))
    return TensorPoly(1, (TensorTerm(Fraction(1 if v1 < v2 else -1), epses=(eps,)),))


def couple_constant(l1: int, l2: int, l3: int) -> CoeffAtom:
    """The closed-form constant C relating the standard angular-momentum
    coupling of two rescaled harmonic tensors to the normalized Cartesian
    couplings; parity-agnostic."""
    J = l1 + l2 + l3
    J1 = J - 2 * l1 - 1
    J2 = J - 2 * l2 - 1
    J3 = J - 2 * l3 - 1
    rad = Fraction(
        factorial(2 * l1) * factorial(2 * l2) * factorial(2 * l3),
        factorial(J1 + 1) * factorial(J2 + 1) * factorial(J3 + 1) * factorial(J + 1),
    )
    return atom(1, rad * (2 * l3 + 1))


@lru_cache(maxsize=None)
def cg_float(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Float Clebsch-Gordan value."""
    return float(clebsch_gordan(l1, m1, l2, m2, l3, m3).to_float())

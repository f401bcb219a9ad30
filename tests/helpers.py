"""Constructions that only the tests use: a cross product, the closed-form
pair-coupling constant, the coupling sum built step by step from public
operations, the odd-coupling normalization found by probing and float
Clebsch-Gordan values."""

from fractions import Fraction
from functools import lru_cache

from cartensor.coeff import (ATOM_ONE, CoeffAtom, atom, atom_mul, double_factorial,
                            factorial)
from cartensor.tensor import (TensorPoly, TensorTerm, contract, contract_slots,
                              harmonic_tensor, poly_add, poly_scale,
                              symmetrized_embed, traceless_contract, vector_power)
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


_EPS3 = TensorPoly(3, (TensorTerm(Fraction(1), epses=((('f', 0), ('f', 1), ('f', 2)),)),))


def reference_coupling_sum(A: TensorPoly, B: TensorPoly, l3: int, parity: int,
                           norm: Fraction, scale: CoeffAtom = ATOM_ONE) -> TensorPoly:
    """scale * norm * the sum over r of the rank-l3 pieces of A and B, as
    tensor._coupling_sum defines it, built one public operation at a time:
    every contraction, epsilon hook, embedding and partial sum is a
    TensorPoly of its own."""
    l1, l2 = A.rank, B.rank
    k = (l1 + l2 - l3 - parity) // 2
    T = TensorPoly(l3)
    for r in range(min(l1, l2) - k - parity + 1):
        core = traceless_contract(A, B, k + r)
        g1, g2 = l1 - k - r - parity, l2 - k - r - parity
        if parity:
            # eps_ijk A_j... B_k... : hook the epsilon to one A slot and one B slot
            core = contract_slots(_EPS3, core, [(1, g1), (2, g1 + 1)])
        c = Fraction((-2) ** r * double_factorial(2 * l3 - 2 * r - 1),
                     double_factorial(2 * l3 - 1))
        T = poly_add(T, poly_scale(symmetrized_embed(core, [1] * parity + [g1, g2], r, l3), c))
    return poly_scale(T, atom_mul(scale, CoeffAtom(norm)))


def odd_norm_probe(l1: int, l2: int, l3: int) -> Fraction:
    """The normalization N of couple_odd, found on the harmonic-tensor
    instance rather than from its closed form.

    Builds the raw odd coupling sum of harmonic(a,l1), harmonic(b,l2) at unit
    normalization and contracts it with a x ... x a (l3-1 factors).  That must
    give w * (polynomial in a.b) * (a x b); N = 1/w(a.b=1), and the orientation
    requirement w(1) > 0 pins the sign."""
    T = reference_coupling_sum(harmonic_tensor('a', l1), harmonic_tensor('b', l2),
                               l3, 1, Fraction(1))
    W = contract(T, vector_power('a', l3 - 1), l3 - 1)
    for t in W.terms:
        if t.epses != ((('f', 0), ('s', 'a'), ('s', 'b')),) or t.deltas or t.vecs or t.boxes:
            raise AssertionError("odd coupling probe has unexpected structure")
    if W.prefactor != ATOM_ONE:
        raise AssertionError("odd coupling probe coefficient not rational")
    w1 = sum(t.coeff for t in W.terms)
    if w1 <= 0:
        raise AssertionError(f"odd coupling orientation factor w(1)={w1} <= 0")
    return 1 / w1


@lru_cache(maxsize=None)
def cg_float(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Float Clebsch-Gordan value."""
    return float(clebsch_gordan(l1, m1, l2, m2, l3, m3).to_float())

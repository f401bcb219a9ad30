"""Exact coefficient arithmetic over the field generated by rationals, square roots,
half-integer powers of pi, and powers of i.

A single CoeffAtom encodes the value

    rat * sqrt(radicand) * pi**(pi_half/2) * i**i_pow

with rat and radicand rational (radicand > 0) and pi_half, i_pow integers.  Every
constant produced by the reduction engine (Clebsch-Gordan coefficients, 3j symbols,
coupling normalizations, spherical prefactors) lives in this set, so all engine
arithmetic is exact; floats appear only in the numeric cross-check oracle.

The integer helpers build the closed-form radicands: factorial is
math.factorial, re-exported so that the package names one n!, and
double_factorial and square_free_split are defined here.

Atoms have one normal form, atom_canonical: nonzero rat (or the unique zero),
square-free positive integer radicand, i_pow in {0, 1}.  Equal values have
equal canonical atoms.  atom() and atom_mul() return that form.

The engine needs no sums of atoms: a TensorPoly is one atom times a rational
polynomial (see tensor.py), so no package code adds atoms of different shapes.
CoeffSum, the exact sum of such atoms, keeps only its atoms field and
from_atoms, because bench/tracing.py wraps CoeffSum.from_atoms by name.
from_atoms holds canonical atoms sorted by the key (radicand, pi_half, i_pow),
one atom per key, so equal values have equal sums; a sum, difference or
product of sums is from_atoms of the concatenated atoms or of their atom_mul
products, so atom_canonical stays the only normal-form path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial


# ---------------------------------------------------------------------------
# Integer helpers
# ---------------------------------------------------------------------------

def double_factorial(n: int) -> int:
    """n!! for n >= -1, with (-1)!! == 0!! == 1.

    The degenerate value (-1)!! = +1 is relied on throughout the coupling
    normalizations (it arises whenever a triple is 'stretched' so that one of
    the J-type integers hits -1).
    """
    if n < -1:
        raise ValueError(f"double factorial of {n} not defined here")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def square_free_split(n: int) -> tuple[int, int]:
    """Write n = s**2 * f with f square-free; return (s, f).  Requires n >= 1.

    Trial division is fine here: every radicand the engine produces is a ratio
    of factorials/double factorials, hence smooth.
    """
    if n < 1:
        raise ValueError(f"square_free_split requires a positive integer, got {n}")
    s = 1
    f = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    f *= n  # leftover prime (or 1)
    return s, f


# ---------------------------------------------------------------------------
# CoeffAtom
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoeffAtom:
    """rat * sqrt(radicand) * pi**(pi_half/2) * i**i_pow, all exact."""

    rat: Fraction
    radicand: Fraction = Fraction(1)
    pi_half: int = 0
    i_pow: int = 0

    def __post_init__(self) -> None:
        if type(self.rat) is not Fraction:
            object.__setattr__(self, "rat", Fraction(self.rat))
        if type(self.radicand) is not Fraction:
            object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.radicand.numerator <= 0:
            raise ValueError(f"radicand must be positive, got {self.radicand}")

    # -- conversion -------------------------------------------------------

    def to_complex(self) -> complex:
        v = float(self.rat) * math.sqrt(float(self.radicand)) * math.pi ** (self.pi_half / 2)
        return v * (1j ** (self.i_pow % 4))


def atom(rat, radicand=1, pi_half: int = 0, i_pow: int = 0) -> CoeffAtom:
    """Convenience constructor, in canonical form."""
    return atom_canonical(CoeffAtom(Fraction(rat), Fraction(radicand), pi_half, i_pow))


ATOM_ONE = CoeffAtom(Fraction(1))
ATOM_ZERO = CoeffAtom(Fraction(0))


def atom_canonical(a: CoeffAtom) -> CoeffAtom:
    """The normal form of an atom's value.

    sqrt(n/d) = s*sqrt(f)/d with n*d = s**2 * f and f square-free; i_pow is
    folded into {0, 1} with the sign moved into rat.  Examples: sqrt(8) ->
    2*sqrt(2); (1/3)*sqrt(9/2) -> (1/2)*sqrt(2); i^6 -> -1.  Idempotent;
    distinct canonical atoms denote distinct values.
    """
    if a.rat == 0:
        return ATOM_ZERO
    n, d = a.radicand.numerator, a.radicand.denominator
    s, f = square_free_split(n * d)
    rat = a.rat * Fraction(s, d)
    i_pow = a.i_pow % 4
    if i_pow >= 2:
        rat = -rat
        i_pow -= 2
    return CoeffAtom(rat, Fraction(f), a.pi_half, i_pow)


def atom_mul(a: CoeffAtom, b: CoeffAtom) -> CoeffAtom:
    """Exact product of two atoms, in canonical form."""
    return atom_canonical(CoeffAtom(
        a.rat * b.rat,
        a.radicand * b.radicand,
        a.pi_half + b.pi_half,
        a.i_pow + b.i_pow,
    ))


# ---------------------------------------------------------------------------
# CoeffSum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoeffSum:
    """Canonical sum of canonical atoms, keyed by (radicand, pi_half, i_pow)."""

    atoms: tuple[CoeffAtom, ...] = ()

    @staticmethod
    def from_atoms(atoms) -> "CoeffSum":
        acc: dict[tuple[Fraction, int, int], Fraction] = {}
        for raw in atoms:
            a = atom_canonical(raw)
            if a.rat == 0:
                continue
            k = (a.radicand, a.pi_half, a.i_pow)
            acc[k] = acc[k] + a.rat if k in acc else a.rat
        return CoeffSum(tuple([CoeffAtom(r, *k) for k, r in sorted(acc.items()) if r]))


# ---------------------------------------------------------------------------
# JSON serialization of atoms
# ---------------------------------------------------------------------------

def atom_to_json(a: CoeffAtom) -> dict:
    return {
        "num": a.rat.numerator,
        "den": a.rat.denominator,
        "radicand_num": a.radicand.numerator,
        "radicand_den": a.radicand.denominator,
        "pi_half": a.pi_half,
        "i_pow": a.i_pow,
    }

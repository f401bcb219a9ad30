"""Unit tests for exact coefficient arithmetic (rationals, radicals, pi, i)."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cartensor.coeff import (
    ATOM_ONE,
    ATOM_ZERO,
    CoeffAtom,
    CoeffSum,
    SUM_ONE,
    SUM_ZERO,
    atom,
    atom_canonical,
    atom_mul,
    atom_to_json,
    double_factorial,
    factorial,
    square_free_split,
)

from helpers import atom_from_json


class TestIntegerHelpers:
    def test_factorial_small(self):
        assert [factorial(n) for n in range(6)] == [1, 1, 2, 6, 24, 120]

    def test_double_factorial_values(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(1) == 1
        assert double_factorial(5) == 15
        assert double_factorial(6) == 48
        assert double_factorial(7) == 105

    def test_square_free_split(self):
        # n = s**2 * f with f square-free
        assert square_free_split(1) == (1, 1)
        assert square_free_split(12) == (2, 3)
        assert square_free_split(72) == (6, 2)
        assert square_free_split(49) == (7, 1)
        assert square_free_split(30) == (1, 30)
        for n in range(1, 200):
            s, f = square_free_split(n)
            assert s * s * f == n
            # f square-free: no prime square divides it
            for p in range(2, 15):
                assert f % (p * p) != 0

    def test_square_free_split_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            square_free_split(0)


class TestAtom:
    def test_value_1(self):
        a = atom(Fraction(3, 4), Fraction(2), -3)  # (3/4) sqrt2 pi^-3/2
        import math
        assert a.to_complex() == pytest.approx(
            0.75 * math.sqrt(2.0) * math.pi ** -1.5)

    def test_i_pow_cycle(self):
        # i^2 = -1, i^3 = -i, i^4 = 1
        i1 = atom(1, 1, 0, 1)
        i2 = atom_canonical(atom_mul(i1, i1))
        assert i2 == atom_canonical(atom(-1))
        i4 = atom_canonical(atom_mul(i2, i2))
        assert i4 == atom_canonical(ATOM_ONE)
        i3 = atom_canonical(atom_mul(i2, i1))
        assert i3.i_pow == 1 and i3.rat == -1

    def test_radical_multiplication(self):
        # sqrt2 * sqrt8 = 4
        a = atom_mul(atom(1, 2), atom(1, 8))
        assert atom_canonical(a) == atom_canonical(atom(4))
        # sqrt(3/10) * sqrt(5/14) = sqrt(3/28) = sqrt(21)/14
        b = atom_canonical(atom_mul(atom(1, Fraction(3, 10)),
                                    atom(1, Fraction(5, 14))))
        assert b == atom_canonical(atom(Fraction(1, 14), 21))

    def test_canonical_square_free_integer_radicand(self):
        a = atom_canonical(atom(Fraction(1, 4), Fraction(5, 14), -4))
        # (1/4) sqrt(5/14) = (1/56) sqrt70
        assert a.radicand == Fraction(70)
        assert a.rat == Fraction(1, 56)
        assert a.pi_half == -4
        s, f = square_free_split(int(a.radicand))
        assert s == 1

    def test_canonical_idempotent(self):
        a = atom(Fraction(-7, 6), Fraction(45, 8), 3, 5)
        once = atom_canonical(a)
        assert atom_canonical(once) == once
        assert once.i_pow in (0, 1)
        # value preserved
        assert once.to_complex() == pytest.approx(a.to_complex())

    def test_normalize_preserves_value(self):
        raw = CoeffAtom(Fraction(5, 3), Fraction(18, 4), -2, 7)
        assert atom(raw.rat, raw.radicand, -2, 7).to_complex() == \
            pytest.approx(raw.to_complex())

    def test_pi_powers(self):
        import math
        assert atom(1, 1, 2).to_complex() == pytest.approx(math.pi)
        assert atom(1, 1, -1).to_complex() == pytest.approx(math.pi ** -0.5)

    def test_zero(self):
        assert atom_canonical(atom(0, 7, 3, 1)) == ATOM_ZERO

    def test_square_root_of_2l_plus_1(self):
        # sqrt(2l+1), the hat factor of a Clebsch-Gordan coefficient
        assert atom(1, 1) == ATOM_ONE
        assert atom(1, 9) == atom(3)
        for l in range(8):
            assert atom(1, 2 * l + 1).to_complex() == pytest.approx(math.sqrt(2 * l + 1))

    def test_square_root_of_perfect_square(self):
        assert atom(1, Fraction(4, 9)) == atom(Fraction(2, 3))

    def test_square_root_of_irrational(self):
        assert atom(1, Fraction(3, 2)) == atom(Fraction(1, 2), 6)


class TestSum:
    def test_merge_same_radical(self):
        # sqrt8 + sqrt2 = 3 sqrt2
        s = CoeffSum.from_atoms([atom(1, 8), atom(1, 2)])
        assert s == CoeffSum.from_atom(atom(3, 2))

    def test_distinct_radicals_stay_separate(self):
        s = CoeffSum.from_atoms([atom(1), atom(1, 2)])
        assert len(s.atoms) == 2
        assert not s.is_zero

    def test_cancellation(self):
        s = CoeffSum.from_atoms([atom(5, 3), atom(-5, 3)])
        assert s == SUM_ZERO
        assert s.is_zero

    def test_add_neg_scale_mul(self):
        a = CoeffSum.from_atom(atom(Fraction(1, 2), 3))
        b = CoeffSum.from_atom(atom(Fraction(1, 3), 3))
        assert a.add(b) == CoeffSum.from_atom(atom(Fraction(5, 6), 3))
        assert a.add(a.neg()) == SUM_ZERO
        assert a.scale(Fraction(4)) == CoeffSum.from_atom(atom(2, 3))
        assert a.mul(a) == CoeffSum.from_atom(atom(Fraction(3, 4)))

    def test_is_real(self):
        assert SUM_ONE.is_real
        assert not CoeffSum.from_atom(atom(1, 1, 0, 1)).is_real
        assert SUM_ZERO.is_real

    def test_to_complex(self):
        import math
        s = CoeffSum.from_atoms([atom(1), atom(1, 2)])
        assert s.to_complex() == pytest.approx(1.0 + math.sqrt(2.0))


class TestJson:
    def test_round_trip(self):
        a = atom_canonical(atom(Fraction(-3, 56), 70, -4, 1))
        assert atom_from_json(atom_to_json(a)) == a

    def test_json_plain_types(self):
        obj = atom_to_json(atom(Fraction(1, 3), 5, -2))
        import json
        json.dumps(obj)  # must be serializable as-is


# ---------------------------------------------------------------------------
# Property test: the CoeffSum kernel against exact sympy arithmetic
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11)
_smooth = st.lists(st.integers(0, 3), min_size=len(_PRIMES),
                   max_size=len(_PRIMES)).map(
    lambda es: math.prod(p ** e for p, e in zip(_PRIMES, es)))
_raw_atoms = st.builds(
    CoeffAtom,
    rat=st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    radicand=st.builds(Fraction, _smooth, _smooth),
    pi_half=st.integers(-4, 4),
    i_pow=st.integers(0, 7),
)
_atom_lists = st.lists(_raw_atoms, max_size=4)


def _assert_canonical(s):
    keys = []
    for a in s.atoms:
        assert a.rat != 0
        assert a.radicand.denominator == 1
        assert square_free_split(a.radicand.numerator)[0] == 1
        assert a.i_pow in (0, 1)
        keys.append((a.radicand.numerator, a.pi_half, a.i_pow))
    assert keys == sorted(set(keys))


def _assert_close(z, w, magnitude):
    assert abs(z - w) <= 1e-12 * magnitude


def _size(atoms):
    return sum(abs(a.to_complex()) for a in atoms)


def _sym(atoms):
    """The exact value of a sum of atoms, as an expanded sympy expression."""
    return sympy.expand(sum(
        (sympy.Rational(a.rat.numerator, a.rat.denominator)
         * sympy.sqrt(sympy.Rational(a.radicand.numerator, a.radicand.denominator))
         * sympy.pi ** sympy.Rational(a.pi_half, 2) * sympy.I ** a.i_pow
         for a in atoms), sympy.Integer(0)))


def _assert_exact(s, value):
    assert sympy.expand(_sym(s.atoms) - value) == 0


# No explain phase: it traces every shrink step, which stretches a failing run
# to minutes.
@settings(deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(xs=_atom_lists, ys=_atom_lists, c=_raw_atoms,
       q=st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
def test_sum_kernel_matches_sympy(xs, ys, c, q):
    s, t = CoeffSum.from_atoms(xs), CoeffSum.from_atoms(ys)
    zs, zt = s.to_complex(), t.to_complex()
    vs, vt = _sym(xs), _sym(ys)
    _assert_exact(s, vs)

    prod = s.mul(t)
    _assert_exact(prod, vs * vt)
    _assert_close(prod.to_complex(), zs * zt, _size(xs) * _size(ys))

    total = s.add(t)
    _assert_exact(total, vs + vt)
    _assert_close(total.to_complex(), zs + zt, _size(xs) + _size(ys))

    neg = s.neg()
    _assert_exact(neg, -vs)
    _assert_close(neg.to_complex(), -zs, _size(xs))

    by_atom = s.scale(c)
    _assert_exact(by_atom, vs * _sym([c]))
    _assert_close(by_atom.to_complex(), zs * c.to_complex(),
                  _size(xs) * abs(c.to_complex()))

    by_rat = s.scale(q)
    _assert_exact(by_rat, vs * sympy.Rational(q.numerator, q.denominator))
    _assert_close(by_rat.to_complex(), zs * float(q), _size(xs) * abs(float(q)))

    for result in (s, prod, total, neg, by_atom, by_rat):
        _assert_canonical(result)


@settings(deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(raw=_raw_atoms, other=_raw_atoms)
def test_atom_normal_form(raw, other):
    a = atom(raw.rat, raw.radicand, raw.pi_half, raw.i_pow)
    assert a == atom_canonical(raw) == atom_canonical(a)
    if a.rat:
        _assert_canonical(CoeffSum((a,)))
    _assert_close(a.to_complex(), raw.to_complex(), abs(raw.to_complex()))
    prod = atom_mul(raw, other)
    assert prod == atom_canonical(prod)
    _assert_close(prod.to_complex(), raw.to_complex() * other.to_complex(),
                  abs(raw.to_complex() * other.to_complex()))

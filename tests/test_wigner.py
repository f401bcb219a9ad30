"""Unit tests for exact 3j symbols and Clebsch-Gordan coefficients.

Reference values are standard-table constants, frozen here as closed-form
radicals independent of the implementation.
"""

from fractions import Fraction

import pytest

from cartensor.coeff import CoeffSum, atom, atom_canonical, atom_mul
from cartensor.wigner import three_j, triangle_ok

from helpers import cg_float, clebsch_gordan, to_float


def _exact(a, rat, radicand=1):
    assert atom_canonical(a) == atom_canonical(atom(Fraction(rat), Fraction(radicand)))


class TestTriangle:
    def test_triangle_ok(self):
        assert triangle_ok(1, 1, 2)
        assert triangle_ok(1, 1, 0)
        assert triangle_ok(2, 3, 1)
        assert not triangle_ok(1, 1, 3)
        assert not triangle_ok(0, 2, 1)


class TestThreeJ:
    def test_known_m0_values(self):
        # (1 1 2; 0 0 0) = sqrt(2/15)
        _exact(three_j(1, 1, 2, 0, 0, 0), 1, Fraction(2, 15))
        # (2 2 2; 0 0 0) = -sqrt(2/35)
        _exact(three_j(2, 2, 2, 0, 0, 0), -1, Fraction(2, 35))
        # (1 2 3; 0 0 0) = -sqrt(3/35)
        _exact(three_j(1, 2, 3, 0, 0, 0), -1, Fraction(3, 35))
        # (l l 0; 0 0 0) = (-1)^l / sqrt(2l+1)
        _exact(three_j(1, 1, 0, 0, 0, 0), Fraction(-1, 3), 3)
        _exact(three_j(2, 2, 0, 0, 0, 0), Fraction(1, 5), 5)

    def test_known_m_nonzero(self):
        # (1 1 2; 1 -1 0) = 1/sqrt(30)
        _exact(three_j(1, 1, 2, 1, -1, 0), Fraction(1, 30), 30)

    def test_odd_sum_vanishes_at_zero_m(self):
        assert atom_canonical(three_j(1, 1, 1, 0, 0, 0)).rat == 0
        assert atom_canonical(three_j(2, 2, 1, 0, 0, 0)).rat == 0

    def test_m_sum_rule(self):
        assert atom_canonical(three_j(1, 1, 2, 1, 0, 0)).rat == 0
        assert atom_canonical(three_j(2, 2, 2, 1, 1, 1)).rat == 0

    def test_triangle_violation_is_zero(self):
        assert atom_canonical(three_j(1, 1, 3, 0, 0, 0)).rat == 0

    def test_even_permutation_symmetry(self):
        for args in [(1, 1, 2, 1, -1, 0), (2, 2, 1, 1, -1, 0), (2, 3, 1, 2, -1, -1)]:
            l1, l2, l3, m1, m2, m3 = args
            a = atom_canonical(three_j(l1, l2, l3, m1, m2, m3))
            b = atom_canonical(three_j(l2, l3, l1, m2, m3, m1))
            c = atom_canonical(three_j(l3, l1, l2, m3, m1, m2))
            assert a == b == c

    def test_odd_permutation_phase(self):
        for args in [(1, 1, 2, 1, -1, 0), (2, 3, 1, 2, -1, -1), (2, 2, 2, 1, 1, -2)]:
            l1, l2, l3, m1, m2, m3 = args
            J = l1 + l2 + l3
            a = atom_canonical(three_j(l1, l2, l3, m1, m2, m3))
            b = atom_canonical(three_j(l2, l1, l3, m2, m1, m3))
            if J % 2:
                assert b.rat == -a.rat and b.radicand == a.radicand
            else:
                assert b == a

    def test_m_negation_phase(self):
        for args in [(1, 1, 2, 1, -1, 0), (2, 3, 1, 2, -1, -1), (1, 2, 3, 1, 1, -2)]:
            l1, l2, l3, m1, m2, m3 = args
            J = l1 + l2 + l3
            a = atom_canonical(three_j(l1, l2, l3, m1, m2, m3))
            b = atom_canonical(three_j(l1, l2, l3, -m1, -m2, -m3))
            if J % 2:
                assert b.rat == -a.rat and b.radicand == a.radicand
            else:
                assert b == a


class TestClebschGordan:
    def test_known_values(self):
        _exact(clebsch_gordan(1, 0, 1, 0, 2, 0), 1, Fraction(2, 3))
        _exact(clebsch_gordan(1, 1, 1, -1, 2, 0), Fraction(1, 6), 6)
        _exact(clebsch_gordan(1, 1, 1, -1, 1, 0), Fraction(1, 2), 2)
        assert atom_canonical(clebsch_gordan(1, 0, 1, 0, 1, 0)).rat == 0
        # <l m l -m | 0 0> = (-1)^(l-m)/sqrt(2l+1)
        _exact(clebsch_gordan(2, 2, 2, -2, 0, 0), Fraction(1, 5), 5)
        _exact(clebsch_gordan(2, 1, 2, -1, 0, 0), Fraction(-1, 5), 5)
        # stretched: <l l l l | 2l 2l> = 1
        _exact(clebsch_gordan(2, 2, 2, 2, 4, 4), 1)
        _exact(clebsch_gordan(3, 3, 1, 1, 4, 4), 1)

    def test_orthogonality_exact(self):
        # sum_{m1,m2} <l1 m1 l2 m2|L M><l1 m1 l2 m2|L' M'> = delta_LL' delta_MM'
        l1, l2 = 2, 2
        for L in range(0, 5):
            for Lp in range(0, 5):
                prods = []
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        if abs(m1 + m2) > min(L, Lp):
                            continue
                        a = clebsch_gordan(l1, m1, l2, m2, L, m1 + m2)
                        b = clebsch_gordan(l1, m1, l2, m2, Lp, m1 + m2)
                        prods.append(atom_mul(a, b))
                total = CoeffSum.from_atoms(prods)
                if L == Lp:
                    assert total == CoeffSum.from_atoms([atom(Fraction(2 * L + 1))])
                else:
                    assert total == CoeffSum.from_atoms([])

    def test_cg_float_matches_exact(self):
        for args in [(1, 0, 1, 0, 2, 0), (2, 1, 2, -1, 1, 0), (3, 2, 2, -1, 1, 1)]:
            l1, m1, l2, m2, l3, m3 = args
            exact = to_float(clebsch_gordan(l1, m1, l2, m2, l3, m3))
            assert cg_float(*args) == pytest.approx(exact, abs=1e-15)

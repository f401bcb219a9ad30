"""Unit tests for the exact Cartesian tensor algebra.

Covers construction of symmetric traceless tensors from unit vectors, the
normalized even/odd pair couplings, epsilon/delta simplification, and the
combinatorial term counts of the symmetrized embeddings.
"""

import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cartensor import tensor
from cartensor.coeff import ATOM_ONE, CoeffAtom, atom, atom_mul, square_free_split
from cartensor.reduce import MAX_LEAF_TERMS, Harmonic, leaf_too_large, reduce_expr
from cartensor.tensor import (
    TensorPoly,
    TensorTerm,
    contract_slots,
    couple_even,
    couple_odd,
    embed_count,
    harmonic_tensor,
    kappa_even,
    odd_norm,
    poly_add,
    poly_scale,
    symmetrized_embed,
)

from helpers import (contract, couple_constant, cross_vector, full_contract, odd_norm_probe,
                     poly_neg, poly_of, poly_permute_slots, poly_sub, reference_harmonic,
                     scalar_poly, term_atom, to_float, vector_power)

DELTA = poly_of(2, [TensorTerm(Fraction(1), deltas=((0, 1),))])


def coeff_of(poly, **parts):
    """Return the coefficient of the term matching the given structure."""
    target = {
        "vecs": tuple(parts.get("vecs", ())),
        "deltas": tuple(parts.get("deltas", ())),
        "dots": tuple(parts.get("dots", ())),
        "boxes": tuple(parts.get("boxes", ())),
    }
    for t in poly.terms:
        if (t.vecs, t.deltas, t.dots, t.boxes) == (
                target["vecs"], target["deltas"], target["dots"], target["boxes"]):
            return term_atom(poly, t)
    return None


def rational_atom(x):
    return atom(Fraction(x))


def trace(poly, i, j):
    """Contract two free slots of poly with a Kronecker delta."""
    return contract_slots(poly, DELTA, [(i, 0), (j, 1)])


class TestBasicPolys:
    def test_scalar_poly(self):
        p = scalar_poly()
        assert p.rank == 0 and len(p.terms) == 1

    def test_vector_power(self):
        p = vector_power('a', 3)
        assert p.rank == 3
        assert len(p.terms) == 1
        assert p.terms[0].vecs == (('a', 0), ('a', 1), ('a', 2))

    def test_poly_arithmetic(self):
        p = vector_power('a', 1)
        assert poly_sub(p, p).is_zero
        assert poly_add(p, poly_neg(p)).is_zero
        q = poly_scale(p, atom(Fraction(2)))
        assert term_atom(q, q.terms[0]) == rational_atom(2)


class TestPrefactor:
    """A TensorPoly is one canonical atom (rat == 1) times rational terms."""

    def test_mixed_prefactor_shapes_rejected(self):
        p = vector_power('a', 1)
        q = poly_scale(vector_power('b', 1), atom(1, 2))
        with pytest.raises(ValueError, match="prefactor"):
            poly_add(poly_scale(p, atom(1, 3)), q)
        with pytest.raises(ValueError, match="prefactor"):
            poly_sub(p, q)
        with pytest.raises(ValueError, match="prefactor"):
            poly_add(p, poly_scale(p, atom(1, 1, 0, 1)))

    def test_normal_form(self):
        p = harmonic_tensor('a', 2)
        assert poly_scale(poly_scale(p, atom(2, 3)), atom(1, 3)) == poly_scale(p, atom(6))
        q = poly_scale(p, atom(Fraction(1, 2), 3, -1))
        assert q.prefactor == atom(1, 3, -1)
        assert [term_atom(q, t) for t in q.terms] == \
            [atom(c / 2, 3, -1) for c in (t.coeff for t in p.terms)]
        assert poly_add(TensorPoly(2), q) == q == poly_add(q, TensorPoly(2))

    def test_zero_results_carry_atom_one(self):
        q = poly_scale(harmonic_tensor('a', 2), atom(1, 2, 1, 1))
        for zero in (poly_sub(q, q), poly_add(q, poly_neg(q)), poly_scale(q, 0),
                     poly_scale(q, atom(0)), trace(q, 0, 1), scalar_poly(atom(0))):
            assert zero.is_zero
            assert zero.prefactor == ATOM_ONE
        assert poly_sub(q, q) == TensorPoly(2)

    def test_product_moves_rational_part_into_terms(self):
        # sqrt(2) * sqrt(6) = 2 sqrt(3); i * i = -1
        a = poly_scale(vector_power('a', 1), atom(1, 2))
        b = poly_scale(vector_power('b', 1), atom(1, 6))
        p = full_contract(a, b)
        assert p.prefactor == atom(1, 3)
        assert p.terms[0].coeff == 2
        ia = poly_scale(vector_power('a', 1), atom(1, 1, 0, 1))
        ib = poly_scale(vector_power('b', 1), atom(1, 1, 0, 1))
        p = full_contract(ia, ib)
        assert p.prefactor == ATOM_ONE
        assert p.terms[0].coeff == -1


_atoms = st.builds(
    CoeffAtom,
    rat=st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    radicand=st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)),
    pi_half=st.integers(-4, 4),
    i_pow=st.integers(0, 7),
)


@settings(deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(a=_atoms, b=_atoms)
def test_prefactor_kernel(a, b):
    """Scaling and contraction keep the normal form and the exact value of
    every term: prefactor * coeff is the product of the atoms applied."""
    p = harmonic_tensor('a', 2)
    ab = atom_mul(a, b)
    scaled = poly_scale(poly_scale(p, a), b)
    assert scaled == poly_scale(p, ab)
    pa = poly_scale(vector_power('a', 1), a)
    pb = poly_scale(vector_power('b', 1), b)
    contracted = full_contract(pa, pb)
    assert contracted == poly_scale(full_contract(vector_power('a', 1),
                                                  vector_power('b', 1)), ab)
    for q in (scaled, contracted):
        if ab.rat == 0:
            assert q == TensorPoly(q.rank)
            continue
        pre = q.prefactor
        assert pre.rat == 1 and pre.radicand.denominator == 1
        assert square_free_split(pre.radicand.numerator)[0] == 1
        assert pre.i_pow in (0, 1)
    for t, u in zip(p.terms, scaled.terms):
        assert u.key == t.key
        assert term_atom(scaled, u) == atom_mul(ab, term_atom(p, t))


class TestEpsilonAlgebra:
    def test_cross_self_is_zero(self):
        assert full_contract(cross_vector('a', 'a'), vector_power('b', 1)).is_zero

    def test_box_product_canonicalization(self):
        # (a x b) . c = box(a,b,c)
        p = full_contract(cross_vector('a', 'b'), vector_power('c', 1))
        assert len(p.terms) == 1
        t = p.terms[0]
        assert t.boxes == (('a', 'b', 'c'),)
        assert term_atom(p, t) == rational_atom(1)

    def test_box_antisymmetry(self):
        p = full_contract(cross_vector('b', 'a'), vector_power('c', 1))
        assert p.terms[0].boxes == (('a', 'b', 'c'),)
        assert term_atom(p, p.terms[0]) == rational_atom(-1)

    def test_two_epsilon_reduction(self):
        # (a x b).(c x d) = (a.c)(b.d) - (a.d)(b.c)
        p = full_contract(cross_vector('a', 'b'), cross_vector('c', 'd'))
        assert len(p.terms) == 2
        assert coeff_of(p, dots=(('a', 'c', 1), ('b', 'd', 1))) == rational_atom(1)
        assert coeff_of(p, dots=(('a', 'd', 1), ('b', 'c', 1))) == rational_atom(-1)

    EPS = (('f', 0), ('f', 3), ('s', 'a'))
    BOX = (('s', 'a'), ('s', 'b'), ('s', 'c'))

    @pytest.mark.parametrize("entries,canonical", [
        (EPS, ((EPS,), ())),
        (BOX, ((), (('a', 'b', 'c'),))),
    ], ids=["epsilon", "box"])
    def test_canonical_eps_sorts_with_the_permutation_sign(self, entries, canonical):
        """Every ordering of three ascending entries comes back ascending,
        with the sign of the ordering, counted here by inversions."""
        for perm in itertools.permutations(range(3)):
            sign = (-1) ** sum(perm[i] > perm[j] for i, j in itertools.combinations(range(3), 2))
            assert tensor._canonical_eps([entries[i] for i in perm]) == canonical + (sign,)

    @pytest.mark.parametrize("ep", [
        [('f', 0), ('s', 'a'), ('f', 0)],
        [('s', 'b'), ('s', 'b'), ('s', 'a')],
    ], ids=["epsilon", "box"])
    def test_canonical_eps_repeated_entry_is_none(self, ep):
        assert tensor._canonical_eps(ep) is None

    def test_cross_square_with_unit_vectors(self):
        # |a x b|^2 = 1 - (a.b)^2 for unit vectors
        p = full_contract(cross_vector('a', 'b'), cross_vector('a', 'b'))
        assert coeff_of(p) == rational_atom(1)
        assert coeff_of(p, dots=(('a', 'b', 2),)) == rational_atom(-1)


class TestHarmonicTensor:
    def test_rank_two_form(self):
        # (3/2) a_i a_j - delta_ij / 2  (contracts with b_i b_j to P_2(a.b))
        p = harmonic_tensor('a', 2)
        assert coeff_of(p, vecs=(('a', 0), ('a', 1))) == rational_atom(Fraction(3, 2))
        assert coeff_of(p, deltas=((0, 1),)) == rational_atom(Fraction(-1, 2))

    def test_rank_three_form(self):
        # leading coefficient 5/2 on aaa, -1/2 on each a*delta
        p = harmonic_tensor('a', 3)
        assert coeff_of(p, vecs=(('a', 0), ('a', 1), ('a', 2))) == rational_atom(Fraction(5, 2))
        deltas = [t for t in p.terms if t.deltas]
        assert len(deltas) == 3
        assert all(term_atom(p, t) == rational_atom(Fraction(-1, 2)) for t in deltas)

    @pytest.mark.parametrize("l", range(1, 7))
    def test_traceless(self, l):
        p = harmonic_tensor('a', l)
        for i in range(l):
            for j in range(i + 1, l):
                assert trace(p, i, j).is_zero

    @pytest.mark.parametrize("l", range(2, 7))
    def test_symmetric(self, l):
        p = harmonic_tensor('a', l)
        for i in range(l - 1):
            perm = list(range(l))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            assert poly_sub(p, poly_permute_slots(p, tuple(perm))).is_zero

    @pytest.mark.parametrize("l", range(1, 7))
    def test_contraction_with_own_power_is_one(self, l):
        # P_l(a.a) = P_l(1) = 1
        p = full_contract(harmonic_tensor('a', l), vector_power('a', l))
        assert p.rank == 0
        assert len(p.terms) == 1
        assert term_atom(p, p.terms[0]) == ATOM_ONE

    @pytest.mark.parametrize("l", range(1, 7))
    def test_self_contraction_value(self, l):
        # h . h = (2l-1)!! / l!  (the leading coefficient, times P_l(1))
        from cartensor.coeff import double_factorial
        p = full_contract(harmonic_tensor('a', l), harmonic_tensor('a', l))
        expected = rational_atom(Fraction(double_factorial(2 * l - 1),
                                         math.factorial(l)))
        assert len(p.terms) == 1
        assert term_atom(p, p.terms[0]) == expected

    @pytest.mark.parametrize("l", range(1, 7))
    def test_term_count_per_delta_number(self, l):
        # number of monomials carrying exactly r deltas: l!/((l-2r)! 2^r r!)
        p = harmonic_tensor('a', l)
        by_r = {}
        for t in p.terms:
            by_r[len(t.deltas)] = by_r.get(len(t.deltas), 0) + 1
        for r in range(l // 2 + 1):
            expected = (math.factorial(l)
                        // (math.factorial(l - 2 * r) * 2 ** r * math.factorial(r)))
            assert by_r.get(r, 0) == expected

    @pytest.mark.parametrize("l", range(11))
    @pytest.mark.parametrize("v", ['a', 'w_2'])
    def test_equals_the_embedding_reference(self, v, l):
        assert harmonic_tensor(v, l) == reference_harmonic(v, l)

    def test_term_count_is_the_involution_count(self):
        # T(l) = T(l-1) + (l-1) T(l-2), the count reduce.leaf_too_large bounds
        counts = [1, 1]
        for l in range(2, 12):
            counts.append(counts[-1] + (l - 1) * counts[-2])
        assert counts[10] == 9496
        for l in range(11):
            for v in ('a', 'w_2'):
                assert len(harmonic_tensor(v, l).terms) == counts[l]
        for l in range(12):
            assert leaf_too_large(l) == (counts[l] > MAX_LEAF_TERMS)

    def test_uncached_build_relabels_nothing(self, monkeypatch):
        calls = []
        relabel = tensor._relabel
        monkeypatch.setattr(tensor, "_relabel", lambda *args: calls.append(args) or relabel(*args))
        tensor._harmonic_cached.cache_clear()
        for l in range(11):
            harmonic_tensor('a', l)
        assert calls == []

    def test_leaf_cache_is_bounded(self):
        tensor._harmonic_cached.cache_clear()
        for i in range(100):
            reduce_expr(Harmonic(2, f"s{i}"))
        assert tensor._harmonic_cached.cache_info().currsize == 64


class TestSymmetrizedEmbed:
    @pytest.mark.parametrize("g1,g2,r", [
        (1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 2, 1), (3, 1, 1), (2, 2, 2),
    ])
    def test_count_matches_formula(self, g1, g2, r):
        total = g1 + g2 + 2 * r
        core = poly_of(
            g1 + g2,
            [TensorTerm(Fraction(1),
                        vecs=tuple([('a', i) for i in range(g1)]
                                   + [('b', g1 + i) for i in range(g2)]))])
        p = symmetrized_embed(core, (g1, g2), r, total)
        expected = (math.factorial(total)
                    // (math.factorial(g1) * math.factorial(g2)
                        * 2 ** r * math.factorial(r)))
        assert len(p.terms) == expected
        assert embed_count(total, (g1, g2), r) == expected


PLACEMENT_SHAPES = [
    (0, (), 0), (2, (), 1), (4, (), 2),          # total rank 0; deltas alone
    (3, (0, 3), 0), (4, (2, 0), 1),              # an empty group
    (4, (2, 2), 0), (6, (1, 1), 2),              # two groups, r = 0 and r = 2
    (5, (1, 2, 2), 0), (7, (1, 2, 2), 1),        # odd parity (1, g1, g2)
    (6, (1, 1, 2), 1), (8, (1, 3, 0), 2),
] + [(l, (l - 2 * r,), r) for l in range(11) for r in range(l // 2 + 1)]


class TestPlacements:
    @pytest.mark.parametrize("total,groups,r", PLACEMENT_SHAPES)
    def test_placements_are_the_distinct_slot_assignments(self, total, groups, r):
        out = tensor._placements(total, groups, r)
        assert len(out) == embed_count(total, groups, r)
        assert len(set(out)) == len(out)
        bounds = list(itertools.accumulate(groups, initial=0))
        for m, pairs in out:
            assert len(m) == sum(groups) and len(pairs) == r
            assert sorted(m + tuple(s for p in pairs for s in p)) == list(range(total))
            for lo, hi in zip(bounds, bounds[1:]):
                assert list(m[lo:hi]) == sorted(m[lo:hi])
            assert all(i < j for i, j in pairs)
            assert list(pairs) == sorted(pairs)

    @pytest.mark.parametrize("build", [
        lambda: tensor._placements(6, (2, 2), 1),
        lambda: symmetrized_embed(harmonic_tensor('a', 2), [2], 1, 4),
        lambda: tensor._harmonic_cached.__wrapped__('a', 4),
    ], ids=["placements", "embedding", "leaf"])
    def test_count_check_raises(self, monkeypatch, build):
        count = tensor.embed_count
        monkeypatch.setattr(tensor, "embed_count", lambda *args: count(*args) + 1)
        with pytest.raises(AssertionError, match="placement count"):
            build()


class TestEvenCoupling:
    def test_kappa_value_two_vectors(self):
        # raw symmetrized sum for two vectors is 2 a_i a_j - (2/3) delta_ij,
        # i.e. kappa * ((3/2) a_i a_j - (1/2) delta_ij) with kappa = 4/3
        assert kappa_even(1, 1, 2) == Fraction(4, 3)

    def test_pair_of_vectors(self):
        # (3/4)(c_i d_j + c_j d_i - (2/3)(c.d) delta_ij)
        p = couple_even(harmonic_tensor('c', 1), harmonic_tensor('d', 1), 2)
        assert coeff_of(p, vecs=(('c', 0), ('d', 1))) == rational_atom(Fraction(3, 4))
        assert coeff_of(p, vecs=(('d', 0), ('c', 1))) == rational_atom(Fraction(3, 4))
        assert coeff_of(p, deltas=((0, 1),),
                        dots=(('c', 'd', 1),)) == rational_atom(Fraction(-1, 2))
        assert len(p.terms) == 3

    def test_rank22_to_2(self):
        p = couple_even(harmonic_tensor('a', 2), harmonic_tensor('b', 2), 2)
        ab = (('a', 'b', 1),)
        assert coeff_of(p, vecs=(('a', 0), ('b', 1)), dots=ab) == rational_atom(Fraction(9, 4))
        assert coeff_of(p, vecs=(('b', 0), ('a', 1)), dots=ab) == rational_atom(Fraction(9, 4))
        assert coeff_of(p, vecs=(('a', 0), ('a', 1))) == rational_atom(Fraction(-3, 2))
        assert coeff_of(p, vecs=(('b', 0), ('b', 1))) == rational_atom(Fraction(-3, 2))
        assert coeff_of(p, deltas=((0, 1),)) == rational_atom(1)
        assert coeff_of(p, deltas=((0, 1),), dots=(('a', 'b', 2),)) == rational_atom(Fraction(-3, 2))

    def test_rank13_to_2(self):
        p = couple_even(harmonic_tensor('c', 1), harmonic_tensor('d', 3), 2)
        cd = (('c', 'd', 1),)
        assert coeff_of(p, vecs=(('d', 0), ('d', 1)), dots=cd) == rational_atom(Fraction(5, 2))
        assert coeff_of(p, vecs=(('c', 0), ('d', 1))) == rational_atom(Fraction(-1, 2))
        assert coeff_of(p, vecs=(('d', 0), ('c', 1))) == rational_atom(Fraction(-1, 2))
        assert coeff_of(p, deltas=((0, 1),), dots=cd) == rational_atom(Fraction(-1, 2))

    @pytest.mark.parametrize("l1,l2,l3", [
        (1, 1, 2), (1, 2, 1), (1, 2, 3), (1, 3, 2), (2, 2, 2), (2, 2, 4),
        (2, 3, 1), (2, 3, 3), (3, 3, 2), (3, 3, 4), (1, 3, 4), (1, 4, 3),
        (2, 4, 2), (2, 4, 4), (3, 4, 1), (3, 4, 3), (4, 4, 2), (4, 4, 4),
    ])
    def test_same_argument_normalization(self, l1, l2, l3):
        # coupling two tensors of the same vector reproduces that vector's tensor
        p = couple_even(harmonic_tensor('a', l1), harmonic_tensor('a', l2), l3)
        assert poly_sub(p, harmonic_tensor('a', l3)).is_zero

    @pytest.mark.parametrize("l1,l2,l3", [
        (1, 1, 2), (1, 2, 3), (2, 2, 2), (2, 3, 3), (3, 3, 2), (2, 2, 4),
        (1, 3, 4), (3, 4, 3), (4, 4, 2), (4, 4, 4),
    ])
    def test_output_symmetric_traceless(self, l1, l2, l3):
        p = couple_even(harmonic_tensor('a', l1), harmonic_tensor('b', l2), l3)
        for i in range(l3):
            for j in range(i + 1, l3):
                assert trace(p, i, j).is_zero
        for i in range(l3 - 1):
            perm = list(range(l3))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            assert poly_sub(p, poly_permute_slots(p, tuple(perm))).is_zero

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            couple_even(harmonic_tensor('a', 2), harmonic_tensor('b', 2), 1)

    def test_triangle_rejected(self):
        with pytest.raises(ValueError):
            couple_even(harmonic_tensor('a', 1), harmonic_tensor('b', 1), 4)


ODD_TRIPLES = [(l1, l2, l3) for l1 in range(1, 9) for l2 in range(l1, 9)
               for l3 in range(1, 4)
               if abs(l1 - l2) <= l3 <= l1 + l2 and (l1 + l2 + l3) % 2]


class TestOddCoupling:
    def test_norm_values(self):
        assert odd_norm(1, 1, 1) == Fraction(1)
        assert odd_norm(2, 2, 1) == Fraction(4, 9)
        assert odd_norm(1, 2, 2) == Fraction(2, 3)
        assert [odd_norm(l, l, 1) for l in range(5, 9)] == [
            Fraction(8, 189), Fraction(32, 1617), Fraction(4, 429),
            Fraction(256, 57915)]

    @pytest.mark.parametrize("l1,l2,l3", ODD_TRIPLES)
    def test_norm_closed_form_matches_probe(self, l1, l2, l3):
        assert odd_norm(l1, l2, l3) == odd_norm_probe(l1, l2, l3)

    def test_pair_of_vectors_gives_cross(self):
        p = couple_odd(harmonic_tensor('a', 1), harmonic_tensor('b', 1), 1)
        assert poly_sub(p, cross_vector('a', 'b')).is_zero

    def test_rank22_to_1(self):
        # (a.b)(a x b)_i
        p = couple_odd(harmonic_tensor('a', 2), harmonic_tensor('b', 2), 1)
        expect = poly_scale(cross_vector('a', 'b'), atom(1))
        expect = poly_of(1, tuple(
            TensorTerm(t.coeff, t.vecs, t.deltas, t.epses,
                       t.dots + (('a', 'b', 1),), t.boxes)
            for t in expect.terms), expect.prefactor)
        assert poly_sub(p, expect).is_zero

    def test_same_argument_vanishes(self):
        p = couple_odd(harmonic_tensor('a', 2), harmonic_tensor('a', 2), 1)
        assert p.is_zero

    @pytest.mark.parametrize("l1,l2,l3", [
        (1, 1, 1), (2, 2, 1), (1, 2, 2), (2, 2, 3), (2, 3, 2), (3, 3, 1),
    ])
    def test_output_symmetric_traceless(self, l1, l2, l3):
        p = couple_odd(harmonic_tensor('a', l1), harmonic_tensor('b', l2), l3)
        for i in range(l3):
            for j in range(i + 1, l3):
                assert trace(p, i, j).is_zero
        for i in range(l3 - 1):
            perm = list(range(l3))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            assert poly_sub(p, poly_permute_slots(p, tuple(perm))).is_zero

    @pytest.mark.parametrize("l1,l2,l3", [(1, 1, 2), (2, 2, 0)])
    def test_parity_mismatch_rejected(self, l1, l2, l3):
        with pytest.raises(ValueError):
            couple_odd(harmonic_tensor('a', l1), harmonic_tensor('b', l2), l3)


class TestContractions:
    def test_legendre_mixed_contraction(self):
        # a{2} fully contracted with b tensor power: P_2(a.b) = (3(a.b)^2 - 1)/2
        p = full_contract(harmonic_tensor('a', 2), vector_power('b', 2))
        assert coeff_of(p, dots=(('a', 'b', 2),)) == rational_atom(Fraction(3, 2))
        assert coeff_of(p) == rational_atom(Fraction(-1, 2))

    def test_partial_contract_rank(self):
        p = contract(harmonic_tensor('a', 3), harmonic_tensor('b', 2), 2)
        assert p.rank == 1

    def test_couple_constant_simple(self):
        assert to_float(couple_constant(1, 1, 2)) == pytest.approx(1.0)


def _called_name(node) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_only_the_terms_view_reads_or_builds_terms():
    """The package holds one model, the grouped form: no code but the
    TensorPoly.terms view reads .terms or builds a TensorTerm."""
    found, views = [], 0
    for path in sorted(Path(tensor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        view = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                and c.name == "TensorPoly" for f in c.body
                if isinstance(f, ast.FunctionDef) and f.name == "terms" for n in ast.walk(f)}
        views += bool(view)
        for node in ast.walk(tree):
            if id(node) in view:
                continue
            if isinstance(node, ast.Attribute) and node.attr == "terms":
                found.append(f"{path.name}:{node.lineno} reads .terms")
            if isinstance(node, ast.Call) and _called_name(node) == "TensorTerm":
                found.append(f"{path.name}:{node.lineno} builds a TensorTerm")
    assert views == 1 and not found

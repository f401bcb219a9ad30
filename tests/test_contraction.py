"""The grouped contraction against the scan-and-fuse reference.

tensor.contract_slots resolves the bonds once per pair of slot signatures,
keeps int numerators and packs each dot monomial into one int;
reference_contraction fuses one bond at a time, term by term, with Fraction
coefficients.  Both must give the same canonical TensorPoly, term for term, on
random tensors whose terms share signatures and dot symbols, and on the cases
that are easy to get wrong: closed delta loops through both factors, an
epsilon chained back to itself, two epsilon-like factors, dot monomials whose
pairs meet at the seam of the two sides, exponents that fill a packed field,
and a call in which one signature pair annihilates and another survives.  The
raw result keeps no empty structure and no zero numerator.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartensor import tensor
from cartensor.coeff import ATOM_ONE, atom
from cartensor.tensor import TensorPoly, TensorTerm, contract_slots, poly_add, poly_scale

from helpers import full_contract, poly_of, poly_permute_slots, scalar_poly
from reference_contraction import _build, _term_to_raw, reference_contract_slots

SYMBOLS = ('a', 'b', 'c', 'd')
EPS3 = poly_of(3, [TensorTerm(Fraction(1), epses=((('f', 0), ('f', 1), ('f', 2)),))])


def _poly(rank, *terms):
    """A canonical poly from terms given as (coeff, vecs, deltas, epses, dots)
    in the reference's raw form over free slots, built by the reference."""
    raws = [{'coeff': Fraction(c), 'vecs': [(s, ('f', i)) for s, i in vecs],
             'deltas': [(('f', i), ('f', j)) for i, j in deltas],
             'epses': [tuple(('f', e) if isinstance(e, int) else ('s', e) for e in ep)
                       for ep in epses],
             'dots': dict(dots)}
            for c, vecs, deltas, epses, dots in terms]
    return _build(rank, raws)


@st.composite
def _raw_terms(draw, rank):
    """A raw term on `rank` free slots: a random mix of deltas, at most one
    epsilon (free and symbol entries, or all symbols: a box) and vectors,
    times dots."""
    slots = draw(st.permutations(range(rank)))
    n_eps = draw(st.integers(0, min(3, rank)))
    eps_slots, rest = list(slots[:n_eps]), list(slots[n_eps:])
    epses = []
    if n_eps or draw(st.booleans()):
        entries = [('f', i) for i in eps_slots]
        entries += [('s', draw(st.sampled_from(SYMBOLS))) for _ in range(3 - n_eps)]
        epses.append(tuple(draw(st.permutations(entries))))
    n_delta = draw(st.integers(0, len(rest) // 2))
    deltas = [(('f', rest[2 * k]), ('f', rest[2 * k + 1])) for k in range(n_delta)]
    vecs = [(draw(st.sampled_from(SYMBOLS)), ('f', i)) for i in rest[2 * n_delta:]]
    return {'vecs': vecs, 'deltas': deltas, 'epses': epses}


@st.composite
def _dots(draw):
    """Dot monomials over the shared symbols, exponents up to 8 per factor."""
    dots = {}
    for s1, s2, e in draw(st.lists(st.tuples(st.sampled_from(SYMBOLS),
                                             st.sampled_from(SYMBOLS),
                                             st.integers(1, 8)), max_size=3)):
        if s1 != s2:
            key = (min(s1, s2), max(s1, s2))
            dots[key] = dots.get(key, 0) + e
    return dots


_prefactors = st.sampled_from([ATOM_ONE, atom(1, 2), atom(1, 3, 0, 1), atom(1, 1, -1)])


@st.composite
def _polys(draw, rank=None):
    """Up to 8 terms on at most 4 tensor shapes, so that several terms share a
    signature and differ in their dots and coefficients; of any rank up to 4
    unless rank is given."""
    rank = draw(st.integers(0, 4)) if rank is None else rank
    shapes = draw(st.lists(_raw_terms(rank), min_size=1, max_size=4))
    raws = [dict(draw(st.sampled_from(shapes)), dots=draw(_dots()),
                 coeff=Fraction(draw(st.integers(-6, 6).filter(bool)),
                                draw(st.integers(1, 6))))
            for _ in range(draw(st.integers(1, 8)))]
    return _build(rank, raws, draw(_prefactors))


@st.composite
def _contractions(draw):
    p1, p2 = draw(_polys()), draw(_polys())
    k = draw(st.integers(0, min(p1.rank, p2.rank)))
    s1 = draw(st.permutations(range(p1.rank)))[:k]
    s2 = draw(st.permutations(range(p2.rank)))[:k]
    return p1, p2, list(zip(s1, s2))


@settings(max_examples=200, deadline=None)
@given(case=_contractions())
def test_contract_slots_matches_reference(case):
    p1, p2, pairs = case
    assert contract_slots(p1, p2, pairs) == reference_contract_slots(p1, p2, pairs)


@settings(max_examples=100, deadline=None)
@given(p=_polys(), data=st.data())
def test_permute_slots_matches_reference(p, data):
    perm = data.draw(st.permutations(range(p.rank)))
    emap = {i: ('f', perm[i]) for i in range(p.rank)}
    expect = _build(p.rank, [_term_to_raw(t, emap) for t in p.terms], p.prefactor)
    assert poly_permute_slots(p, perm) == expect


@settings(max_examples=100, deadline=None)
@given(p=_polys(), data=st.data(),
       c=st.fractions(-6, 6, max_denominator=6).filter(bool))
def test_equal_values_are_equal_polys_on_every_path(p, data, c):
    """Value equality and hashing do not depend on how a poly was built: the
    normal form is reached from any order of addition and any scaling."""
    q = data.draw(_polys(p.rank))
    if not (p.is_zero or q.is_zero):
        q = replace(q, prefactor=p.prefactor)
    s, t = poly_add(p, q), poly_add(q, p)
    assert s == t and hash(s) == hash(t)
    for back in (poly_scale(poly_scale(p, c), 1 / c),
                 poly_scale(poly_scale(p, atom(c, 2)), atom(1 / (2 * c), 2))):
        assert back == p and hash(back) == hash(p)


def _assert_no_zeros(raw):
    """A raw polynomial has no empty structure and no zero numerator."""
    assert all(raw[2].values())
    assert all(all(nums.values()) for nums in raw[2].values())


@settings(max_examples=200, deadline=None)
@given(case=_contractions())
def test_raw_contraction_keeps_no_zeros(case):
    p1, p2, pairs = case
    _assert_no_zeros(tensor._contract_raw(tensor._thaw(p1), tensor._thaw(p2), pairs))


@pytest.mark.parametrize("survivor", [False, True])
def test_raw_contraction_drops_cancelled_terms(survivor):
    """a_i b_j - b_i a_j against delta_ij cancels to zero; with c_i c_j added,
    the constant 1 survives in the same structure as the cancelled (a.b)."""
    terms = [(1, (('a', 0), ('b', 1)), (), (), {}), (-1, (('b', 0), ('a', 1)), (), (), {})]
    if survivor:
        terms.append((1, (('c', 0), ('c', 1)), (), (), {}))
    p1, p2 = _poly(2, *terms), _poly(2, (1, (), ((0, 1),), (), {}))
    raw = tensor._contract_raw(tensor._thaw(p1), tensor._thaw(p2), [(0, 0), (1, 1)])
    _assert_no_zeros(raw)
    assert raw[2] == ({((), (), (), ()): {(): raw[1]}} if survivor else {})


def _check(p1, p2, pairs, value):
    """contract_slots equals the reference and the rank-0 constant value."""
    got = contract_slots(p1, p2, pairs)
    assert got == reference_contract_slots(p1, p2, pairs)
    assert got == scalar_poly(value)


@pytest.mark.parametrize("d1,d2", [
    (((0, 1),), ((0, 1),)),
    (((0, 1), (2, 3)), ((1, 2), (0, 3))),
    (((0, 1), (2, 3), (4, 5)), ((1, 2), (3, 4), (0, 5))),
], ids=["length1", "length2", "length3"])
def test_closed_delta_loop_through_both_factors(d1, d2):
    """Deltas that alternate between the factors close into one loop: a
    trace, factor 3, whatever the loop's length."""
    rank = 2 * len(d1)
    a = _poly(rank, (Fraction(2, 3), (), d1, (), ()))
    b = _poly(rank, (Fraction(5), (), d2, (), ()))
    _check(a, b, [(i, i) for i in range(rank)], Fraction(10))


def test_two_loops_and_a_dot():
    a = _poly(4, (1, (), ((0, 1), (2, 3)), (), ()))
    b = _poly(4, (1, (), ((0, 1), (2, 3)), (), ()))
    _check(a, b, [(i, i) for i in range(4)], 9)
    va = _poly(3, (1, (('a', 0),), ((1, 2),), (), ()))
    vb = _poly(3, (1, (('b', 1),), ((0, 2),), (), ()))
    got = contract_slots(va, vb, [(0, 0), (1, 1), (2, 2)])
    assert got == reference_contract_slots(va, vb, [(0, 0), (1, 1), (2, 2)])
    assert got.terms == (TensorTerm(Fraction(1), dots=(('a', 'b', 1),)),)


def test_epsilon_squared_is_six():
    _check(EPS3, EPS3, [(0, 0), (1, 1), (2, 2)], 6)
    assert full_contract(EPS3, EPS3) == scalar_poly(6)


def test_epsilon_chained_to_itself_vanishes():
    """eps_ijk delta_ij = 0, directly and through a chain of three deltas that
    runs through both factors."""
    delta = _poly(2, (1, (), ((0, 1),), (), ()))
    got = contract_slots(EPS3, delta, [(0, 0), (1, 1)])
    assert got == reference_contract_slots(EPS3, delta, [(0, 0), (1, 1)])
    assert got == TensorPoly(1)
    a = _poly(4, (1, (), ((2, 3),), ((0, 1, 'a'),), ()))
    b = _poly(4, (1, (), ((0, 2), (1, 3)), (), ()))
    pairs = [(i, i) for i in range(4)]
    got = contract_slots(a, b, pairs)
    assert got == reference_contract_slots(a, b, pairs)
    assert got == TensorPoly(0)


def test_box_times_box_is_gram_determinant():
    """box(a,b,c) box(d,e,f) = det of the 3x3 matrix of dots: six terms."""
    b1 = _poly(0, (1, (), (), (('a', 'b', 'c'),), ()))
    b2 = _poly(0, (1, (), (), (('d', 'e', 'f'),), ()))
    got = contract_slots(b1, b2, [])
    assert got == reference_contract_slots(b1, b2, [])
    assert len(got.terms) == 6
    diag = TensorTerm(Fraction(1), dots=(('a', 'd', 1), ('b', 'e', 1), ('c', 'f', 1)))
    assert diag in got.terms


def test_dot_pair_at_the_seam_of_the_two_sides():
    """Side 1's last dot pair is side 2's first: the exponents add, they are
    not two factors of one pair."""
    a = _poly(0, (1, (), (), (), {('a', 'b'): 1, ('c', 'd'): 2}),
                 (3, (), (), (), {('c', 'd'): 3}))
    b = _poly(0, (2, (), (), (), {('c', 'd'): 3, ('d', 'e'): 1}),
                 (5, (), (), (), {('a', 'b'): 4}))
    got = contract_slots(a, b, [])
    assert got == reference_contract_slots(a, b, [])
    assert [t.dots for t in got.terms] == [
        (('a', 'b', 1), ('c', 'd', 5), ('d', 'e', 1)),
        (('a', 'b', 4), ('c', 'd', 3)),
        (('a', 'b', 5), ('c', 'd', 2)),
        (('c', 'd', 6), ('d', 'e', 1)),
    ]


def test_exponent_fills_a_packed_field():
    """(a.b)^8 (a.c) times (a.b)^6 (b.c)^6 through two bonds a.b: exponent 16,
    one more than the sides' largest exponents add up to and one past what four
    bits hold, in the lowest field, next to a field a carry out of it would
    corrupt."""
    a = _poly(2, (1, (('a', 0), ('a', 1)), (), (), {('a', 'b'): 8, ('a', 'c'): 1}))
    b = _poly(2, (1, (('b', 0), ('b', 1)), (), (), {('a', 'b'): 6, ('b', 'c'): 6}))
    got = contract_slots(a, b, [(0, 0), (1, 1)])
    assert got == reference_contract_slots(a, b, [(0, 0), (1, 1)])
    assert got.terms == (TensorTerm(Fraction(1), dots=(('a', 'b', 16), ('a', 'c', 1),
                                                       ('b', 'c', 6))),)


def test_one_signature_pair_annihilates_and_another_survives():
    """eps_ija delta_ij = 0 in the same call as b_i c_j delta_ij = (b.c) and
    the products with d_i e_j."""
    a = _poly(2, (2, (), (), ((0, 1, 'a'),), {('a', 'b'): 1}),
                 (1, (), (), ((0, 1, 'a'),), {('b', 'c'): 2}),
                 (3, (('b', 0), ('c', 1)), (), (), {}))
    b = _poly(2, (1, (), ((0, 1),), (), {('a', 'b'): 1}),
                 (5, (('d', 0), ('e', 1)), (), (), {}))
    pairs = [(0, 0), (1, 1)]
    got = contract_slots(a, b, pairs)
    assert got == reference_contract_slots(a, b, pairs)
    assert got == _poly(0, (3, (), (), (), {('a', 'b'): 1, ('b', 'c'): 1}),
                        (10, (), (), (('d', 'e', 'a'),), {('a', 'b'): 1}),
                        (5, (), (), (('d', 'e', 'a'),), {('b', 'c'): 2}),
                        (15, (), (), (), {('b', 'd'): 1, ('c', 'e'): 1}))


def test_duplicate_slot_rejected():
    with pytest.raises(ValueError):
        contract_slots(EPS3, EPS3, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        contract_slots(EPS3, EPS3, [(0, 0), (1, 0)])


def test_slot_out_of_range_rejected():
    with pytest.raises(ValueError):
        contract_slots(EPS3, EPS3, [(3, 0)])
    with pytest.raises(ValueError):
        contract_slots(EPS3, EPS3, [(-1, 0)])


def test_two_epsilon_like_factors_in_one_term_rejected():
    bad = poly_of(1, [TensorTerm(Fraction(1), epses=((('f', 0), ('s', 'a'), ('s', 'b')),),
                                 boxes=(('c', 'd', 'e'),))])
    with pytest.raises(AssertionError, match="multiple epsilon-like"):
        contract_slots(bad, scalar_poly(), [])
    with pytest.raises(AssertionError, match="multiple epsilon-like"):
        poly_permute_slots(bad, [0])


def test_unresolved_bond_rejected_at_freeze():
    with pytest.raises(AssertionError, match="unresolved bond"):
        tensor._relabel(((), (), ((('f', 0), ('b', 0), ('s', 'a')),), ()), [0])


@pytest.mark.parametrize("perm", [[0, 0], [0, 5], {0: 1}, {0: 1, 5: 0}, [1, 0, 2], [0], []])
def test_permute_slots_rejects_a_non_permutation(perm):
    p = _poly(2, (1, (('a', 0), ('b', 1)), (), (), {}), (2, (), ((0, 1),), (), {}))
    with pytest.raises(ValueError, match="not a permutation"):
        poly_permute_slots(p, perm)


def test_permute_slots_accepts_a_mapping():
    p = _poly(2, (1, (('a', 0), ('b', 1)), (), (), {}))
    assert poly_permute_slots(p, {0: 1, 1: 0}) == poly_permute_slots(p, [1, 0])

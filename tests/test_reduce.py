"""Unit tests for the reduction pipeline: per-step scalar factors, expression
validation, and assembly of full reductions."""

from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from cartensor import reduce, tensor
from cartensor.coeff import atom, atom_canonical, atom_mul
from cartensor.oracle import verify
from cartensor.reduce import (
    Couple,
    Harmonic,
    expr_degree_sum,
    expr_leaves,
    expr_rank,
    q_factor,
    r_factor,
    reduce_expr,
    s_factor,
    validate_expr,
)
from cartensor.tensor import couple_even, couple_odd, harmonic_tensor, poly_scale

from helpers import (contract, cross_vector, poly_sub, reduce_pair_identities, rho,
                     term_atom, traceless_contract)


def _exact(a, rat, radicand=1, pi_half=0):
    assert atom_canonical(a) == atom_canonical(
        atom(Fraction(rat), Fraction(radicand), pi_half))


class TestExprHelpers:
    def test_rank_and_leaves(self):
        e = Couple(Harmonic(2, 'a'), Couple(Harmonic(1, 'b'), Harmonic(1, 'c'), 2), 0)
        assert expr_rank(e) == 0
        assert [leaf.v for leaf in expr_leaves(e)] == ['a', 'b', 'c']
        assert expr_degree_sum(e) == 4

    def test_validate_duplicate_symbol(self):
        e = Couple(Harmonic(1, 'a'), Harmonic(1, 'a'), 2)
        with pytest.raises(ValueError, match="more than once"):
            validate_expr(e)

    def test_validate_triangle(self):
        e = Couple(Harmonic(1, 'a'), Harmonic(1, 'b'), 5)
        with pytest.raises(ValueError, match="triangle"):
            validate_expr(e)

    def test_validate_nested_triangle(self):
        inner = Couple(Harmonic(1, 'a'), Harmonic(1, 'b'), 2)
        e = Couple(inner, Harmonic(1, 'c'), 0)  # 2 x 1 -> 0 is invalid
        with pytest.raises(ValueError, match="triangle"):
            validate_expr(e)


class TestScalarFactors:
    def test_q_values(self):
        # q[1,1,2] = (3 sqrt5 / sqrt(4 pi)) |3j| = sqrt(3/10)/sqrt(pi)
        _exact(q_factor(1, 1, 2), Fraction(1, 10), 30, -1)
        # q[2,2,2] = (5/(2 sqrt(pi))) sqrt(2/35) = sqrt(5/14)/sqrt(pi)
        _exact(q_factor(2, 2, 2), Fraction(1, 14), 70, -1)
        # q[1,3,2] = (sqrt21/(2 sqrt(pi))) sqrt(3/35) = 3/(2 sqrt5 sqrt(pi))
        _exact(q_factor(1, 3, 2), Fraction(3, 10), 5, -1)

    def test_q_symmetric_in_first_two(self):
        assert atom_canonical(q_factor(1, 3, 2)) == atom_canonical(q_factor(3, 1, 2))

    def test_r_values(self):
        # r[1,1,1] = sqrt(3/2)/(2 sqrt(pi))
        _exact(r_factor(1, 1, 1), Fraction(1, 4), 6, -1)
        # r[2,2,1] = sqrt(15/2)/(2 sqrt(pi))
        _exact(r_factor(2, 2, 1), Fraction(1, 4), 30, -1)

    @pytest.mark.parametrize("factor,ls", [(q_factor, (2, 2, 2)), (r_factor, (2, 2, 1))],
                             ids=["q", "r"])
    def test_forms_cross_check(self, monkeypatch, factor, ls):
        """A 3j symbol off by a factor of 2 makes the two forms disagree."""
        exact = reduce.three_j
        monkeypatch.setattr(reduce, "three_j", lambda *args: atom_mul(atom(2), exact(*args)))
        q_factor.cache_clear()
        r_factor.cache_clear()
        try:
            with pytest.raises(AssertionError,
                               match=rf"{factor.__name__} forms disagree at \({ls[0]},{ls[1]},{ls[2]}\)"):
                factor(*ls)
        finally:
            q_factor.cache_clear()
            r_factor.cache_clear()

    def test_s_values(self):
        _exact(s_factor(1), Fraction(1, 4), 3, -2)
        _exact(s_factor(2), Fraction(1, 6), 5, -2)

    def test_rho_values(self):
        # rho(l) = sqrt(2l+1) sqrt(l!/(2l-1)!!) / sqrt(4 pi)
        _exact(rho(1), Fraction(1, 2), 3, -1)
        _exact(rho(2), Fraction(1, 6), 30, -1)

    def test_q_rejects_odd_parity(self):
        with pytest.raises(ValueError):
            q_factor(1, 1, 1)

    def test_r_rejects_even_parity(self):
        with pytest.raises(ValueError):
            r_factor(1, 1, 2)

    def test_chain_product_for_fourfold_coupling(self):
        # S[2] q[2,2,2] q[1,3,2] = (1/4) sqrt(5/14) / pi^2
        prod = atom_mul(atom_mul(s_factor(2), q_factor(2, 2, 2)), q_factor(1, 3, 2))
        _exact(prod, Fraction(1, 4), Fraction(5, 14), -4)


class TestReduce:
    def test_bare_harmonic(self):
        res = reduce_expr(Harmonic(2, 'a'))
        assert res.rank == 2
        assert not res.true_scalar
        assert res.factor_trace == ()
        assert poly_sub(res.poly, harmonic_tensor('a', 2)).is_zero

    def test_scalar_pair(self):
        # sqrt(3)/(4 pi) (a.b)
        res = reduce_expr(Couple(Harmonic(1, 'a'), Harmonic(1, 'b'), 0))
        assert res.true_scalar
        assert res.parity == "even"
        assert res.rank == 0
        assert len(res.poly.terms) == 1
        t = res.poly.terms[0]
        assert t.dots == (('a', 'b', 1),)
        assert term_atom(res.poly, t) == atom(Fraction(1, 4), 3, -2)
        assert [label for label, _ in res.factor_trace] == ["S[1]"]

    def test_odd_scalar_triple(self):
        # [[Y1(a) x Y1(b)]^1 x Y1(c)]^0 is proportional to box(a,b,c)
        res = reduce_expr(
            Couple(Couple(Harmonic(1, 'a'), Harmonic(1, 'b'), 1), Harmonic(1, 'c'), 0))
        assert res.parity == "odd"
        assert len(res.poly.terms) == 1
        t = res.poly.terms[0]
        assert t.boxes == (('a', 'b', 'c'),)
        assert t.dots == ()
        # r[1,1,1] * S[1] = sqrt(3/2) sqrt3 /(8 pi^2) = 3/(8 sqrt2 pi^2)
        assert term_atom(res.poly, t) == \
            atom_canonical(atom_mul(r_factor(1, 1, 1), s_factor(1)))

    def test_rank_one_odd_pair(self):
        # [Y2(a) x Y2(b)]^1 = r[2,2,1] (a.b) (a x b)
        res = reduce_expr(Couple(Harmonic(2, 'a'), Harmonic(2, 'b'), 1))
        assert res.rank == 1
        assert res.parity == "odd"
        assert not res.true_scalar
        assert len(res.poly.terms) == 1
        t = res.poly.terms[0]
        assert t.dots == (('a', 'b', 1),)
        assert t.epses == cross_vector('a', 'b').terms[0].epses
        assert term_atom(res.poly, t) == atom_canonical(r_factor(2, 2, 1))
        assert [label for label, _ in res.factor_trace] == ["r[2,2,1]"]

    def test_factor_trace_order(self):
        e = Couple(Couple(Harmonic(2, 'a'), Harmonic(2, 'b'), 2),
                   Couple(Harmonic(1, 'c'), Harmonic(3, 'd'), 2), 0)
        res = reduce_expr(e)
        assert [label for label, _ in res.factor_trace] == \
            ["q[2,2,2]", "q[1,3,2]", "S[2]"]

    def test_reduce_validates(self):
        with pytest.raises(ValueError):
            reduce_expr(Couple(Harmonic(1, 'a'), Harmonic(1, 'a'), 0))

    def test_root_zero_via_nonzero_interior(self):
        # interior couplings may exceed the root rank
        e = Couple(Couple(Harmonic(2, 'a'), Harmonic(2, 'b'), 4),
                   Couple(Harmonic(2, 'c'), Harmonic(2, 'd'), 4), 0)
        res = reduce_expr(e)
        assert res.rank == 0
        assert res.true_scalar


class TestPairIdentities:
    @pytest.mark.parametrize("l", range(1, 6))
    def test_equal_degrees(self, l):
        rep = reduce_pair_identities(l, l)
        assert rep["form"] == "equal"
        assert rep["pass"]
        assert rep["max_abs_err"] <= 1e-10

    @pytest.mark.parametrize("l", range(1, 6))
    def test_consecutive_degrees(self, l):
        rep = reduce_pair_identities(l - 1, l)
        assert rep["form"] == "consecutive"
        assert rep["pass"]
        assert rep["max_abs_err"] <= 1e-10

    def test_unsupported_pair_rejected(self):
        with pytest.raises(ValueError):
            reduce_pair_identities(1, 3)


# ---------------------------------------------------------------------------
# Property test: exchange symmetry of the coupling
# ---------------------------------------------------------------------------

def _tree(draw, leaves, names, degrees=(0, 2)):
    """A random valid coupling tree with the given number of leaves and range
    of leaf degrees, each coupling rank drawn inside the triangle of its
    children."""
    if leaves == 1:
        return Harmonic(draw(st.integers(*degrees)), next(names))
    k = draw(st.integers(1, leaves - 1))
    left = _tree(draw, k, names, degrees)
    right = _tree(draw, leaves - k, names, degrees)
    l1, l2 = expr_rank(left), expr_rank(right)
    return Couple(left, right, draw(st.integers(abs(l1 - l2), l1 + l2)))


@settings(deadline=None, max_examples=100,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(st.data())
def test_exchange_symmetry(data):
    """[A x B][L] = (-1)^(l1+l2-L) [B x A][L], as equal exact polynomials."""
    root = _tree(data.draw, data.draw(st.integers(2, 4)), iter("abcd"))
    l1, l2, L = expr_rank(root.left), expr_rank(root.right), root.L
    swapped = reduce_expr(Couple(root.right, root.left, L)).poly
    assert reduce_expr(root).poly == poly_scale(swapped, (-1) ** (l1 + l2 - L))


# ---------------------------------------------------------------------------
# Property test: trace pruning leaves every contraction of STF tensors exact
# ---------------------------------------------------------------------------

def test_traceless_contract_keeps_the_trace_term():
    """Y[2](a).Y[2](b) = 9/4 (a.b)^2 - 3/4: the constant comes from the delta
    of either side, so pruning both sides would drop it."""
    A, B = harmonic_tensor('a', 2), harmonic_tensor('b', 2)
    pruned = traceless_contract(A, B, 2)
    assert pruned == contract(A, B, 2)
    assert {t.dots: t.coeff for t in pruned.terms} == \
        {(('a', 'b', 2),): Fraction(9, 4), (): Fraction(-3, 4)}


@settings(deadline=None, max_examples=60,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(st.data())
def test_traceless_contract_equals_contract(data):
    """For STF A and B, reductions of random trees on disjoint vectors,
    pruning the terms that meet a trace changes no contraction."""
    left = _tree(data.draw, data.draw(st.integers(1, 2)), iter("ab"), (1, 3))
    right = _tree(data.draw, data.draw(st.integers(1, 2)), iter("cd"), (1, 3))
    # Rank 4 at most keeps the unpruned side to a few thousand products.
    assume(expr_rank(left) <= 4 and expr_rank(right) <= 4)
    A, B = reduce_expr(left).poly, reduce_expr(right).poly
    for k in range(min(A.rank, B.rank) + 1):
        assert traceless_contract(A, B, k) == contract(A, B, k)


@pytest.fixture
def merged_sides(monkeypatch):
    """A list that records the orbit argument of each tensor._contract_raw
    call: the side whose structures were merged by orbit, or 0."""
    calls = []
    contract_raw = tensor._contract_raw

    def recorded(x, y, pairs, orbit=0):
        calls.append(orbit)
        return contract_raw(x, y, pairs, orbit)

    monkeypatch.setattr(tensor, "_contract_raw", recorded)
    return calls


def _merged_exactly(A, B, k, side, calls) -> bool:
    """traceless_contract(A, B, k), with side merged by orbit, equals the
    contraction that neither prunes nor merges."""
    calls.clear()
    merged = traceless_contract(A, B, k)
    assert calls == [side]
    pruned_nothing = contract(A, B, k)
    assert calls == [side, 0]
    return merged == pruned_nothing


@pytest.mark.parametrize("l1,l2", [(l1, l2) for l1 in range(2, 8) for l2 in range(2, 8)])
def test_orbit_merge_is_exact_on_harmonic_pairs(merged_sides, l1, l2):
    """Merging the larger side's structures by orbit of the k >= 2 contracted
    slots changes no contraction of two leaves, whose contracted slots carry
    vectors and inner deltas."""
    A, B = harmonic_tensor('a', l1), harmonic_tensor('b', l2)
    for k in range(2, min(l1, l2) + 1):
        assert _merged_exactly(A, B, k, 1 if l1 >= l2 else 2, merged_sides)


def _eps_on_contracted_slot(P, slots) -> bool:
    return any(e[0] == 'f' and e[1] in slots
               for (_, _, epses, _), _ in P.groups for ep in epses for e in ep)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
@pytest.mark.parametrize("odd_first", [True, False])
def test_orbit_merge_is_exact_on_an_odd_node(merged_sides, l, odd_first):
    """An odd node merged by orbit: its epsilon sits on a contracted slot, so
    the orbit signature renumbers bonds inside the epsilon too."""
    odd, leaf = couple_odd(harmonic_tensor('a', 2), harmonic_tensor('b', 3), 4), \
        harmonic_tensor('c', l)
    for k in range(2, min(l, 4) + 1):
        slots = range(4 - k, 4) if odd_first else range(k)
        assert _eps_on_contracted_slot(odd, slots)
        A, B = (odd, leaf) if odd_first else (leaf, odd)
        assert _merged_exactly(A, B, k, 1 if odd_first else 2, merged_sides)


@pytest.mark.parametrize("node_first", [True, False])
@pytest.mark.parametrize("odd,l", [(False, 4), (False, 5), (True, 5)])
def test_orbit_merge_is_exact_on_a_leaf_with_inner_deltas(merged_sides, odd, l, node_first):
    """A degree >= 4 leaf merged by orbit against a rank-3 node: its deltas
    that join two contracted slots are renumbered pair by pair."""
    a, b = harmonic_tensor('a', 1 + odd), harmonic_tensor('b', 2)
    node = couple_odd(a, b, 3) if odd else couple_even(a, b, 3)
    leaf = harmonic_tensor('c', l)
    for k in (2, 3):
        A, B = (node, leaf) if node_first else (leaf, node)
        assert _merged_exactly(A, B, k, 2 if node_first else 1, merged_sides)


# ---------------------------------------------------------------------------
# Property test: random valid trees against the oracle
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=100,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(st.data())
def test_random_trees_match_oracle(data):
    """Trees of 2 to 4 leaves, degrees 1..3 and root rank <= 2 agree with
    direct spherical evaluation at 1e-10."""
    leaves = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, leaves - 1))
    names = iter("abcd")
    left = _tree(data.draw, k, names, (1, 3))
    right = _tree(data.draw, leaves - k, names, (1, 3))
    l1, l2 = expr_rank(left), expr_rank(right)
    assume(abs(l1 - l2) <= 2)
    root = Couple(left, right, data.draw(st.integers(abs(l1 - l2), min(l1 + l2, 2))))
    rep = verify(root, n_samples=50, tol=1e-10, result=reduce_expr(root))
    assert rep.passed, rep.to_json()

"""A coupling node is built in one accumulator and frozen once.

couple_even and couple_odd contract, hook the epsilon, embed and sum over r
on raw int numerators, with no TensorPoly in between.  Here they must equal,
term order and prefactor included, helpers.reference_coupling_sum, which
builds the same sum one public operation at a time; a count of
tensor._from_numerators pins that each node, and each harmonic leaf, is frozen
exactly once; and a count of tensor._relabel pins that the embedding relabels
each structure of its core once per distribution, not once per term.
"""

from fractions import Fraction

import pytest

from cartensor import parse, reduce_expr, tensor
from cartensor.coeff import ATOM_ONE, atom
from cartensor.reduce import Couple, Harmonic, q_factor, r_factor
from cartensor.tensor import (couple_even, couple_odd, embed_count, harmonic_tensor,
                              kappa_even, odd_norm, symmetrized_embed)

from helpers import reference_coupling_sum, traceless_contract

TRIPLES = [(l1, l2, l3) for l1 in range(5) for l2 in range(5)
           for l3 in range(abs(l1 - l2), l1 + l2 + 1)]


def _coupled(A, B, l3, scale=ATOM_ONE):
    """(couple_even or couple_odd of A and B, the reference sum) by parity."""
    l1, l2 = A.rank, B.rank
    if (l1 + l2 + l3) % 2:
        return (couple_odd(A, B, l3, scale),
                reference_coupling_sum(A, B, l3, 1, odd_norm(l1, l2, l3), scale))
    return (couple_even(A, B, l3, scale),
            reference_coupling_sum(A, B, l3, 0, 1 / kappa_even(l1, l2, l3), scale))


@pytest.mark.parametrize("l1,l2,l3", TRIPLES)
def test_harmonic_pair_matches_reference(l1, l2, l3):
    got, want = _coupled(harmonic_tensor('a', l1), harmonic_tensor('b', l2), l3)
    assert got == want


@pytest.mark.parametrize("l1,l2,l3", TRIPLES)
def test_same_symbol_pair_matches_reference(l1, l2, l3):
    got, want = _coupled(harmonic_tensor('a', l1), harmonic_tensor('a', l2), l3)
    assert got == want


def test_stf_children_with_irrational_prefactors_match_reference():
    h = harmonic_tensor
    even = couple_even(h('a', 2), h('b', 2), 2, q_factor(2, 2, 2))
    odd = couple_odd(h('c', 2), h('d', 1), 2, r_factor(2, 1, 2))
    assert even.prefactor != ATOM_ONE and odd.prefactor != ATOM_ONE
    for A, B, l3 in [(even, h('c', 1), 1), (even, h('c', 1), 2), (even, h('c', 3), 3),
                     (even, odd, 0), (even, odd, 1), (even, odd, 3), (odd, even, 4)]:
        got, want = _coupled(A, B, l3, atom(Fraction(-3, 7), 5, -1))
        assert not got.is_zero
        assert got == want


@pytest.mark.parametrize("l1,l2,l3", [(2, 2, 2), (1, 2, 2), (3, 2, 4), (2, 3, 2)])
def test_node_scale_matches_reference(l1, l2, l3):
    scale = (r_factor if (l1 + l2 + l3) % 2 else q_factor)(l1, l2, l3)
    got, want = _coupled(harmonic_tensor('a', l1), harmonic_tensor('b', l2), l3, scale)
    assert got == want


def test_zero_r_piece_matches_reference():
    # (a x b) . a = 0, so the r = 1 piece of coupling a x b with a is zero.
    cross = couple_odd(harmonic_tensor('a', 1), harmonic_tensor('b', 1), 1)
    a = harmonic_tensor('a', 1)
    assert traceless_contract(cross, a, 1).is_zero
    got, want = _coupled(cross, a, 2)
    assert not got.is_zero
    assert got == want


@pytest.fixture
def freezes(monkeypatch):
    """A list that records each tensor._from_numerators call by its rank."""
    calls = []
    freeze = tensor._from_numerators

    def counted(rank, *args):
        calls.append(rank)
        return freeze(rank, *args)

    monkeypatch.setattr(tensor, "_from_numerators", counted)
    return calls


@pytest.mark.parametrize("l1,l2,l3", [(2, 2, 2), (2, 2, 1), (3, 4, 6), (4, 4, 4)])
def test_one_freeze_per_coupling(freezes, l1, l2, l3):
    A, B = harmonic_tensor('a', l1), harmonic_tensor('b', l2)
    couple = couple_odd if (l1 + l2 + l3) % 2 else couple_even
    couple(A, B, l3)
    assert freezes == [l3]


def _nodes_and_leaves(expr) -> tuple:
    if isinstance(expr, Harmonic):
        return 0, {(expr.v, expr.l)}
    n1, s1 = _nodes_and_leaves(expr.left)
    n2, s2 = _nodes_and_leaves(expr.right)
    return n1 + n2 + 1, s1 | s2


@pytest.mark.parametrize("text", [
    "[[Y[2](a) x Y[1](b)][2] x [Y[3](c) x Y[1](d)][2]][0]",
    "[[Y[2](a) x Y[2](b)][1] x Y[2](c)][2]",
    "[[[Y[3](a) x Y[2](b)][3] x Y[1](c)][3] x [Y[2](d) x Y[2](e)][2]][1]",
])
def test_one_freeze_per_node_and_leaf(freezes, text):
    expr = parse(text)
    assert isinstance(expr, Couple)
    nodes, leaves = _nodes_and_leaves(expr)
    tensor._harmonic_cached.cache_clear()
    reduce_expr(expr)
    assert len(freezes) == nodes + len(leaves)


@pytest.fixture
def relabels(monkeypatch):
    """A list that records each tensor._relabel call."""
    calls = []
    relabel = tensor._relabel

    def counted(struct, *args):
        calls.append(struct)
        return relabel(struct, *args)

    monkeypatch.setattr(tensor, "_relabel", counted)
    return calls


def _sizes(raw) -> tuple:
    """(structures, terms) of a raw polynomial."""
    return len(raw[2]), sum(map(len, raw[2].values()))


def test_embedding_relabels_once_per_structure_and_distribution(relabels):
    core = couple_even(harmonic_tensor('a', 3), harmonic_tensor('b', 3), 4)
    structs, terms = _sizes(tensor._thaw(core))
    assert structs < terms
    relabels.clear()
    symmetrized_embed(core, [4], 1, 6)
    assert len(relabels) == structs * embed_count(6, [4], 1)


def test_coupling_node_relabels_once_per_structure_and_distribution(relabels):
    A = couple_even(harmonic_tensor('a', 3), harmonic_tensor('b', 3), 4)
    B = harmonic_tensor('c', 2)
    l1, l2, l3 = 4, 2, 4
    k = (l1 + l2 - l3) // 2
    want = per_term = 0
    for r in range(min(l1, l2) - k + 1):
        core = tensor._traceless_raw(tensor._thaw(A), tensor._thaw(B), k + r)
        structs, terms = _sizes(core)
        n = embed_count(l3, [l1 - k - r, l2 - k - r], r)
        want += structs * n
        per_term += terms * n
    assert want < per_term
    relabels.clear()
    couple_even(A, B, l3)
    assert len(relabels) == want


@pytest.fixture
def resolves(monkeypatch):
    """A list that records each tensor._resolve call."""
    calls = []
    resolve = tensor._resolve

    def counted(sig1, sig2, nb):
        calls.append(nb)
        return resolve(sig1, sig2, nb)

    monkeypatch.setattr(tensor, "_resolve", counted)
    return calls


@pytest.mark.parametrize("l", range(2, 9))
def test_full_contraction_resolves_once_per_orbit(resolves, l):
    """[Y[l](a) x Y[l](b)][0] keeps b's one unpruned structure and merges a's
    structures into one orbit per delta count, so it resolves l//2 + 1
    signature pairs, not one per structure of a."""
    reduce_expr(parse(f"[Y[{l}](a) x Y[{l}](b)][0]"))
    assert len(resolves) == l // 2 + 1


def test_rank_one_coupling_resolves_few_signature_pairs(resolves):
    """[Y[6](a) x Y[6](b)][1] resolves 6 orbits of a against 6 pruned
    structures of b, and the epsilon hook's 5: 41 pairs, against 461 when
    every structure of a resolves on its own."""
    reduce_expr(parse("[Y[6](a) x Y[6](b)][1]"))
    assert len(resolves) <= 60


def test_nested_coupling_resolves_few_signature_pairs(resolves):
    """At the root of [[[Y[2](a) x Y[2](b)][4] x Y[2](c)][6] x Y[8](d)][2],
    the rank-6 node's 1,320 structures are merged by orbit against the
    leaf's 764 with their traces dropped: 629 signature pairs in all.
    Merging the leaf instead, against the node's 90 structures without a
    trace, resolves 1,197."""
    reduce_expr(parse("[[[Y[2](a) x Y[2](b)][4] x Y[2](c)][6] x Y[8](d)][2]"))
    assert len(resolves) <= 700


@pytest.fixture
def contract_raw_args(monkeypatch):
    """A list that records the arguments of each tensor._contract_raw call."""
    calls = []
    contract_raw = tensor._contract_raw

    def recorded(x, y, pairs, orbit=0):
        calls.append((x, y, pairs, orbit))
        return contract_raw(x, y, pairs, orbit)

    monkeypatch.setattr(tensor, "_contract_raw", recorded)
    return calls


@pytest.mark.parametrize("k", [0, 1])
def test_few_contracted_slots_read_both_factors_whole(contract_raw_args, k):
    """On k <= 1 contracted slots no delta joins two of them and no orbit has
    two members, so _traceless_raw passes both raw factors on as they are,
    with nothing to merge or drop."""
    A = couple_even(harmonic_tensor('a', 2), harmonic_tensor('b', 2), 2)
    a, b = tensor._thaw(A), tensor._thaw(harmonic_tensor('c', 3))
    contract_raw_args.clear()
    tensor._traceless_raw(a, b, k)
    [(x, y, _, orbit)] = contract_raw_args
    assert x is a and y is b and orbit == 0

"""Symbolic Cartesian tensor algebra over unit-vector symbols.

A TensorPoly of rank n is one exact prefactor (a CoeffAtom) times a sum of
TensorTerm monomials carrying n free slots.  Each term is a product of
  * a rational coefficient (Fraction),
  * vector factors  v_i        (a symbol's component at a free slot),
  * delta factors   delta_ij   (Kronecker delta joining two free slots),
  * at most one epsilon factor eps(e1,e2,e3) whose entries are free slots or
    symbols (a fully symbol-saturated epsilon is stored as a box product),
  * a scalar monomial: dot products (v.w)^p and box products v.(w x u).

All vectors are unit vectors, so (v.v) = 1 and never appears.  Contraction is
exact: bonds between slots are fused through delta/vector/epsilon factors, and
any term left with two or more epsilon-like factors (epsilon or box) is reduced
with the 3x3 determinant identity

    eps_ijk eps_lmn = det [[d_il, d_im, d_in],
                           [d_jl, d_jm, d_jn],
                           [d_kl, d_km, d_kn]]

which uniformly covers shared-index pairs, box*box Gram determinants, and mixed
epsilon*box products.  Canonical terms therefore carry at most one epsilon-like
factor, and rank-0 results are polynomials in dots and (for odd parity) boxes.

The prefactor is a canonical atom with rat == 1 (ATOM_ONE for the zero
polynomial), so equal values are equal TensorPolys.  Only the prefactor is ever
irrational: products multiply the two prefactors once and move the rational
part of the product (a gcd of radicands, the sign of i**2) into the terms.

The three higher-level constructions are:
  * harmonic_tensor(v, l): the symmetric traceless tensor with leading term
    (2l-1)!!/l! v...v, normalized so that contracting with u...u gives P_l(v.u);
  * couple_even(A, B, l3): the unique symmetric traceless combination of A, B
    with rank l3 when l1+l2-l3 is even, normalized so couple_even of
    harmonic_tensor(a,l1), harmonic_tensor(a,l2) returns harmonic_tensor(a,l3);
  * couple_odd(A, B, l3): the epsilon-bearing counterpart for odd l1+l2-l3,
    normalized so the same-argument slope matches the cross-product convention
    (for (2,2,1): (a.b)(a x b)).

Wherever both factors of a contraction are symmetric traceless (the children
of a coupling node), traceless_contract prunes before the product loop: a term
whose delta joins two contracted slots meets a trace of the other factor and
so sums to exactly zero over it.  The rule holds for one side at a time only,
since it relies on the other side keeping all its terms; contract,
contract_slots and full_contract never prune, as they also serve non-STF
factors such as vector_power.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coeff import (ATOM_ONE, CoeffAtom, atom, atom_mul, double_factorial,
                    factorial)

# Entries inside factors: ('f', slot) free slot, ('s', sym) symbol,
# ('b', bond) transient bond during contraction.
Entry = tuple


@dataclass(frozen=True)
class VectorSymbol:
    """A named unit vector."""
    name: str

    def __str__(self) -> str:
        return self.name


def _sym_name(v) -> str:
    return v.name if isinstance(v, VectorSymbol) else str(v)


# ---------------------------------------------------------------------------
# Canonical term / poly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorTerm:
    coeff: Fraction
    vecs: tuple = ()      # ((sym, slot), ...) sorted by slot
    deltas: tuple = ()    # ((i, j), ...) i<j, sorted
    epses: tuple = ()     # ((e1,e2,e3), ...) canonical entry order; <= 1
    dots: tuple = ()      # ((s1, s2, exp), ...) s1<s2, sorted
    boxes: tuple = ()     # ((s1, s2, s3), ...) sorted triple; <= 1

    @property
    def key(self):
        return (self.vecs, self.deltas, self.epses, self.dots, self.boxes)


@dataclass(frozen=True)
class TensorPoly:
    """prefactor * sum of terms; see the module docstring for the normal form."""
    rank: int
    terms: tuple = ()
    prefactor: CoeffAtom = ATOM_ONE

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def term_atom(self, t: TensorTerm) -> CoeffAtom:
        """The exact coefficient of term t, prefactor * t.coeff, as a canonical atom."""
        p = self.prefactor
        return CoeffAtom(t.coeff, p.radicand, p.pi_half, p.i_pow)

    def symbols(self) -> tuple:
        syms = set()
        for t in self.terms:
            syms.update(s for s, _ in t.vecs)
            for s1, s2, _ in t.dots:
                syms.update((s1, s2))
            for b in t.boxes:
                syms.update(b)
            for e in t.epses:
                syms.update(x[1] for x in e if x[0] == 's')
        return tuple(sorted(syms))


def _shape(a: CoeffAtom) -> CoeffAtom:
    """The canonical atom a with its rational part replaced by 1."""
    return CoeffAtom(Fraction(1), a.radicand, a.pi_half, a.i_pow)


def _merge_terms(rank: int, terms, factor: CoeffAtom = ATOM_ONE) -> TensorPoly:
    """factor * (terms, summed by monomial); factor is a canonical atom."""
    acc: dict = {}
    for t in terms:
        k = t.key
        acc[k] = acc[k] + t.coeff if k in acc else t.coeff
    rat = factor.rat
    out = tuple([TensorTerm(c * rat if rat != 1 else c, *k)
                 for k, c in sorted(acc.items()) if c])
    if not out:
        return TensorPoly(rank)
    return TensorPoly(rank, out, _shape(factor))


# ---------------------------------------------------------------------------
# Raw (mutable) terms used during contraction
# ---------------------------------------------------------------------------
# raw = {'coeff': Fraction, 'vecs': [(sym, entry)], 'deltas': [(e,e)],
#        'epses': [(e,e,e)], 'dots': {(s1,s2): exp}}
# Boxes live as all-symbol epsilons until freezing.

def _term_to_raw(t: TensorTerm, emap=None) -> dict:
    m = (lambda i: emap[i]) if emap is not None else (lambda i: ('f', i))
    epses = [tuple(m(e[1]) if e[0] == 'f' else e for e in ep) for ep in t.epses]
    epses += [tuple(('s', s) for s in b) for b in t.boxes]
    return {
        'coeff': t.coeff,
        'vecs': [(s, m(i)) for s, i in t.vecs],
        'deltas': [(m(i), m(j)) for i, j in t.deltas],
        'epses': epses,
        'dots': {(s1, s2): e for s1, s2, e in t.dots},
    }


def _merge_raws(r1: dict, r2: dict) -> dict:
    dots = dict(r1['dots'])
    for k, e in r2['dots'].items():
        dots[k] = dots.get(k, 0) + e
    return {
        'coeff': r1['coeff'] * r2['coeff'],
        'vecs': r1['vecs'] + r2['vecs'],
        'deltas': r1['deltas'] + r2['deltas'],
        'epses': r1['epses'] + r2['epses'],
        'dots': dots,
    }


def _add_dot(dots: dict, s1: str, s2: str) -> None:
    if s1 == s2:
        return  # unit vectors: v.v = 1
    k = (s1, s2) if s1 < s2 else (s2, s1)
    dots[k] = dots.get(k, 0) + 1


def _bond_occurrences(raw: dict) -> dict:
    occ: dict = {}
    for idx, (_, e) in enumerate(raw['vecs']):
        if e[0] == 'b':
            occ.setdefault(e[1], []).append(('vec', idx, 0))
    for idx, d in enumerate(raw['deltas']):
        for pos, e in enumerate(d):
            if e[0] == 'b':
                occ.setdefault(e[1], []).append(('delta', idx, pos))
    for idx, ep in enumerate(raw['epses']):
        for pos, e in enumerate(ep):
            if e[0] == 'b':
                occ.setdefault(e[1], []).append(('eps', idx, pos))
    return occ


def _resolve_bonds(raw: dict):
    """Fuse bonds through vector/delta/epsilon factors.  Returns the raw term,
    None if it annihilates, leaving only bonds that join two distinct epsilons
    (those fall to the determinant identity)."""
    while True:
        occ = _bond_occurrences(raw)
        if not occ:
            return raw
        progressed = False
        for bond, lst in occ.items():
            if len(lst) != 2:
                raise AssertionError(f"bond {bond} appears {len(lst)} times")
            (k1, i1, p1), (k2, i2, p2) = lst
            if k1 == 'delta' and k2 == 'delta' and i1 == i2:
                # trace of a delta with itself: factor 3
                raw['coeff'] *= 3
                del raw['deltas'][i1]
                progressed = True
                break
            if k1 == 'eps' and k2 == 'eps' and i1 == i2:
                return None  # epsilon contracted with itself
            if k1 == 'eps' and k2 == 'eps':
                continue  # determinant identity handles it
            # order so the simpler factor acts on the other
            if k2 == 'vec' or (k2 == 'delta' and k1 == 'eps'):
                (k1, i1, p1), (k2, i2, p2) = (k2, i2, p2), (k1, i1, p1)
            if k1 == 'vec' and k2 == 'vec':
                s1 = raw['vecs'][i1][0]
                s2 = raw['vecs'][i2][0]
                for idx in sorted((i1, i2), reverse=True):
                    del raw['vecs'][idx]
                _add_dot(raw['dots'], s1, s2)
            elif k1 == 'vec' and k2 == 'delta':
                s = raw['vecs'][i1][0]
                other = raw['deltas'][i2][1 - p2]
                del raw['vecs'][i1]
                del raw['deltas'][i2]
                raw['vecs'].append((s, other))
            elif k1 == 'vec' and k2 == 'eps':
                s = raw['vecs'][i1][0]
                ep = list(raw['epses'][i2])
                ep[p2] = ('s', s)
                raw['epses'][i2] = tuple(ep)
                del raw['vecs'][i1]
            elif k1 == 'delta' and k2 == 'delta':
                o1 = raw['deltas'][i1][1 - p1]
                o2 = raw['deltas'][i2][1 - p2]
                for idx in sorted((i1, i2), reverse=True):
                    del raw['deltas'][idx]
                raw['deltas'].append((o1, o2))
            elif k1 == 'delta' and k2 == 'eps':
                other = raw['deltas'][i1][1 - p1]
                ep = list(raw['epses'][i2])
                ep[p2] = other
                raw['epses'][i2] = tuple(ep)
                del raw['deltas'][i1]
            else:  # pragma: no cover - exhaustive above
                raise AssertionError(f"unhandled bond case {k1}/{k2}")
            progressed = True
            break
        if not progressed:
            return raw  # only eps-eps bonds remain


_PERMS3 = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
           ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def _eliminate_eps_pairs(raw: dict) -> list:
    """Reduce terms until at most one epsilon-like factor remains."""
    if raw is None:
        return []
    if len(raw['epses']) <= 1:
        if _bond_occurrences(raw):
            raise AssertionError("unresolved bond outside an epsilon pair")
        return [raw]
    ex = raw['epses'][0]
    ey = raw['epses'][1]
    rest = raw['epses'][2:]
    out = []
    for perm, sign in _PERMS3:
        child = {
            'coeff': raw['coeff'] * sign,
            'vecs': list(raw['vecs']),
            'deltas': list(raw['deltas']),
            'epses': list(rest),
            'dots': dict(raw['dots']),
        }
        for i in range(3):
            u, v = ex[i], ey[perm[i]]
            if u[0] == 's' and v[0] == 's':
                _add_dot(child['dots'], u[1], v[1])
            elif u[0] == 's':
                child['vecs'].append((u[1], v))
            elif v[0] == 's':
                child['vecs'].append((v[1], u))
            elif u == v:
                # the same bond on both sides: delta trace, factor 3
                child['coeff'] *= 3
            else:
                child['deltas'].append((u, v))
        out.extend(_eliminate_eps_pairs(_resolve_bonds(child)))
    return out


def _sort_with_parity(items):
    items = list(items)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return tuple(items), sign


def _freeze(raw: dict):
    if raw is None:
        return None
    coeff = raw['coeff']
    boxes = []
    epses = []
    for ep in raw['epses']:
        if len({*ep}) < 3:
            return None  # repeated entry annihilates the epsilon
        if all(e[0] == 's' for e in ep):
            triple, sign = _sort_with_parity(e[1] for e in ep)
            if len({*triple}) < 3:
                return None
            boxes.append(triple)
            if sign < 0:
                coeff = -coeff
        else:
            ents, sign = _sort_with_parity(ep)
            epses.append(ents)
            if sign < 0:
                coeff = -coeff
    if len(boxes) + len(epses) > 1:
        raise AssertionError("canonical term with multiple epsilon-like factors")
    if coeff == 0:
        return None
    vecs = tuple(sorted(((s, e[1]) for s, e in raw['vecs']), key=lambda v: (v[1], v[0])))
    deltas = tuple(sorted((min(i[1], j[1]), max(i[1], j[1]))
                          for i, j in raw['deltas']))
    dots = tuple(sorted((s1, s2, e) for (s1, s2), e in raw['dots'].items() if e))
    return TensorTerm(coeff, vecs, deltas, tuple(sorted(epses)),
                      dots, tuple(sorted(boxes)))


def _build(rank: int, raws, factor: CoeffAtom = ATOM_ONE) -> TensorPoly:
    terms = []
    for raw in raws:
        for resolved in _eliminate_eps_pairs(_resolve_bonds(raw)):
            t = _freeze(resolved)
            if t is not None:
                terms.append(t)
    return _merge_terms(rank, terms, factor)


# ---------------------------------------------------------------------------
# Elementary poly constructors and arithmetic
# ---------------------------------------------------------------------------

def scalar_poly(coeff=ATOM_ONE) -> TensorPoly:
    """The rank-0 constant coeff, a CoeffAtom or a rational."""
    return poly_scale(TensorPoly(0, (TensorTerm(Fraction(1)),)), coeff)


def vector_power(v, l: int) -> TensorPoly:
    """The plain outer product v x v x ... x v (rank l)."""
    s = _sym_name(v)
    vecs = tuple((s, i) for i in range(l))
    return TensorPoly(l, (TensorTerm(Fraction(1), vecs),))


def cross_vector(v1, v2) -> TensorPoly:
    """The rank-1 tensor (v1 x v2)."""
    s1, s2 = _sym_name(v1), _sym_name(v2)
    raw = {'coeff': Fraction(1), 'vecs': [], 'deltas': [],
           'epses': [(('f', 0), ('s', s1), ('s', s2))], 'dots': {}}
    return _build(1, [raw])


def poly_add(p1: TensorPoly, p2: TensorPoly) -> TensorPoly:
    if p1.rank != p2.rank:
        raise ValueError(f"rank mismatch {p1.rank} vs {p2.rank}")
    if p1.terms and p2.terms and p1.prefactor != p2.prefactor:
        raise ValueError("cannot add polynomials with different prefactor shapes")
    return _merge_terms(p1.rank, p1.terms + p2.terms,
                        p1.prefactor if p1.terms else p2.prefactor)


def poly_neg(p: TensorPoly) -> TensorPoly:
    return poly_scale(p, -1)


def poly_sub(p1: TensorPoly, p2: TensorPoly) -> TensorPoly:
    return poly_add(p1, poly_neg(p2))


def poly_scale(p: TensorPoly, factor) -> TensorPoly:
    """p times a CoeffAtom or a rational."""
    if isinstance(factor, CoeffAtom):
        product = atom_mul(p.prefactor, factor)
        rat, prefactor = product.rat, _shape(product)
    else:
        rat, prefactor = Fraction(factor), p.prefactor
    if rat == 0 or not p.terms:
        return TensorPoly(p.rank)
    return TensorPoly(p.rank, tuple([TensorTerm(t.coeff * rat, *t.key) for t in p.terms]),
                      prefactor)


def poly_permute_slots(p: TensorPoly, perm) -> TensorPoly:
    """Relabel free slots: slot i -> perm[i].  perm is a sequence or mapping."""
    emap = {i: ('f', perm[i]) for i in range(p.rank)}
    return _build(p.rank, [_term_to_raw(t, emap) for t in p.terms], p.prefactor)


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------

def contract_slots(p1: TensorPoly, p2: TensorPoly, pairs) -> TensorPoly:
    """Contract specific slot pairs (i in p1, j in p2).  Surviving p1 slots come
    first (in order), then surviving p2 slots."""
    pairs = list(pairs)
    paired1 = {i for i, _ in pairs}
    paired2 = {j for _, j in pairs}
    if len(paired1) != len(pairs) or len(paired2) != len(pairs):
        raise ValueError("duplicate slot in contraction pairs")
    free1 = [i for i in range(p1.rank) if i not in paired1]
    free2 = [j for j in range(p2.rank) if j not in paired2]
    rank = len(free1) + len(free2)
    emap1 = {i: ('f', n) for n, i in enumerate(free1)}
    emap2 = {j: ('f', len(free1) + n) for n, j in enumerate(free2)}
    for b, (i, j) in enumerate(pairs):
        emap1[i] = ('b', b)
        emap2[j] = ('b', b)
    raws = []
    for t1 in p1.terms:
        raw1 = _term_to_raw(t1, emap1)
        for t2 in p2.terms:
            raws.append(_merge_raws(raw1, _term_to_raw(t2, emap2)))
    return _build(rank, raws, atom_mul(p1.prefactor, p2.prefactor))


def contract(p1: TensorPoly, p2: TensorPoly, k: int) -> TensorPoly:
    """Contract the last k slots of p1 with the first k slots of p2 (k=0 is the
    outer product)."""
    if k < 0 or k > min(p1.rank, p2.rank):
        raise ValueError(f"cannot contract {k} slots of ranks {p1.rank},{p2.rank}")
    return contract_slots(p1, p2, [(p1.rank - k + t, t) for t in range(k)])


def full_contract(p1: TensorPoly, p2: TensorPoly) -> TensorPoly:
    if p1.rank != p2.rank:
        raise ValueError("full contraction requires equal ranks")
    return contract(p1, p2, p1.rank)


def traceless_contract(A: TensorPoly, B: TensorPoly, k: int) -> TensorPoly:
    """contract(A, B, k) for symmetric traceless A and B, without the products
    that sum to zero.

    Precondition: A and B are both STF.  A term of B with a delta joining two
    contracted slots meets a trace of A, so summed over all of A's terms it
    gives exactly zero; likewise a term of A with a delta inside A's last k
    slots.  Only one side is pruned, the one that removes more products (B on
    a tie): dropping B's terms relies on A being whole, and vice versa, so
    pruning both is wrong (Y[2](a).Y[2](b) would lose its -3/4 term).
    """
    lo = A.rank - k
    keep_a = tuple(t for t in A.terms if not any(i >= lo for i, _ in t.deltas))
    keep_b = tuple(t for t in B.terms if not any(j < k for _, j in t.deltas))
    if ((len(B.terms) - len(keep_b)) * len(A.terms)
            >= (len(A.terms) - len(keep_a)) * len(B.terms)):
        B = TensorPoly(B.rank, keep_b, B.prefactor)
    else:
        A = TensorPoly(A.rank, keep_a, A.prefactor)
    return contract(A, B, k)


# ---------------------------------------------------------------------------
# Symmetrized embedding  { core * delta^r }
# ---------------------------------------------------------------------------

def _pairings(slots: list):
    if not slots:
        yield []
        return
    first = slots[0]
    for idx in range(1, len(slots)):
        partner = slots[idx]
        rest = slots[1:idx] + slots[idx + 1:]
        for tail in _pairings(rest):
            yield [(first, partner)] + tail


def embed_count(total_rank: int, group_sizes, r: int) -> int:
    """Number of distinct terms in the symmetrized distribution."""
    n = factorial(total_rank)
    for g in group_sizes:
        n //= factorial(g)
    n //= 2 ** r * factorial(r)
    return n


def symmetrized_embed(core: TensorPoly, group_sizes, r: int,
                      total_rank: int) -> TensorPoly:
    """Distribute total_rank free slots over the core's slot groups plus r
    Kronecker deltas, summing over distinct distributions.

    The core's slots must be grouped consecutively (group 0 first) and the core
    must be symmetric within each group; distributions assign each group an
    unordered slot set and pair the remaining 2r slots into deltas.
    """
    group_sizes = list(group_sizes)
    if core.rank != sum(group_sizes):
        raise ValueError("group sizes must cover the core rank")
    if total_rank != core.rank + 2 * r:
        raise ValueError("total rank inconsistent with delta count")
    distributions = []

    def rec(remaining, chosen):
        if len(chosen) == len(group_sizes):
            for pr in _pairings(list(remaining)):
                distributions.append((list(chosen), pr))
            return
        g = group_sizes[len(chosen)]
        for combo in itertools.combinations(remaining, g):
            rec(tuple(s for s in remaining if s not in combo), chosen + [combo])

    rec(tuple(range(total_rank)), [])
    expected = embed_count(total_rank, group_sizes, r)
    if len(distributions) != expected:
        raise AssertionError(
            f"distribution count {len(distributions)} != {expected}")

    offsets = []
    off = 0
    for g in group_sizes:
        offsets.append(off)
        off += g
    raws = []
    for chosen, pr in distributions:
        emap = {}
        for gi, combo in enumerate(chosen):
            for local, slot in enumerate(sorted(combo)):
                emap[offsets[gi] + local] = ('f', slot)
        extra = [(('f', i), ('f', j)) for i, j in pr]
        for t in core.terms:
            raw = _term_to_raw(t, emap)
            raw['deltas'].extend(extra)
            raws.append(raw)
    return _build(total_rank, raws, core.prefactor)


# ---------------------------------------------------------------------------
# Harmonic (symmetric traceless) tensors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _harmonic_cached(name: str, l: int) -> TensorPoly:
    if l == 0:
        return scalar_poly()
    poly = TensorPoly(l, ())
    for r in range(l // 2 + 1):
        c = Fraction((-1) ** r * double_factorial(2 * l - 2 * r - 1), factorial(l))
        piece = symmetrized_embed(vector_power(name, l - 2 * r), [l - 2 * r], r, l)
        poly = poly_add(poly, poly_scale(piece, c))
    return poly


def harmonic_tensor(v, l: int) -> TensorPoly:
    """Rank-l symmetric traceless tensor of a unit vector.

    Leading coefficient (2l-1)!!/l!; full contraction with u x ... x u yields
    the Legendre polynomial P_l(v.u)."""
    if l < 0:
        raise ValueError("negative rank")
    return _harmonic_cached(_sym_name(v), l)


# ---------------------------------------------------------------------------
# Even and odd couplings
# ---------------------------------------------------------------------------

def _check_triple(l1: int, l2: int, l3: int, want_parity: int) -> None:
    if not (abs(l1 - l2) <= l3 <= l1 + l2):
        raise ValueError(f"triangle rule violated for ranks ({l1},{l2})->{l3}")
    if (l1 + l2 + l3) % 2 != want_parity:
        kind = "even" if want_parity == 0 else "odd"
        raise ValueError(
            f"ranks ({l1},{l2})->{l3} have the wrong parity for an {kind} coupling")


def kappa_even(l1: int, l2: int, l3: int) -> Fraction:
    """Normalization for couple_even: couple of harmonic(a,l1), harmonic(a,l2)
    equals harmonic(a,l3) exactly."""
    J = l1 + l2 + l3
    J1 = J - 2 * l1 - 1
    J2 = J - 2 * l2 - 1
    J3 = J - 2 * l3 - 1
    return Fraction(
        factorial(l3) * double_factorial(J1) * double_factorial(J2)
        * double_factorial(J3) * factorial(J // 2),
        double_factorial(2 * l3 - 1) * factorial((J1 + 1) // 2)
        * factorial((J2 + 1) // 2) * factorial(l1) * factorial(l2),
    )


def _sum_even(A: TensorPoly, B: TensorPoly, l3: int) -> TensorPoly:
    l1, l2 = A.rank, B.rank
    k = (l1 + l2 - l3) // 2
    total = TensorPoly(l3, ())
    for r in range(min(l1 - k, l2 - k) + 1):
        c = Fraction((-2) ** r * double_factorial(2 * l3 - 2 * r - 1),
                     double_factorial(2 * l3 - 1))
        core = traceless_contract(A, B, k + r)
        piece = symmetrized_embed(core, [l1 - k - r, l2 - k - r], r, l3)
        total = poly_add(total, poly_scale(piece, c))
    return total


def couple_even(A: TensorPoly, B: TensorPoly, l3: int) -> TensorPoly:
    """Even-parity coupling of symmetric traceless tensors to rank l3."""
    _check_triple(A.rank, B.rank, l3, 0)
    return poly_scale(_sum_even(A, B, l3), 1 / kappa_even(A.rank, B.rank, l3))


_EPS3 = TensorPoly(3, (TensorTerm(Fraction(1), epses=((('f', 0), ('f', 1), ('f', 2)),)),))


def _sum_odd(A: TensorPoly, B: TensorPoly, l3: int) -> TensorPoly:
    l1, l2 = A.rank, B.rank
    kp = (l1 + l2 - l3 - 1) // 2
    total = TensorPoly(l3, ())
    for r in range(min(l1 - kp - 1, l2 - kp - 1) + 1):
        c = Fraction((-2) ** r * double_factorial(2 * l3 - 2 * r - 1),
                     double_factorial(2 * l3 - 1))
        D = traceless_contract(A, B, kp + r)
        gA = l1 - kp - r - 1
        gB = l2 - kp - r - 1
        # eps_ijk A_j... B_k... : hook the epsilon to one A slot and one B slot
        E = contract_slots(_EPS3, D, [(1, gA), (2, gA + 1)])
        piece = symmetrized_embed(E, [1, gA, gB], r, l3)
        total = poly_add(total, poly_scale(piece, c))
    return total


@lru_cache(maxsize=None)
def odd_norm(l1: int, l2: int, l3: int) -> Fraction:
    """Normalization N for couple_odd, fixed on the harmonic-tensor instance:
    contracting the raw odd sum of harmonic(a,l1), harmonic(b,l2) with
    a x ... x a (l3-1 factors) must give +w * (polynomial in a.b) * (a x b)
    with w(a.b=1) = 1.  The orientation requirement w(1) > 0 pins the sign."""
    T = _sum_odd(harmonic_tensor('a', l1), harmonic_tensor('b', l2), l3)
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


def couple_odd(A: TensorPoly, B: TensorPoly, l3: int) -> TensorPoly:
    """Odd-parity (epsilon-bearing) coupling of symmetric traceless tensors."""
    if l3 == 0:
        raise ValueError(
            "odd coupling to rank 0 is impossible (parity): use couple_even")
    _check_triple(A.rank, B.rank, l3, 1)
    return poly_scale(_sum_odd(A, B, l3), odd_norm(A.rank, B.rank, l3))


# ---------------------------------------------------------------------------
# Raw pair-coupling constant (same-argument proportionality)
# ---------------------------------------------------------------------------

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

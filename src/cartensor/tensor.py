"""Symbolic Cartesian tensor algebra over unit-vector symbols.

A TensorPoly of rank n is one exact prefactor (a CoeffAtom) times a sum of
monomials carrying n free slots, each with an int numerator over one shared
denominator.  Each monomial is a product of
  * vector factors  v_i        (a symbol's component at a free slot),
  * delta factors   delta_ij   (Kronecker delta joining two free slots),
  * at most one epsilon factor eps(e1,e2,e3) whose entries are free slots or
    symbols (a fully symbol-saturated epsilon is stored as a box product),
  * a scalar monomial: dot products (v.w)^p and box products v.(w x u).

All vectors are unit vectors, so (v.v) = 1 and never appears.  Contraction is
exact and resolves its bonds once per pair of slot signatures, not once per
pair of terms; between symmetric traceless factors, once per orbit of one
side's signatures under permutations of the contracted slots (see the end).
contract_slots reads each term of each factor once: the factors on surviving
slots, already relabelled to output slots, and its signature, the occupant of
every contracted slot (a vector symbol, the other end of a delta, or an
epsilon position) plus its epsilon-like factor.  Terms with one signature
differ only in what the bonds never touch, so each side is grouped by
signature, and each pair of signatures walks every chain of bonds once,
across both sides, through the deltas that join two contracted slots, to its
two ends, and fuses them:

    vec.vec -> dot      vec.free -> vec      free.free -> delta
    closed delta loop -> factor 3 (a trace)
    vec or free slot into an epsilon position -> fills that position
    an epsilon chained back to itself -> the product is zero

A chain between two distinct epsilon-like factors (epsilon or box) is left as
a link, and any product with two of them is reduced with the 3x3 determinant
identity

    eps_ijk eps_lmn = det [[d_il, d_im, d_in],
                           [d_jl, d_jm, d_jn],
                           [d_kl, d_km, d_kn]]

whose six children chain their links and fuse the ends by the same rules.
This uniformly covers shared-index pairs, box*box Gram determinants, and
mixed epsilon*box products.  Canonical terms therefore carry at most one
epsilon-like factor, and rank-0 results are polynomials in dots and (for odd
parity) boxes.  The epsilon-like factors of a product are ordered side 1's
before side 2's, and the identity eliminates the first two.  Both are fixed:
where an elimination leaves an epsilon, another order leaves a different one,
an equal value with different canonical terms and so different output bytes.

A signature pair's result is a list of children: a factor (sign and traces),
the vectors, deltas and dots it adds, and the canonical epsilon or box left.
Each product of two structures only assembles its children.  Side 1's vectors
and deltas followed by side 2's are already in canonical order, so only a
child that adds some is sorted, once per pair of structures.  Within one call
a dot monomial is one int, a bit field per symbol pair wide enough for the
largest exponent a product can reach, so the product of two terms is one
multiplication of numerators and the sum of three ints; each distinct
monomial is unpacked once, at the end.

Inside the engine a polynomial is raw: (rank, den, {struct: {dots: int
numerator}}), the terms over one denominator, without the prefactor, grouped
by structure.  A term's structure, struct = (vecs, deltas, epses, boxes), is
all of its key but the dot monomial.  Boxes belong to the structure, not to the
scalar part: a box is an epsilon whose three entries are symbols, so it is
part of a contraction's signature and takes part in the determinant identity.
The paper's closed form is a sum over structures, each times a polynomial in
the dots, and every raw step does its slot work (relabelling, sorting, keying,
reading signatures) once per structure; per term it only multiplies a
numerator and adds a dot monomial.  A coupling node thaws its two children
once, and int numerators flow through its whole sum over r: each contraction
writes a raw result (denominator: the product of its sides'), the odd-parity
epsilon hook contracts that raw result, and the embedding relabels each
structure, once per slot placement, straight into the node's one accumulator
with the int weight of its r (denominator: (2l3-1)!!).  The node is then
frozen once, into the normal form below.  One enumerator, _placements, lists
the slot placements of the brace {core delta^r}, for the embedding and for a
harmonic leaf.  A leaf needs neither contraction nor relabelling: each
placement of {v^(l-2r) delta^r} is already a canonical structure, and its
terms are frozen once.  The public contract_slots and symmetrized_embed
each thaw their arguments and freeze their result around the same raw core;
they have no caller in the package and stay because the benchmark's tracer
wraps them by name.
Embedding relabels without bonds, so it goes straight to the canonical form.

A TensorPoly is that form frozen, (rank, prefactor, den, groups), with groups
the strictly ascending tuple of (struct, ((dots, numerator), ...)).  Its normal
form makes equal values equal TensorPolys: monomials strictly ascending, no
zero numerator or empty group, den >= 1, gcd(den, every numerator) == 1, and a
canonical prefactor with rat == 1 (ATOM_ONE for the zero TensorPoly(rank)).
Only the prefactor is ever irrational: products multiply the two prefactors
once and move the rational part of the product (a gcd of radicands, the sign
of i**2) into the numerators.  The output's full-key order (vecs, deltas,
epses, dots, boxes) differs from group order only among groups that share
(vecs, deltas, epses); key_runs merges those, and the terms view reads it.

The three higher-level constructions are:
  * harmonic_tensor(v, l): the symmetric traceless tensor with leading term
    (2l-1)!!/l! v...v, normalized so that contracting with u...u gives P_l(v.u);
  * couple_even(A, B, l3): the unique symmetric traceless combination of A, B
    with rank l3 when l1+l2-l3 is even, normalized so couple_even of
    harmonic_tensor(a,l1), harmonic_tensor(a,l2) returns harmonic_tensor(a,l3);
  * couple_odd(A, B, l3): the epsilon-bearing counterpart for odd l1+l2-l3,
    normalized so the same-argument slope matches the cross-product convention
    (for (2,2,1): (a.b)(a x b)).
Both couplings are one sum over r of the contraction of A and B on k+r slot
pairs (for odd parity with an epsilon hooked to one free slot of each),
symmetrized with r deltas; both normalizations, kappa_even and odd_norm, are
closed-form factorial ratios in J = l1+l2+l3 and Ji = J-2li-1.  A root
coupling to rank 0 is the same sum, _coupling_sum, at l3 = 0: k = l1 = l2
and the r = 0 term alone, one full contraction, with its own constant in
place of the normalization.

Wherever both factors of a contraction are symmetric traceless (the children
of a coupling node), _traceless_raw makes one choice: on k >= 2 contracted
slots, the factor with more structures (a on a tie) is merged by orbit and the
other factor's traces are dropped (_group).  Two facts of the brace algebra
make that exact.  A term whose delta joins two contracted slots meets a trace
of the other factor, so summed over that factor's terms it gives exactly zero,
provided that factor is whole.  And each factor's terms, sums over every slot
placement, are closed under the permutations sigma of its contracted slots;
renumbering the bonds of both sides at once changes no product, so for a term
t of one side, summed over the terms u of the other, (sigma t).u sums to the
same as t.(sigma^-1 u), which is t.u, provided the other side is closed: every
member of an orbit of structures gives the same total, and the merged side
keeps one signature per orbit (_orbit_signature), with its members' numerators
summed.  Dropping needs the merged side whole, and merging needs the dropped
side closed, which it stays, as its traces form a closed subset; so the two
always act on opposite factors.  Neither acts on both: a merged side is not
closed, and a side with its traces dropped is not whole (Y[2](a).Y[2](b) would
lose its -3/4 term).  [Y[6](a) x Y[6](b)][0] resolves its 4 = l//2 + 1 pairs
of signatures, not 76.  On k <= 1 no delta joins two contracted slots and no
orbit has two members, so both factors are read whole.  contract_slots never
merges or drops, as its factors need not be symmetric traceless, nor does the
odd-parity epsilon hook, whose epsilon is antisymmetric in its two hooked
slots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .coeff import ATOM_ONE, CoeffAtom, atom_mul, double_factorial, factorial
from .wigner import triangle_ok

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
    """prefactor * sum over groups of numerator/den * monomial(struct, dots);
    see the module docstring for the normal form."""
    rank: int
    prefactor: CoeffAtom = ATOM_ONE
    den: int = 1
    groups: tuple = ()

    @property
    def is_zero(self) -> bool:
        return not self.groups

    def key_runs(self) -> list:
        """The terms in full-key order, one run per free part (vecs, deltas,
        epses): [(free, [(dots, boxes, numerator), ...]), ...].  Only a run of
        several groups, adjacent and differing in boxes alone, needs a sort."""
        runs = []
        for (vecs, deltas, epses, boxes), monos in self.groups:
            free, terms = (vecs, deltas, epses), [(dots, boxes, n) for dots, n in monos]
            if runs and runs[-1][0] == free:
                runs[-1][1].extend(terms)
                runs[-1][1].sort()
            else:
                runs.append((free, terms))
        return runs

    @property
    def terms(self) -> tuple:
        """The terms as TensorTerms in full-key order: a read-only view, built
        on each access, for callers outside the pipeline."""
        den = self.den
        return tuple([TensorTerm(Fraction(n, den), *free, dots, boxes)
                      for free, run in self.key_runs() for dots, boxes, n in run])


# ---------------------------------------------------------------------------
# Raw polynomials and raw terms
# ---------------------------------------------------------------------------
# A raw polynomial (rank, den, {struct: {dots: int numerator}}) holds
# canonical keys only: struct = (vecs, deltas, epses, boxes) is a TensorTerm
# key without its dots, and the full key is (vecs, deltas, epses, dots,
# boxes).  Boxes sit in the structure because a box is an all-symbol epsilon:
# it shapes a contraction's signature and the determinant identity, which a
# dot never does.  Before a structure is canonical, its vectors (sym, slot)
# and deltas (i, j) are on output slots, and its epsilon-like factors are a
# list of at most two: an epsilon, or a box held as an all-symbol epsilon
# until it is canonical, as a list of entries ('f', slot), ('s', sym) or
# ('b', ...).  ('b', bond) marks a contracted slot until its chain is fused;
# ('b', k, pos) links two positions of distinct epsilon-like factors, for the
# determinant identity to resolve.  In _contract_raw a dots tuple is a packed
# int until the end.

_PERMS3 = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
           ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))
_PERM_SIGN = dict(_PERMS3)

_by_slot = itemgetter(1)


def _thaw(p: TensorPoly) -> tuple:
    """p as a raw polynomial (rank, den, {struct: {dots: numerator over
    den}}); the prefactor is left out."""
    return p.rank, p.den, {struct: dict(monos) for struct, monos in p.groups}


def _merge(acc: dict, struct: tuple, monos, f: int) -> None:
    """Add f times monos, (dots, numerator) pairs, to acc[struct]."""
    out = acc.get(struct)
    if out is None:
        acc[struct] = {dots: f * c for dots, c in monos}
        return
    for dots, c in monos:
        out[dots] = out.get(dots, 0) + f * c


def _eps_like(epses: tuple, boxes: tuple, entry) -> list:
    """A term's epsilon-like factor, its slot entries mapped by entry(slot),
    as a list of at most one entry list."""
    if len(epses) + len(boxes) > 1:
        raise AssertionError("canonical term with multiple epsilon-like factors")
    if epses:
        return [[entry(e[1]) if e[0] == 'f' else e for e in epses[0]]]
    return [[('s', s) for s in boxes[0]]] if boxes else []


def _fuse(x, y, vecs: list, deltas: list, pairs: list, eps: list) -> bool:
    """Join x and y, the two ends of one resolved chain of contracted slots;
    False only for an epsilon chained back to itself, which annihilates the
    term.

    An end is a vector ('s', sym), a free slot ('f', slot) or a position
    ('e', k, pos) of eps[k].  vec.vec gives a dot (v.v = 1), vec.free a
    vector, free.free a delta; a vector or free slot fills an epsilon
    position; an epsilon whose chain comes back to itself is zero, and a chain
    between two distinct epsilon-like factors becomes a link for the
    determinant identity."""
    if x[0] == 'e':
        x, y = y, x
    if y[0] == 'e':
        if x[0] == 'e':
            if x[1] == y[1]:
                return False
            link = ('b',) + x[1:]
            eps[x[1]][x[2]] = link
            eps[y[1]][y[2]] = link
        else:
            eps[y[1]][y[2]] = x
    elif x[0] == 's':
        if y[0] == 'f':
            vecs.append((x[1], y[1]))
        elif x[1] != y[1]:
            pairs.append((x[1], y[1]))
    elif y[0] == 's':
        vecs.append((y[1], x[1]))
    else:
        deltas.append((x[1], y[1]))
    return True


def _canonical_eps(ep) -> tuple | None:
    """(epses, boxes, sign) of the lone epsilon-like factor ep (a sequence of
    three entries) with its entries in ascending order, and the sign of the
    permutation that sorts them, read from _PERMS3; None if a repeated entry
    annihilates it.  An all-symbol factor is a box of the three symbols."""
    if len({*ep}) < 3:
        return None
    kinds = (ep[0][0], ep[1][0], ep[2][0])
    if 'b' in kinds:
        raise AssertionError("unresolved bond outside an epsilon pair")
    order = tuple(sorted(range(3), key=ep.__getitem__))
    if kinds == ('s', 's', 's'):
        return (), (tuple([ep[i][1] for i in order]),), _PERM_SIGN[order]
    return (tuple([ep[i] for i in order]),), (), _PERM_SIGN[order]


def _from_numerators(rank: int, den: int, acc: dict,
                     factor: CoeffAtom = ATOM_ONE) -> TensorPoly:
    """factor * sum of acc[struct][dots]/den * monomial(struct, dots), in normal
    form: the raw polynomial (rank, den, acc) times a canonical atom."""
    num, den = factor.rat.numerator, den * factor.rat.denominator
    groups = []
    for struct in sorted(acc):
        monos = [m for m in sorted(acc[struct].items()) if m[1]]
        if monos:
            groups.append((struct, monos))
    if not groups or not num:
        return TensorPoly(rank)
    g = math.gcd(den, num * math.gcd(*[c for _, monos in groups for _, c in monos]))
    return TensorPoly(rank, replace(factor, rat=Fraction(1)), den // g, tuple([
        (struct, tuple([(dots, c * num // g) for dots, c in monos]))
        for struct, monos in groups]))


def _relabel(struct: tuple, m, extra=()) -> tuple:
    """(struct', sign): the canonical structure of struct with slot i moved to
    m[i] and the deltas extra appended, and the sign that ordering its epsilon
    gives.  m is injective (a slot placement or a permutation), so the
    epsilon keeps three distinct entries.  There are no bonds, so nothing
    needs resolving."""
    vecs, deltas, epses, boxes = struct
    eps = _eps_like(epses, boxes, lambda i: ('f', m[i]))
    sign = 1
    if eps:
        epses, boxes, sign = _canonical_eps(eps[0])
    deltas = [(m[i], m[j]) for i, j in deltas] + list(extra)
    return (tuple(sorted([(s, m[i]) for s, i in vecs], key=_by_slot)),
            tuple(sorted([(i, j) if i < j else (j, i) for i, j in deltas])),
            epses, boxes), sign


# ---------------------------------------------------------------------------
# Elementary poly constructors and arithmetic
# ---------------------------------------------------------------------------

def poly_add(p1: TensorPoly, p2: TensorPoly) -> TensorPoly:
    if p1.rank != p2.rank:
        raise ValueError(f"rank mismatch {p1.rank} vs {p2.rank}")
    if not (p1.is_zero or p2.is_zero) and p1.prefactor != p2.prefactor:
        raise ValueError("cannot add polynomials with different prefactor shapes")
    den = math.lcm(p1.den, p2.den)
    acc: dict = {}
    for p in (p1, p2):
        for struct, monos in p.groups:
            _merge(acc, struct, monos, den // p.den)
    return _from_numerators(p1.rank, den, acc, p2.prefactor if p1.is_zero else p1.prefactor)


def poly_scale(p: TensorPoly, factor) -> TensorPoly:
    """p times a CoeffAtom or a rational."""
    if isinstance(factor, CoeffAtom):
        factor = atom_mul(p.prefactor, factor)
    else:
        factor = replace(p.prefactor, rat=Fraction(factor))
    return _from_numerators(*_thaw(p), factor)


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------

def _split(struct: tuple, where: list, nb: int) -> tuple:
    """One structure of a contraction factor, read once: (vecs, deltas,
    signature).  The factors on surviving slots are relabelled to output
    slots, in slot order.  The signature is (occ, eps): occ[bond] is the
    occupant of that bond's contracted slot, a vector ('s', sym), the other
    end of a delta, ('f', slot) or ('b', bond), or a position ('e', pos) of
    the structure's epsilon-like factor; eps holds that factor, if any."""
    key_vecs, key_deltas, epses, boxes = struct
    occ = [None] * nb
    vecs = []
    for s, i in key_vecs:
        w = where[i]
        if w[0] == 'f':
            vecs.append((s, w[1]))
        else:
            occ[w[1]] = ('s', s)
    deltas = []
    for i, j in key_deltas:
        wi, wj = where[i], where[j]
        if wi[0] == 'f' and wj[0] == 'f':
            deltas.append((wi[1], wj[1]))
        else:
            if wi[0] == 'b':
                occ[wi[1]] = wj
            if wj[0] == 'b':
                occ[wj[1]] = wi
    eps = _eps_like(epses, boxes, where.__getitem__)
    for ep in eps:
        for pos, e in enumerate(ep):
            if e[0] == 'b':
                occ[e[1]] = ('e', pos)
    return tuple(vecs), tuple(deltas), (tuple(occ), tuple(map(tuple, eps)))


def _orbit_signature(sig: tuple) -> tuple:
    """The signature of one fixed member of sig's orbit under permutations of
    the contracted slots: bonds renumbered so that first come those whose slot
    holds a vector, a free-slot delta end or an epsilon position, sorted by
    that occupant, then the bonds joined in pairs by inner deltas, pair by
    pair; every ('b', bond) reference, in occ and in the epsilon-like factor,
    is renumbered to match.  Members of one orbit, and only they, share it."""
    occ, eps = sig
    order = sorted([b for b, o in enumerate(occ) if o[0] != 'b'], key=occ.__getitem__)
    order += [c for b, o in enumerate(occ) if o[0] == 'b' and b < o[1] for c in (b, o[1])]
    new = [0] * len(occ)
    for n, b in enumerate(order):
        new[b] = n
    occ = [occ[b] for b in order]
    return (tuple([('b', new[o[1]]) if o[0] == 'b' else o for o in occ]),
            tuple([tuple([('b', new[e[1]]) if e[0] == 'b' else e for e in ep])
                   for ep in eps]))


def _group(raw: dict, where: list, nb: int, syms: set, role: str | None) -> tuple:
    """(groups, top) for one contraction factor, {struct: {dots: numerator}}:
    its structures read by _split and grouped by signature, {signature:
    {(vecs, deltas): {dots: numerator}}}, and the largest dot exponent among
    its terms.  Every symbol that can end up in a dot of the product is added
    to syms.

    role 'drop' leaves out each structure with a delta that joins two
    contracted slots, as where tells them.  role 'merge' replaces each
    signature by _orbit_signature's, and the structures that then share
    (vecs, deltas, signature), the members of one orbit, become one entry with
    their numerators summed.  None does neither.  Either role is exact only
    when the other factor is symmetric traceless and plays the other role
    (see the module docstring)."""
    groups: dict = {}
    top = 0
    for struct, nums in raw.items():
        if role == 'drop' and any(where[i][0] == where[j][0] == 'b' for i, j in struct[1]):
            continue
        vecs, deltas, sig = _split(struct, where, nb)
        for dots in nums:
            for s1, s2, e in dots:
                syms.add(s1)
                syms.add(s2)
                if e > top:
                    top = e
        g = groups.get(sig)
        if g is None:
            groups[sig] = g = {}
        g[vecs, deltas] = nums
    if role == 'merge':
        merged: dict = {}
        for sig, g in groups.items():
            sig = _orbit_signature(sig)
            m = merged.get(sig)
            if m is None:
                merged[sig] = m = {}
            for key, nums in g.items():
                _merge(m, key, nums.items(), 1)
        groups = merged
    for occ, eps in groups:
        syms.update([o[1] for o in occ if o[0] == 's'])
        for ep in eps:
            syms.update([e[1] for e in ep if e[0] == 's'])
    return groups, top


def _chain_end(occ: tuple, b: int, s: int, eps_index: tuple, seen: list):
    """Walk from bond b into side s, through deltas that join two contracted
    slots, to the chain's end: ('s', sym), ('f', slot), ('e', k, pos) with k
    the index of the side's epsilon-like factor, or None for a closed loop."""
    start = b
    while True:
        o = occ[s][b]
        if o[0] != 'b':
            return ('e', eps_index[s], o[1]) if o[0] == 'e' else o
        b = o[1]
        if b == start:
            return None
        seen[b] = True
        s = 1 - s


def _child(factor: int, vecs, deltas, pairs, ep) -> list:
    """[(factor, vecs, deltas, pairs, epses, boxes)]: what one resolved
    product adds to its two terms, with deltas as (i, j), i < j, dot pairs as
    (s1, s2), s1 < s2, and the lone epsilon-like factor ep (or None) in
    canonical form, its sign in factor; [] if ep annihilates."""
    epses = boxes = ()
    if ep is not None:
        canon = _canonical_eps(ep)
        if canon is None:
            return []
        epses, boxes, sign = canon
        factor *= sign
    return [(factor, tuple(vecs), tuple([(i, j) if i < j else (j, i) for i, j in deltas]),
             tuple([(a, b) if a < b else (b, a) for a, b in pairs]), epses, boxes)]


def _resolve(sig1: tuple, sig2: tuple, nb: int) -> list:
    """The children of the product of any side-1 term with signature sig1 and
    any side-2 term with signature sig2, as _child gives them; [] if the
    product is zero.

    Walks every chain of bonds once and fuses its ends; a closed delta loop
    is a trace, factor 3.  Two epsilon-like factors are eliminated by

        eps_ijk eps_lmn = det [[d_il, d_im, d_in], [d_jl, ...], [d_kl, ...]]:

    each of the six permutations (in _PERMS3 order) pairs ex[i] with
    ey[perm[i]], pairs that share a link are chained to their two ends and
    fused, and a chain that closes on itself is a trace."""
    (occ1, eps1), (occ2, eps2) = sig1, sig2
    eps = [list(e) for e in eps1] + [list(e) for e in eps2]
    occ = (occ1, occ2)
    eps_index = (0, len(eps1))
    vecs, deltas, pairs = [], [], []
    factor = 1
    seen = [False] * nb
    for b in range(nb):
        if seen[b]:
            continue
        seen[b] = True
        x = _chain_end(occ, b, 0, eps_index, seen)
        if x is None:
            factor *= 3
        elif not _fuse(x, _chain_end(occ, b, 1, eps_index, seen),
                       vecs, deltas, pairs, eps):
            return []
    if len(eps) < 2:
        return _child(factor, vecs, deltas, pairs, eps[0] if eps else None)
    ex, ey = eps
    children = []
    for perm, sign in _PERMS3:
        links = [(ex[i], ey[perm[i]]) for i in range(3)]
        cvecs, cdeltas, cpairs = list(vecs), list(deltas), list(pairs)
        f = factor * sign
        while links:
            x, y = links.pop()
            while 'b' in (x[0], y[0]) and x != y:
                if x[0] != 'b':
                    x, y = y, x
                u, v = links.pop(next(i for i, l in enumerate(links) if x in l))
                x = v if u == x else u
            if x[0] == 'b':
                f *= 3
            else:
                _fuse(x, y, cvecs, cdeltas, cpairs, None)
        children += _child(f, cvecs, cdeltas, cpairs, None)
    return children


def _unpacked(acc: dict, fields: list, width: int) -> dict:
    """acc, {struct: {packed dot monomial: numerator}}, with each packed
    monomial (one `width`-bit field per symbol pair in fields, lowest first)
    replaced by its canonical dots tuple, and the zero numerators and the
    structures left empty dropped.  Each distinct monomial is unpacked once."""
    mask = (1 << width) - 1
    dots_of: dict = {}
    out: dict = {}
    for struct, coded in acc.items():
        nums = {}
        for code, c in coded.items():
            if not c:
                continue
            dots = dots_of.get(code)
            if dots is None:
                found, rest, k = [], code, 0
                while rest:
                    if rest & mask:
                        found.append((*fields[k], rest & mask))
                    rest >>= width
                    k += 1
                dots = dots_of[code] = tuple(found)
            nums[dots] = c
        if nums:
            out[struct] = nums
    return out


def _contract_raw(x: tuple, y: tuple, pairs, orbit: int = 0) -> tuple:
    """The raw contraction of raw polynomials x and y on specific slot pairs
    (i in x, j in y), over the product of their denominators.  Surviving x
    slots come first (in order), then surviving y slots.

    orbit = 1 (x) or 2 (y) names the side whose structures _group merges by
    orbit of the contracted slots; the other side's structures with a delta
    joining two contracted slots are dropped.  Both are exact only when x and
    y are symmetric traceless (see the module docstring).  0, the default,
    merges and drops nothing and reads every structure's own signature."""
    (rank1, den1, nums1), (rank2, den2, nums2) = x, y
    pairs = list(pairs)
    paired1 = {i for i, _ in pairs}
    paired2 = {j for _, j in pairs}
    if len(paired1) != len(pairs) or len(paired2) != len(pairs):
        raise ValueError("duplicate slot in contraction pairs")
    if not (paired1 <= set(range(rank1)) and paired2 <= set(range(rank2))):
        raise ValueError("contraction slot out of range")
    free1 = [i for i in range(rank1) if i not in paired1]
    free2 = [j for j in range(rank2) if j not in paired2]
    rank = len(free1) + len(free2)
    where1 = [None] * rank1
    where2 = [None] * rank2
    for n, i in enumerate(free1):
        where1[i] = ('f', n)
    for n, j in enumerate(free2):
        where2[j] = ('f', len(free1) + n)
    for b, (i, j) in enumerate(pairs):
        where1[i] = where2[j] = ('b', b)
    nb = len(pairs)
    roles = {0: (None, None), 1: ('merge', 'drop'), 2: ('drop', 'merge')}[orbit]
    syms: set = set()
    groups1, top1 = _group(nums1, where1, nb, syms, roles[0])
    groups2, top2 = _group(nums2, where2, nb, syms, roles[1])

    # A dot monomial is one int, a field of `width` bits per symbol pair in
    # sorted pair order.  A product adds at most one dot per bond chain and
    # three through the determinant, so no field overflows.
    width = (top1 + top2 + nb + 3).bit_length()
    names = sorted(syms)
    fields = [(a, b) for n, a in enumerate(names) for b in names[n + 1:]]
    unit = {f: 1 << (k * width) for k, f in enumerate(fields)}

    def packed(groups):
        return [(sig, [(vecs, deltas,
                        [(num, sum([e * unit[s1, s2] for s1, s2, e in dots]))
                         for dots, num in nums.items()])
                       for (vecs, deltas), nums in g.items()])
                for sig, g in groups.items()]

    side2 = packed(groups2)
    acc: dict = {}
    for sig1, g1 in packed(groups1):
        for sig2, g2 in side2:
            children = [(f, av, ad, sum([unit[p] for p in dp]), ep, bx)
                        for f, av, ad, dp, ep, bx in _resolve(sig1, sig2, nb)]
            if not children:
                continue
            # vecs1 + vecs2 and deltas1 + deltas2 are canonical already: each
            # side keeps slot order, and side 1's output slots come first.
            for vecs1, deltas1, terms1 in g1:
                for vecs2, deltas2, terms2 in g2:
                    vecs = vecs1 + vecs2
                    deltas = deltas1 + deltas2
                    for f, av, ad, dc, ep, bx in children:
                        if av or ad:
                            struct = (tuple(sorted(vecs + av, key=_by_slot)),
                                      tuple(sorted(deltas + ad)), ep, bx)
                        else:
                            struct = (vecs, deltas, ep, bx)
                        out = acc.get(struct)
                        if out is None:
                            acc[struct] = out = {}
                        for num1, code1 in terms1:
                            num1 *= f
                            code1 += dc
                            for num2, code2 in terms2:
                                code = code1 + code2
                                out[code] = out.get(code, 0) + num1 * num2

    return rank, den1 * den2, _unpacked(acc, fields, width)


def _product_factor(p1: TensorPoly, p2: TensorPoly, scale: CoeffAtom) -> CoeffAtom:
    """The atom a product of p1 and p2, times scale, is frozen with."""
    return atom_mul(atom_mul(p1.prefactor, p2.prefactor), scale)


def contract_slots(p1: TensorPoly, p2: TensorPoly, pairs) -> TensorPoly:
    """Contract specific slot pairs (i in p1, j in p2).  Surviving p1 slots
    come first (in order), then surviving p2 slots."""
    return _from_numerators(*_contract_raw(_thaw(p1), _thaw(p2), pairs),
                            _product_factor(p1, p2, ATOM_ONE))


def _bonds(rank1: int, rank2: int, k: int) -> list:
    """The slot pairs joining the last k slots of a rank1 factor to the first
    k slots of a rank2 factor."""
    if k < 0 or k > min(rank1, rank2):
        raise ValueError(f"cannot contract {k} slots of ranks {rank1},{rank2}")
    return [(rank1 - k + t, t) for t in range(k)]


def _traceless_raw(a: tuple, b: tuple, k: int) -> tuple:
    """The raw contraction of the last k slots of raw a with the first k of raw
    b, for symmetric traceless a and b, without the products that sum to zero.

    On k >= 2 contracted slots the factor with more structures (a on a tie)
    is merged by orbit and the other one's traces are dropped (_contract_raw),
    so the merge folds the most structures: [Y[6](a) x Y[7](b)][1] merges b's
    232 into 7 orbits against a's one structure left.  On k <= 1 no delta
    joins two contracted slots and no orbit has two members, so both factors
    are read whole."""
    orbit = 0 if k < 2 else 1 if len(a[2]) >= len(b[2]) else 2
    return _contract_raw(a, b, _bonds(a[0], b[0], k), orbit)


# ---------------------------------------------------------------------------
# Symmetrized embedding  { core * delta^r }
# ---------------------------------------------------------------------------

def embed_count(total_rank: int, group_sizes, r: int) -> int:
    """Number of distinct slot placements of the brace {core delta^r}:
    total_rank! / (g1! g2! ... 2^r r!)."""
    n = factorial(total_rank)
    for g in group_sizes:
        n //= factorial(g)
    n //= 2 ** r * factorial(r)
    return n


def _placements(total_rank: int, group_sizes, r: int) -> list:
    """[(m, pairs)] for every distinct slot placement of the brace {core
    delta^r} on total_rank = sum(group_sizes) + 2r output slots: m[i] is the
    output slot of core slot i (the groups consecutive, each group's slots
    ascending), and pairs are the r deltas (i, j), i < j, ascending.  Raises
    AssertionError unless there are embed_count(total_rank, group_sizes, r)."""
    states = [((), tuple(range(total_rank)), ())]
    for g in group_sizes:
        states = [(m + c, tuple([s for s in rest if s not in c]), ())
                  for m, rest, _ in states for c in itertools.combinations(rest, g)]
    for _ in range(r):
        states = [(m, rest[1:k] + rest[k + 1:], pairs + ((rest[0], rest[k]),))
                  for m, rest, pairs in states for k in range(1, len(rest))]
    expected = embed_count(total_rank, group_sizes, r)
    if len(states) != expected:
        raise AssertionError(f"placement count {len(states)} != {expected}")
    return [(m, pairs) for m, _, pairs in states]


def _embed_into(acc: dict, core: tuple, group_sizes, r: int, weight: int) -> None:
    """Add weight times each term of the symmetrized embedding of the raw
    polynomial core (see symmetrized_embed), on core rank + 2r slots, to acc.
    The caller picks the int weight so that the numerators in acc share one
    denominator.  Each structure is relabelled once per placement, with m as
    its slot map and the placement's deltas appended; its numerators follow."""
    if core[0] != sum(group_sizes):
        raise ValueError("group sizes must cover the core rank")
    structs = [(struct, tuple(nums.items())) for struct, nums in core[2].items()]
    for m, pairs in _placements(core[0] + 2 * r, group_sizes, r):
        for struct, monos in structs:
            moved, sign = _relabel(struct, m, pairs)
            _merge(acc, moved, monos, weight * sign)


def symmetrized_embed(core: TensorPoly, group_sizes, r: int,
                      total_rank: int) -> TensorPoly:
    """Distribute total_rank free slots over the core's slot groups plus r
    Kronecker deltas, summing over distinct placements (_placements).

    The core's slots must be grouped consecutively (group 0 first) and the core
    must be symmetric within each group; a placement assigns each group an
    unordered slot set and pairs the remaining 2r slots into deltas.
    total_rank must equal the core's rank plus 2r; it is checked here, since
    the embedding itself takes its rank from the core.
    """
    if total_rank != core.rank + 2 * r:
        raise ValueError("total rank inconsistent with delta count")
    raw = _thaw(core)
    acc: dict = {}
    _embed_into(acc, raw, group_sizes, r, 1)
    return _from_numerators(total_rank, raw[1], acc, core.prefactor)


# ---------------------------------------------------------------------------
# Harmonic (symmetric traceless) tensors
# ---------------------------------------------------------------------------

# The most terms a leaf's harmonic tensor may expand to: Y[10] (9496 terms)
# fits, Y[11] (35696) does not.  Past it, reduction runs for minutes or more.
MAX_LEAF_TERMS = 10_000


def leaf_too_large(l: int) -> bool:
    """Whether harmonic_tensor(v, l) has more than MAX_LEAF_TERMS terms.

    harmonic_tensor builds one term per slot placement of {v^(l-2r) delta^r},
    so it has T(l) = sum over r of embed_count(l, (l-2r,), r) terms, the
    partial matchings (involutions) of the l slots.  They obey T(l) = T(l-1)
    + (l-1) T(l-2), T(0) = T(1) = 1, as the last slot is unmatched or paired
    with one of the other l-1; the recurrence stops as soon as it passes the
    bound, so a huge l costs a dozen steps."""
    prev, cur = 1, 1
    for n in range(2, l + 1):
        prev, cur = cur, cur + (n - 1) * prev
        if cur > MAX_LEAF_TERMS:
            return True
    return False


def leaf_error(l: int) -> str | None:
    """Why harmonic_tensor refuses degree l, or None if it builds it: a
    negative degree, or a leaf of more than MAX_LEAF_TERMS terms."""
    if l < 0:
        return f"negative harmonic degree {l}"
    if leaf_too_large(l):
        return (f"harmonic degree {l} too large: Y[{l}] expands to "
                f"more than {MAX_LEAF_TERMS} terms")
    return None


# Bounded in entries: a cached Y[10] holds about 5.4 MiB, and one benchmark
# round uses at most 23 (symbol, l) keys.
@lru_cache(maxsize=64)
def _harmonic_cached(name: str, l: int) -> TensorPoly:
    """One term per placement of {v^(l-2r) delta^r} on the l slots, for r =
    0..l//2: the vector on the slots m, the deltas on the pairs, and the
    numerator (-1)^r (2l-2r-1)!! over l!.  Each term is its own structure,
    already canonical; the sum is frozen once."""
    acc = {}
    for r in range(l // 2 + 1):
        nums = {(): (-1) ** r * double_factorial(2 * l - 2 * r - 1)}
        for m, pairs in _placements(l, (l - 2 * r,), r):
            acc[tuple([(name, i) for i in m]), pairs, (), ()] = nums
    return _from_numerators(l, factorial(l), acc)


def harmonic_tensor(v: str, l: int) -> TensorPoly:
    """Rank-l symmetric traceless tensor of the unit vector named v:
    Y^[l](v) = sum over r of (-1)^r (2l-2r-1)!!/l! {v^(l-2r) delta^r}, the
    braces summing over the distinct placements of r deltas and the l-2r
    vectors on the l slots, one term each (_placements).

    Leading coefficient (2l-1)!!/l!; full contraction with u x ... x u yields
    the Legendre polynomial P_l(v.u).  Raises ValueError, with leaf_error's
    message, for a negative l or one past the leaf bound."""
    error = leaf_error(l)
    if error:
        raise ValueError(error)
    return _harmonic_cached(v, l)


# ---------------------------------------------------------------------------
# Even and odd couplings
# ---------------------------------------------------------------------------

def _check_triple(l1: int, l2: int, l3: int, want_parity: int) -> None:
    if not triangle_ok(l1, l2, l3):
        raise ValueError(f"triangle rule violated for ranks ({l1},{l2})->{l3}")
    if (l1 + l2 + l3) % 2 != want_parity:
        kind = "even" if want_parity == 0 else "odd"
        raise ValueError(
            f"ranks ({l1},{l2})->{l3} have the wrong parity for an {kind} coupling")


def _jays(l1: int, l2: int, l3: int) -> tuple[int, int, int, int]:
    """J = l1+l2+l3 and Ji = J-2li-1, the integers of the closed forms."""
    J = l1 + l2 + l3
    return J, J - 2 * l1 - 1, J - 2 * l2 - 1, J - 2 * l3 - 1


def kappa_even(l1: int, l2: int, l3: int) -> Fraction:
    """Normalization for couple_even: couple of harmonic(a,l1), harmonic(a,l2)
    equals harmonic(a,l3) exactly."""
    J, J1, J2, J3 = _jays(l1, l2, l3)
    return Fraction(
        factorial(l3) * double_factorial(J1) * double_factorial(J2)
        * double_factorial(J3) * factorial(J // 2),
        double_factorial(2 * l3 - 1) * factorial((J1 + 1) // 2)
        * factorial((J2 + 1) // 2) * factorial(l1) * factorial(l2),
    )


def odd_norm(l1: int, l2: int, l3: int) -> Fraction:
    """Normalization N for couple_odd, for an odd triple (J odd, so every Ji is
    even): contracting the coupling of harmonic(a,l1), harmonic(b,l2) with
    a x ... x a (l3-1 factors) gives +w * (polynomial in a.b) * (a x b) with
    w(a.b=1) = 1, the orientation of the cross product."""
    J, J1, J2, J3 = _jays(l1, l2, l3)
    return Fraction(
        2 * l3 * double_factorial(2 * l3 - 1) * factorial(J1 // 2)
        * factorial(J2 // 2) * factorial(l1) * factorial(l2),
        factorial(l3) * double_factorial(J1 + 1) * double_factorial(J2 + 1)
        * double_factorial(J3 + 1) * factorial((J + 1) // 2),
    )


# The raw rank-3 epsilon eps_ijk.
_EPS3 = (3, 1, {((), (), ((('f', 0), ('f', 1), ('f', 2)),), ()): {(): 1}})


def _coupling_sum(A: TensorPoly, B: TensorPoly, l3: int,
                  norm: Fraction, scale: CoeffAtom) -> TensorPoly:
    """scale * norm * sum over r of c_r times the rank-l3 pieces of A and B for
    the parity of l1+l2+l3: A and B contracted on k+r slot pairs, for odd
    parity an epsilon hooked to one free slot of each, then r deltas
    symmetrized in.  c_r = (-2)^r (2l3-2r-1)!! / (2l3-1)!!, and every r-core
    has denominator A.den * B.den (_EPS3 has 1), so the node's denominator,
    (2l3-1)!! A.den B.den, is known first and each core is embedded, with the
    int weight (-2)^r (2l3-2r-1)!!, as soon as it is made.  Every step stays
    raw; the node is frozen once."""
    l1, l2 = A.rank, B.rank
    parity = (l1 + l2 + l3) % 2
    k = (l1 + l2 - l3 - parity) // 2
    a, b = _thaw(A), _thaw(B)
    acc: dict = {}
    for r in range(min(l1, l2) - k - parity + 1):
        core = _traceless_raw(a, b, k + r)
        g1, g2 = l1 - k - r - parity, l2 - k - r - parity
        if parity:
            # eps_ijk A_j... B_k... : hook the epsilon to one A slot and one B slot
            core = _contract_raw(_EPS3, core, [(1, g1), (2, g1 + 1)])
        _embed_into(acc, core, [1] * parity + [g1, g2], r,
                    (-2) ** r * double_factorial(2 * l3 - 2 * r - 1))
    return _from_numerators(l3, double_factorial(2 * l3 - 1) * A.den * B.den, acc,
                            _product_factor(A, B, atom_mul(scale, CoeffAtom(norm))))


def couple_even(A: TensorPoly, B: TensorPoly, l3: int,
                scale: CoeffAtom = ATOM_ONE) -> TensorPoly:
    """Even-parity coupling of symmetric traceless tensors to rank l3, times
    the atom scale."""
    _check_triple(A.rank, B.rank, l3, 0)
    return _coupling_sum(A, B, l3, 1 / kappa_even(A.rank, B.rank, l3), scale)


def couple_odd(A: TensorPoly, B: TensorPoly, l3: int,
               scale: CoeffAtom = ATOM_ONE) -> TensorPoly:
    """Odd-parity (epsilon-bearing) coupling of symmetric traceless tensors,
    times the atom scale."""
    _check_triple(A.rank, B.rank, l3, 1)
    return _coupling_sum(A, B, l3, odd_norm(A.rank, B.rank, l3), scale)

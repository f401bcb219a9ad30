"""The scan-and-fuse contraction that tensor.contract_slots replaced, kept as
a reference for tests/test_contraction.py.

Raw terms are dicts of lists; _resolve_bonds fuses one bond at a time and
rescans every factor after each fusion, and any term left with two or more
epsilon-like factors goes through the 3x3 determinant identity.  Slow, but
simple enough to trust.  Entries are ('f', slot), ('s', sym) or ('b', bond).
"""

from fractions import Fraction

from cartensor.coeff import ATOM_ONE, CoeffAtom, atom_mul
from cartensor.tensor import TensorPoly, TensorTerm

from helpers import poly_of


def _shape(a: CoeffAtom) -> CoeffAtom:
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
    return poly_of(rank, out, _shape(factor))


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



def reference_contract_slots(p1: TensorPoly, p2: TensorPoly, pairs) -> TensorPoly:
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


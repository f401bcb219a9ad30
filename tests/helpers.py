"""Constructions that only the tests use.

The package keeps only what reduce, verify, the CLI and the benchmark call;
the exact API that only the tests call lives here:
  * term_atom(poly, t), a term's exact coefficient, and to_float(a);
  * contract(p1, p2, k), traceless_contract(A, B, k) and
    poly_permute_slots(p, perm), thaw/freeze wrappers over the engine's raw
    core;
  * clebsch_gordan, the exact Clebsch-Gordan reference built on the Racah
    3j sum, and rho(l), the exact bridge constant that oracle.rho_float
    computes in floats.

Besides these: a TensorPoly from its terms, the atom that atom_to_json wrote,
a vector's outer power, the harmonic tensor built by symmetrized embedding,
polynomial constants, negation, subtraction and full contraction, a cross
product, the closed-form pair-coupling constant, the coupling sum built step
by step from public operations, the odd-coupling normalization found by
probing, float Clebsch-Gordan values, a checked unit-vector type, Legendre
polynomials, the closed rank-1 pair identities checked against the oracle,
and the result renderers as they stood before they cached fragments."""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from cartensor.coeff import (ATOM_ONE, ATOM_ZERO, CoeffAtom, atom, atom_mul,
                            atom_to_json, double_factorial, factorial)
from cartensor.tensor import (TensorPoly, TensorTerm, _bonds, _from_numerators, _merge,
                              _product_factor, _relabel, _thaw, _traceless_raw,
                              contract_slots, harmonic_tensor, poly_add, poly_scale,
                              symmetrized_embed)
from cartensor.oracle import DEFAULT_SEED, eval_expr_components, sample_unit_vectors
from cartensor.parser import _atom, _slot
from cartensor.reduce import Couple, Harmonic
from cartensor.wigner import three_j


def term_atom(poly: TensorPoly, t: TensorTerm) -> CoeffAtom:
    """The exact coefficient of poly's term t, prefactor * t.coeff, as a
    canonical atom."""
    p = poly.prefactor
    return CoeffAtom(t.coeff, p.radicand, p.pi_half, p.i_pow)


def to_float(a: CoeffAtom):
    """a's float value; a complex number if a is imaginary."""
    z = a.to_complex()
    if z.imag == 0.0:
        return z.real
    return z


def contract(p1: TensorPoly, p2: TensorPoly, k: int) -> TensorPoly:
    """Contract the last k slots of p1 with the first k slots of p2 (k=0 is the
    outer product)."""
    return contract_slots(p1, p2, _bonds(p1.rank, p2.rank, k))


def traceless_contract(A: TensorPoly, B: TensorPoly, k: int) -> TensorPoly:
    """The last k slots of A contracted with the first k of B, for symmetric
    traceless A and B, without the products that sum to zero."""
    return _from_numerators(*_traceless_raw(_thaw(A), _thaw(B), k),
                            _product_factor(A, B, ATOM_ONE))


def poly_permute_slots(p: TensorPoly, perm) -> TensorPoly:
    """Relabel free slots: slot i -> perm[i].  perm is a sequence or mapping,
    and a permutation of range(p.rank)."""
    rank = p.rank
    try:
        m = [perm[i] for i in range(rank)]
    except (IndexError, KeyError):
        m = None
    if m is None or len(perm) != rank or sorted(m) != list(range(rank)):
        raise ValueError(f"{perm!r} is not a permutation of the {rank} slots")
    acc: dict = {}
    for struct, monos in p.groups:
        moved, sign = _relabel(struct, m)
        _merge(acc, moved, monos, sign)
    return _from_numerators(rank, p.den, acc, p.prefactor)


@lru_cache(maxsize=None)
def clebsch_gordan(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> CoeffAtom:
    """<l1 m1 l2 m2 | l3 m3>, exact."""
    if m1 + m2 != m3:
        return ATOM_ZERO
    tj = three_j(l1, l2, l3, m1, m2, -m3)
    if tj.rat == 0:
        return ATOM_ZERO
    sign = -1 if (l1 - l2 + m3) % 2 else 1
    return atom_mul(atom(sign), atom_mul(atom(1, 2 * l3 + 1), tj))


def rho(l: int) -> CoeffAtom:
    """oracle.rho_float(l), exact: sqrt((2l+1) l!/(2l-1)!!) / (2 sqrt(pi))."""
    return atom(Fraction(1, 2),
                Fraction((2 * l + 1) * factorial(l), double_factorial(2 * l - 1)),
                -1)


def poly_of(rank: int, terms, prefactor: CoeffAtom = ATOM_ONE) -> TensorPoly:
    """prefactor * the sum of terms, TensorTerms with distinct keys and nonzero
    coefficients, as a TensorPoly: grouped by structure over the lcm of the
    coefficient denominators.  The terms are not validated, so a malformed one
    reaches the code under test."""
    terms = list(terms)
    if not terms:
        return TensorPoly(rank)
    den = lcm(*[t.coeff.denominator for t in terms])
    groups: dict = {}
    for t in terms:
        groups.setdefault((t.vecs, t.deltas, t.epses, t.boxes), []).append(
            (t.dots, t.coeff.numerator * (den // t.coeff.denominator)))
    return TensorPoly(rank, prefactor, den,
                      tuple(sorted((s, tuple(sorted(m))) for s, m in groups.items())))


def vector_power(v: str, l: int) -> TensorPoly:
    """The plain outer product v x v x ... x v (rank l) of the symbol v."""
    vecs = tuple((v, i) for i in range(l))
    return TensorPoly(l, ATOM_ONE, 1, (((vecs, (), (), ()), (((), 1),)),))


def reference_harmonic(v: str, l: int) -> TensorPoly:
    """harmonic_tensor(v, l) built from public operations: the sum over r of
    (-1)^r (2l-2r-1)!!/l! times v^(l-2r) symmetrized with r deltas."""
    T = TensorPoly(l)
    for r in range(l // 2 + 1):
        core = symmetrized_embed(vector_power(v, l - 2 * r), [l - 2 * r], r, l)
        T = poly_add(T, poly_scale(core, Fraction((-1) ** r * double_factorial(2 * l - 2 * r - 1),
                                                  factorial(l))))
    return T


def scalar_poly(coeff=ATOM_ONE) -> TensorPoly:
    """The rank-0 constant coeff, a CoeffAtom or a rational."""
    return poly_scale(poly_of(0, [TensorTerm(Fraction(1))]), coeff)


def poly_neg(p: TensorPoly) -> TensorPoly:
    return poly_scale(p, -1)


def poly_sub(p1: TensorPoly, p2: TensorPoly) -> TensorPoly:
    return poly_add(p1, poly_neg(p2))


def full_contract(p1: TensorPoly, p2: TensorPoly) -> TensorPoly:
    if p1.rank != p2.rank:
        raise ValueError("full contraction requires equal ranks")
    return contract(p1, p2, p1.rank)


def atom_from_json(obj: dict) -> CoeffAtom:
    """The atom whose atom_to_json is obj."""
    return CoeffAtom(Fraction(obj["num"], obj["den"]),
                     Fraction(obj["radicand_num"], obj["radicand_den"]),
                     obj["pi_half"], obj["i_pow"])


def cross_vector(v1: str, v2: str) -> TensorPoly:
    """The rank-1 tensor (v1 x v2) = eps_i,v1,v2, in canonical form."""
    if v1 == v2:
        return TensorPoly(1)
    s1, s2 = sorted((v1, v2))
    eps = (('f', 0), ('s', s1), ('s', s2))
    return poly_of(1, [TensorTerm(Fraction(1 if v1 < v2 else -1), epses=(eps,))])


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


_EPS3 = poly_of(3, [TensorTerm(Fraction(1), epses=((('f', 0), ('f', 1), ('f', 2)),))])


def reference_coupling_sum(A: TensorPoly, B: TensorPoly, l3: int, parity: int,
                           norm: Fraction, scale: CoeffAtom = ATOM_ONE) -> TensorPoly:
    """scale * norm * the sum over r of the rank-l3 pieces of A and B, as
    tensor._coupling_sum defines it, built one public operation at a time:
    every contraction, epsilon hook, embedding and partial sum is a
    TensorPoly of its own."""
    l1, l2 = A.rank, B.rank
    k = (l1 + l2 - l3 - parity) // 2
    T = TensorPoly(l3)
    for r in range(min(l1, l2) - k - parity + 1):
        core = traceless_contract(A, B, k + r)
        g1, g2 = l1 - k - r - parity, l2 - k - r - parity
        if parity:
            # eps_ijk A_j... B_k... : hook the epsilon to one A slot and one B slot
            core = contract_slots(_EPS3, core, [(1, g1), (2, g1 + 1)])
        c = Fraction((-2) ** r * double_factorial(2 * l3 - 2 * r - 1),
                     double_factorial(2 * l3 - 1))
        T = poly_add(T, poly_scale(symmetrized_embed(core, [1] * parity + [g1, g2], r, l3), c))
    return poly_scale(T, atom_mul(scale, CoeffAtom(norm)))


def odd_norm_probe(l1: int, l2: int, l3: int) -> Fraction:
    """The normalization N of couple_odd, found on the harmonic-tensor
    instance rather than from its closed form.

    Builds the raw odd coupling sum of harmonic(a,l1), harmonic(b,l2) at unit
    normalization and contracts it with a x ... x a (l3-1 factors).  That must
    give w * (polynomial in a.b) * (a x b); N = 1/w(a.b=1), and the orientation
    requirement w(1) > 0 pins the sign."""
    T = reference_coupling_sum(harmonic_tensor('a', l1), harmonic_tensor('b', l2),
                               l3, 1, Fraction(1))
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


@lru_cache(maxsize=None)
def cg_float(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Float Clebsch-Gordan value."""
    return float(to_float(clebsch_gordan(l1, m1, l2, m2, l3, m3)))


@dataclass(frozen=True)
class UnitVector:
    """A 3-vector of norm 1 (to 1e-12); numpy reads it as its components."""
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"not a unit vector (norm {n})")

    def __array__(self, dtype=None, copy=None):
        return np.array([self.x, self.y, self.z], dtype=dtype)


def legendre(n: int, x):
    """P_n(x), vectorized; n = -1 returns 1 by convention."""
    x = np.asarray(x, dtype=float)
    if n <= 0:
        return np.ones_like(x)
    pprev = np.ones_like(x)
    pcur = x.copy()
    for k in range(2, n + 1):
        pprev, pcur = pcur, ((2 * k - 1) * x * pcur - (k - 1) * pprev) / k
    return pcur


def legendre_prime(n: int, x):
    """d/dx P_n(x), vectorized; n = -1 returns 0 by convention."""
    x = np.asarray(x, dtype=float)
    if n <= 0:
        return np.zeros_like(x)
    dprev = np.zeros_like(x)  # P'_0
    pprev = np.ones_like(x)   # P_0
    pcur = x.copy()           # P_1
    dcur = np.ones_like(x)    # P'_1
    for k in range(2, n + 1):
        dprev, dcur = dcur, dprev + (2 * k - 1) * pcur
        pprev, pcur = pcur, ((2 * k - 1) * x * pcur - (k - 1) * pprev) / k
    return dcur


def legendre_coeffs(l: int) -> dict:
    """Exact monomial coefficients of P_l as {power: Fraction}."""
    out = {}
    for k in range(l // 2 + 1):
        c = Fraction((-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l),
                     2 ** l)
        out[l - 2 * k] = c
    return out


def reduce_pair_identities(l1: int, l2: int, samples: int = 50,
                           seed: int | None = None) -> dict:
    """Numerically confirm the closed rank-1 forms for [Y^[l1](a) x Y^[l2](b)][1].

    Two families are covered: equal degrees (l, l), whose value is
      (-i/4pi) sqrt(3(2l+1)/(l(l+1))) P_l'(a.b) (a x b)_m,
    and consecutive degrees (l-1, l), whose value is
      (-i/4pi) sqrt(3/l) [P_l'(a.b) b_m - ((l-1) P_{l-2}(a.b)
                          + (a.b) P_{l-2}'(a.b)) a_m],
    with standard spherical components on the right-hand sides and the
    conventions P_{-1} = 1, P_{-1}' = 0.  Returns a small report dict; the
    comparison is against the direct oracle evaluation of the coupled
    harmonics, so it is independent of the symbolic engine.
    """
    if l1 == l2 and l1 >= 1:
        form = "equal"
        l = l1
    elif l2 == l1 + 1:
        form = "consecutive"
        l = l2
    else:
        raise ValueError("supported pairs: (l, l) with l>=1, or (l-1, l)")
    if seed is None:
        seed = DEFAULT_SEED
    expr = Couple(Harmonic(l1, 'a'), Harmonic(l2, 'b'), 1)
    vecs = sample_unit_vectors(seed, samples, ['a', 'b'])
    a, b = vecs['a'], vecs['b']
    x = np.sum(a * b, axis=1)
    direct = eval_expr_components(expr, vecs)  # shape (3, samples), m=-1,0,1

    def std_components(v):
        # standard spherical components of a real vector, rows m = -1, 0, +1
        return np.stack([
            (v[:, 0] - 1j * v[:, 1]) / np.sqrt(2.0),
            v[:, 2] + 0j,
            -(v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0),
        ])

    if form == "equal":
        pref = -1j / (4 * np.pi) * np.sqrt(3 * (2 * l + 1) / (l * (l + 1)))
        cross = np.cross(a, b)
        closed = pref * legendre_prime(l, x) * std_components(cross)
    else:
        pref = -1j / (4 * np.pi) * np.sqrt(3 / l)
        closed = pref * (
            legendre_prime(l, x) * std_components(b)
            - ((l - 1) * legendre(l - 2, x)
               + x * legendre_prime(l - 2, x)) * std_components(a))

    err = float(np.max(np.abs(direct - closed)))
    return {
        "l1": l1, "l2": l2, "form": form, "samples": samples, "seed": seed,
        "max_abs_err": err, "pass": err <= 1e-10,
    }


def _term_degree(t) -> int:
    deg = sum(e for _, _, e in t.dots) + 3 * len(t.boxes)
    deg += len(t.vecs) + sum(1 for e in t.epses for x in e if x[0] == 's')
    return deg


def _common_factor(poly):
    """Factor a nonzero polynomial as sign * positive atom * (integer terms).

    Returns (sign, atom, [(int_coeff, term), ...]) with the terms in display
    order and the first integer positive.  The atom's shape is the prefactor's;
    its rational part is the gcd of the term coefficients."""
    terms = sorted(poly.terms, key=lambda t: (-_term_degree(t), t.key))
    rats = [t.coeff for t in terms]
    top = gcd(*[r.numerator for r in rats])
    bottom = lcm(*[r.denominator for r in rats])
    sign = 1 if rats[0] > 0 else -1
    factor = CoeffAtom(Fraction(top, bottom), poly.prefactor.radicand,
                       poly.prefactor.pi_half, poly.prefactor.i_pow)
    div = sign * top
    return sign, factor, [(r.numerator * (bottom // r.denominator) // div, t)
                          for r, t in zip(rats, terms)]


def _monomial(t, style) -> str:
    parts = [style.dot.format(s1, s2) if e == 1
             else style.power.format(style.dot.format(s1, s2), e)
             for s1, s2, e in t.dots]
    parts += [style.box.format(*b) for b in t.boxes]
    parts += [style.vec.format(s, _slot(i)) for s, i in t.vecs]
    parts += [style.delta.format(_slot(i), _slot(j)) for i, j in t.deltas]
    parts += [style.eps.format(",".join(_slot(x) if kind == 'f' else style.symbol.format(x)
                                        for kind, x in e))
              for e in t.epses]
    return style.factors.join(parts)


def reference_render(poly: TensorPoly, style) -> str:
    """The text or LaTeX body of poly in style (parser._TEXT or parser._LATEX),
    term by term: every term is sorted by (-degree, key) and formatted on its
    own."""
    if poly.is_zero:
        return "0"
    sign, factor, inner = _common_factor(poly)
    fact = ("-" if sign < 0 else "") + _atom(factor, style)
    if len(inner) == 1:
        mono = _monomial(inner[0][1], style)
        return style.lone.format(fact, mono) if mono else fact
    pieces = []
    for n, (c, t) in enumerate(inner):
        mono = _monomial(t, style)
        mag = abs(c)
        body = (mono if mag == 1 else style.factors.join([str(mag), mono])) if mono else str(mag)
        pieces.append(body if n == 0 else f" {'+' if c > 0 else '-'} {body}")
    return style.group.format(fact, "".join(pieces))


def reference_render_json(result) -> str:
    """The schema-1 JSON of result, built as one dict per term and dumped."""
    shared = atom_to_json(result.poly.prefactor)
    terms = []
    for t in result.poly.terms:
        free = []
        for s, i in t.vecs:
            free.append(["vec", i, s])
        for i, j in t.deltas:
            free.append(["delta", i, j])
        for e in t.epses:
            free.append(["eps"] + [x[1] for x in e])
        terms.append({
            "coeff": [{**shared, "num": t.coeff.numerator, "den": t.coeff.denominator}],
            "dots": [[s1, s2, e] for s1, s2, e in t.dots],
            "boxes": [list(b) for b in t.boxes],
            "free_slots": free,
        })
    return json.dumps({"schema": 1, "rank": result.poly.rank, "terms": terms})

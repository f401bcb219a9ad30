"""Acceptance tests: the delivery contract for the package.

Five groups:

1.  Corpus fidelity -- the 26 bundled scalar couplings reduce to exactly the
    frozen constants and integer dot-product patterns below, and every entry
    passes the brute-force oracle at 200 configurations within 1e-10, all in
    under a minute.  Two entries (A4, A6) carry constants that the reference
    listing misprints; their values here were derived from the numeric oracle
    alone (aligned-configuration ratio) and that derivation is re-run as part
    of this suite.
2.  Worked examples -- the small pair/triple reductions documented in the
    README hold exactly at the level of engine primitives.
3.  Identities -- the Legendre contraction, the same-argument coupling
    constant, odd couplings against the oracle, and the closed-form rank-one
    reduction families.
4.  Structural guarantees -- symmetry, trace-freedom, term counts, parity,
    reality, and box-product placement.
5.  Randomized verification -- 50 deterministic pseudo-random couplings agree
    with the oracle.
"""

import json
import math
import random
import string
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cartensor.cli import _default_corpus_path, _load_corpus
from cartensor.coeff import ATOM_ONE, CoeffAtom, atom, atom_mul
from cartensor.oracle import (
    eval_expr,
    eval_poly_batch,
    sample_unit_vectors,
    verify,
)
from cartensor.parser import parse, render_expr_text
from cartensor.reduce import (
    Couple,
    Harmonic,
    expr_rank,
    q_factor,
    r_factor,
    reduce_expr,
    s_factor,
)
from cartensor.tensor import (
    TensorPoly,
    TensorTerm,
    _from_numerators,
    _thaw,
    contract_slots,
    couple_even,
    couple_odd,
    embed_count,
    harmonic_tensor,
    odd_norm,
    symmetrized_embed,
)

from helpers import (UnitVector, cg_float, couple_constant, full_contract, legendre_coeffs,
                     poly_of, poly_permute_slots, poly_sub, reduce_pair_identities,
                     term_atom, to_float, vector_power)

CORPUS_ENTRIES = [(e["id"], e["expr"], e["note"])
                  for e in _load_corpus(_default_corpus_path())]

DIGEST_RANK_2_UP = [
    e["expr"] for e in json.loads((Path(__file__).parent / "data" / "output_digests.json")
                                  .read_text(encoding="utf-8"))
    if expr_rank(parse(e["expr"])) >= 2]

# ---------------------------------------------------------------------------
# Frozen expectations for the 26 corpus entries.
#
# Constant (p, q, rn, rd, h) means (p/q) * sqrt(rn/rd) * pi**(h/2).  The term
# string lists integer coefficients against dot-product monomials ("ac^2 bc"
# is (a.c)^2 (b.c)); a bare integer is the constant monomial.  The full result
# is constant * sum(integer * monomial).
# ---------------------------------------------------------------------------

FROZEN = [
    ("A1", "[Y[2](a) x [Y[1](b) x Y[3](c)][2]][0]",
     (3, 16, 1, 1, -3),
     "5 ac^2 bc; -2 ab ac; -1 bc"),
    ("A2", "[[Y[2](a) x Y[2](b)][2] x Y[2](c)][0]",
     (5, 8, 1, 14, -3),
     "9 ab ac bc; -3 ab^2; -3 ac^2; -3 bc^2; 2"),
    ("A3", "[Y[1](a) x [Y[1](b) x Y[2](c)][1]][0]",
     (1, 8, 3, 2, -3),
     "3 ac bc; -1 ab"),
    ("A4", "[[Y[1](a) x Y[1](b)][2] x [Y[1](c) x Y[1](d)][2]][0]",
     (3, 160, 5, 1, -4),
     "3 ac bd; 3 ad bc; -2 ab cd"),
    ("A5", "[[Y[1](a) x Y[1](b)][2] x [Y[3](c) x Y[1](d)][2]][0]",
     (3, 80, 15, 2, -4),
     "5 ac bc cd; -1 ac bd; -1 ad bc; -1 ab cd"),
    ("A6", "[[Y[1](a) x Y[3](b)][2] x [Y[1](c) x Y[3](d)][2]][0]",
     (3, 160, 5, 1, -4),
     "-10 ad bd cd; 25 ab bd^2 cd; -3 ab cd; 2 ac bd; 2 ad bc; -10 ab bc bd"),
    ("A7", "[[Y[2](a) x Y[2](b)][1] x [Y[1](c) x Y[1](d)][1]][0]",
     (3, 32, 15, 1, -4),
     "1 ab ac bd; -1 ab ad bc"),
    ("A8", "[[Y[2](a) x Y[2](b)][2] x [Y[1](c) x Y[1](d)][2]][0]",
     (1, 32, 15, 7, -4),
     "-6 ab^2 cd; 4 cd; -6 ac ad; 9 ab ac bd; 9 ab ad bc; -6 bc bd"),
    ("A9", "[[Y[2](a) x Y[2](b)][2] x [Y[1](c) x Y[3](d)][2]][0]",
     (3, 16, 5, 14, -4),
     "-5 ad^2 cd; 15 ab ad bd cd; -5 bd^2 cd; -3 ab^2 cd; 2 cd; 2 ac ad; "
     "-3 ab ac bd; -3 ab ad bc; 2 bc bd"),
    ("A10", "[[[Y[2](a) x Y[2](b)][1] x Y[2](c)][1] x [Y[2](d) x Y[2](e)][1]][0]",
     (15, 64, 3, 2, -5),
     "3 ab de ac bd ce; -3 ab de ac be cd; -3 ab de ad bc ce; 2 ab de ad be; "
     "3 ab de ae bc cd; -2 ab de ae bd"),
    ("A11", "[[[Y[2](a) x Y[2](b)][1] x Y[2](c)][2] x [Y[2](d) x Y[2](e)][2]][0]",
     (15, 64, 15, 14, -5),
     "-2 ab ac bd cd; 3 ab ac bd ce de; 3 ab ac be cd de; -2 ab ac be ce; "
     "2 ab ad bc cd; -3 ab ad bc ce de; -3 ab ae bc cd de; 2 ab ae bc ce"),
    ("A12", "[[[Y[2](a) x Y[2](b)][2] x Y[2](c)][1] x [Y[2](d) x Y[2](e)][1]][0]",
     (15, 64, 15, 14, -5),
     "3 de ab ac bd ce; -3 de ab ac be cd; 3 de ab ad bc ce; "
     "-3 de ab ae bc cd; -2 de ac ad ce; 2 de ac ae cd; -2 de bc bd ce; "
     "2 de bc be cd"),
    ("A13", "[[[Y[2](a) x Y[2](b)][2] x Y[2](c)][2] x [Y[2](d) x Y[2](e)][2]][0]",
     (25, 448, 1, 14, -5),
     "36 ab^2 cd^2; -108 ab^2 cd ce de; 36 ab^2 ce^2; 72 ab^2 de^2; "
     "-48 ab^2; -108 ab ac bc de^2; 72 ab ac bc; -54 ab ac bd cd; "
     "81 ab ac bd ce de; 81 ab ac be cd de; -54 ab ac be ce; "
     "-54 ab ad bc cd; 81 ab ad bc ce de; 36 ab ad bd; -54 ab ad be de; "
     "81 ab ae bc cd de; -54 ab ae bc ce; -54 ab ae bd de; 36 ab ae be; "
     "36 ac^2 de^2; -24 ac^2; 36 ac ad cd; -54 ac ad ce de; "
     "-54 ac ae cd de; 36 ac ae ce; -12 ad^2; 36 ad ae de; -12 ae^2; "
     "36 bc^2 de^2; -24 bc^2; 36 bc bd cd; -54 bc bd ce de; "
     "-54 bc be cd de; 36 bc be ce; -12 bd^2; 36 bd be de; -12 be^2; "
     "-24 cd^2; 72 cd ce de; -24 ce^2; -48 de^2; 32"),
    ("A14", "[[[Y[2](a) x Y[2](b)][1] x Y[2](c)][1] x [Y[1](d) x Y[1](e)][1]][0]",
     (3, 64, 15, 2, -5),
     "3 ab ac bd ce; -3 ab ac be cd; -3 ab ad bc ce; 2 ab ad be; "
     "3 ab ae bc cd; -2 ab ae bd"),
    ("A15", "[[[Y[2](a) x Y[2](b)][1] x Y[2](c)][2] x [Y[1](d) x Y[1](e)][2]][0]",
     (9, 64, 5, 2, -5),
     "1 ab ac bd ce; 1 ab ac be cd; -1 ab ad bc ce; -1 ab ae bc cd"),
    ("A16", "[[[Y[2](a) x Y[2](b)][2] x Y[2](c)][1] x [Y[1](d) x Y[1](e)][1]][0]",
     (15, 64, 3, 14, -5),
     "3 ab ac bd ce; -3 ab ac be cd; 3 ab ad bc ce; -3 ab ae bc cd; "
     "-2 ac ad ce; 2 ac ae cd; -2 bc bd ce; 2 bc be cd"),
    ("A17", "[[[Y[2](a) x Y[2](b)][2] x Y[2](c)][2] x [Y[1](d) x Y[1](e)][2]][0]",
     (5, 448, 3, 2, -5),
     "-36 ab^2 cd ce; 24 ab^2 de; -36 ab ac bc de; 27 ab ac bd ce; "
     "27 ab ac be cd; 27 ab ad bc ce; -18 ab ad be; 27 ab ae bc cd; "
     "-18 ab ae bd; 12 ac^2 de; -18 ac ad ce; -18 ac ae cd; 12 ad ae; "
     "12 bc^2 de; -18 bc bd ce; -18 bc be cd; 12 bd be; 24 cd ce; -16 de"),
    ("A18", "[[[Y[2](a) x Y[2](b)][1] x Y[2](c)][2] x [Y[1](d) x Y[3](e)][2]][0]",
     (3, 64, 15, 1, -5),
     "-1 ab ac bd ce; -1 ab ac be cd; 5 ab ac be ce de; 1 ab ad bc ce; "
     "1 ab ae bc cd; -5 ab ae bc ce de"),
    ("A19", "[[[Y[2](a) x Y[2](b)][2] x Y[2](c)][2] x [Y[1](d) x Y[3](e)][2]][0]",
     (15, 448, 1, 1, -5),
     "12 ab^2 cd ce; -30 ab^2 ce^2 de; 12 ab^2 de; -18 ab ac bc de; "
     "-9 ab ac bd ce; -9 ab ac be cd; 45 ab ac be ce de; -9 ab ad bc ce; "
     "6 ab ad be; -9 ab ae bc cd; 45 ab ae bc ce de; 6 ab ae bd; "
     "-30 ab ae be de; 6 ac^2 de; 6 ac ad ce; 6 ac ae cd; -30 ac ae ce de; "
     "-4 ad ae; 10 ae^2 de; 6 bc^2 de; 6 bc bd ce; 6 bc be cd; "
     "-30 bc be ce de; -4 bd be; 10 be^2 de; -8 cd ce; 20 ce^2 de; -8 de"),
    ("A20", "[[[Y[1](a) x Y[1](b)][1] x Y[2](c)][1] x [Y[1](d) x Y[1](e)][1]][0]",
     (3, 64, 3, 2, -5),
     "3 ac bd ce; -3 ac be cd; -3 ad bc ce; 2 ad be; 3 ae bc cd; -2 ae bd"),
    ("A21", "[[[Y[1](a) x Y[1](b)][2] x Y[2](c)][2] x [Y[1](d) x Y[1](e)][2]][0]",
     (3, 64, 1, 14, -5),
     "-12 ab cd ce; 8 ab de; -12 ac bc de; 9 ac bd ce; 9 ac be cd; "
     "9 ad bc ce; -6 ad be; 9 ae bc cd; -6 ae bd"),
    ("A22", "[[[Y[1](a) x Y[1](b)][1] x Y[2](c)][2] x [Y[1](d) x Y[3](e)][2]][0]",
     (3, 64, 3, 1, -5),
     "-1 ac bd ce; -1 ac be cd; 5 ac be ce de; 1 ad bc ce; 1 ae bc cd; "
     "-5 ae bc ce de"),
    ("A23", "[[[Y[1](a) x Y[1](b)][2] x Y[2](c)][2] x [Y[1](d) x Y[3](e)][2]][0]",
     (3, 64, 3, 7, -5),
     "4 ab cd ce; -10 ab ce^2 de; 4 ab de; -6 ac bc de; -3 ac bd ce; "
     "-3 ac be cd; 15 ac be ce de; -3 ad bc ce; 2 ad be; -3 ae bc cd; "
     "15 ae bc ce de; 2 ae bd; -10 ae be de"),
    ("A24", "[[[Y[1](a) x Y[3](b)][2] x Y[2](c)][1] x [Y[1](d) x Y[1](e)][1]][0]",
     (3, 64, 3, 1, -5),
     "5 ab bc bd ce; -5 ab bc be cd; -1 ac bd ce; 1 ac be cd; -1 ad bc ce; "
     "1 ae bc cd"),
    ("A25", "[[[Y[1](a) x Y[3](b)][2] x Y[2](c)][2] x [Y[1](d) x Y[1](e)][2]][0]",
     (3, 64, 3, 7, -5),
     "-10 ab bc^2 de; 15 ab bc bd ce; 15 ab bc be cd; -10 ab bd be; "
     "-6 ab cd ce; 4 ab de; 4 ac bc de; -3 ac bd ce; -3 ac be cd; "
     "-3 ad bc ce; 2 ad be; -3 ae bc cd; 2 ae bd"),
    ("A26", "[[[Y[1](a) x Y[3](b)][2] x Y[2](c)][2] x [Y[1](d) x Y[3](e)][2]][0]",
     (3, 32, 1, 14, -5),
     "-15 ab bc^2 de; -15 ab bc bd ce; -15 ab bc be cd; 75 ab bc be ce de; "
     "10 ab bd be; -25 ab be^2 de; 6 ab cd ce; -15 ab ce^2 de; 6 ab de; "
     "6 ac bc de; 3 ac bd ce; 3 ac be cd; -15 ac be ce de; 3 ad bc ce; "
     "-2 ad be; 3 ae bc cd; -15 ae bc ce de; -2 ae bd; 10 ae be de"),
]

FROZEN_BY_ID = {cid: (expr, const, terms) for cid, expr, const, terms in FROZEN}


def parse_monomials(spec: str) -> dict:
    """'5 ac^2 bc; -1 ab' -> {((a,c,2),(b,c,1)): 5, ((a,b,1),): -1}."""
    out = {}
    for chunk in spec.split(";"):
        parts = chunk.split()
        n = int(parts[0])
        dots = []
        for tok in parts[1:]:
            pair, _, e = tok.partition("^")
            dots.append((pair[0], pair[1], int(e) if e else 1))
        key = tuple(sorted(dots))
        assert key not in out, f"duplicate monomial {key}"
        out[key] = n
    return out


def scalar_coeff(const, n: int) -> CoeffAtom:
    p, q, rn, rd, h = const
    return atom(Fraction(p * n, q), Fraction(rn, rd), h)


DELTA = poly_of(2, [TensorTerm(Fraction(1), deltas=((0, 1),))])


def trace(poly: TensorPoly, i: int, j: int) -> TensorPoly:
    return contract_slots(poly, DELTA, [(i, 0), (j, 1)])


def fully_symmetric(poly: TensorPoly) -> bool:
    for k in range(poly.rank - 1):
        perm = list(range(poly.rank))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        if not poly_sub(poly_permute_slots(poly, tuple(perm)), poly).is_zero:
            return False
    return True


def delta_terms_times_7(poly: TensorPoly) -> TensorPoly:
    """poly with every term that carries a Kronecker delta multiplied by 7."""
    rank, den, raw = _thaw(poly)
    return _from_numerators(rank, den, {
        struct: {dots: 7 * n if struct[1] else n for dots, n in nums.items()}
        for struct, nums in raw.items()}, poly.prefactor)


# ---------------------------------------------------------------------------
# 1. Corpus fidelity
# ---------------------------------------------------------------------------

class TestCorpusFidelity:
    def test_frozen_table_matches_shipped_corpus(self):
        assert [(cid, expr) for cid, expr, _, _ in FROZEN] == \
            [(cid, expr) for cid, expr, _ in CORPUS_ENTRIES]

    @pytest.mark.parametrize("cid", [row[0] for row in FROZEN])
    def test_exact_symbolic_form(self, cid):
        expr_s, const, terms_s = FROZEN_BY_ID[cid]
        result = reduce_expr(parse(expr_s))
        assert result.rank == 0
        assert result.parity == "even"
        expected = parse_monomials(terms_s)
        assert len(result.poly.terms) == len(expected)
        for t in result.poly.terms:
            assert t.vecs == () and t.deltas == ()
            assert t.epses == () and t.boxes == ()
            key = tuple(sorted(t.dots))
            assert key in expected, f"unexpected monomial {key}"
            assert term_atom(result.poly, t) == scalar_coeff(const, expected[key]), key

    def test_oracle_all_entries_within_budget(self):
        start = time.time()
        for cid, expr_s, _, _ in FROZEN:
            rep = verify(expr_s, n_samples=200, tol=1e-10)
            assert rep.passed, (cid, rep.max_abs_err)
            assert rep.max_abs_err <= 1e-10
        assert time.time() - start < 60.0

    @pytest.mark.parametrize("cid,braces_sum", [("A4", 4), ("A6", 6)])
    def test_repaired_constants_rederive_from_oracle(self, cid, braces_sum):
        """A4/A6 constants come from the oracle, not the damaged listing.

        With every direction aligned, each dot product is 1 and the bracket
        collapses to the sum of its integer coefficients, so the overall
        constant is the oracle value divided by that sum.
        """
        expr_s, const, terms_s = FROZEN_BY_ID[cid]
        monos = parse_monomials(terms_s)
        assert sum(monos.values()) == braces_sum
        z = UnitVector(0.0, 0.0, 1.0)
        symbols = sorted({s for key in monos for (s1, s2, _) in [*key]
                          for s in (s1, s2)})
        val = eval_expr(parse(expr_s), {s: z for s in symbols})[0]
        assert abs(val.imag) < 1e-14
        k_oracle = val.real / braces_sum
        p, q, rn, rd, h = const
        k_frozen = to_float(atom(Fraction(p, q), Fraction(rn, rd), h))
        assert k_oracle == pytest.approx(k_frozen, abs=1e-12)

    def test_repaired_constants_are_flagged_in_corpus_notes(self):
        notes = {cid: note for cid, _, note in CORPUS_ENTRIES}
        assert "constant" in notes["A4"]
        assert "constant" in notes["A6"]


# ---------------------------------------------------------------------------
# 2. Worked examples
# ---------------------------------------------------------------------------

class TestWorkedExamples:
    def test_rank2_pair_core(self):
        """[Y1(c) x Y1(d)]^2 core: (3/4)(c_i d_j + c_j d_i) - (1/2)(c.d) delta."""
        Q = couple_even(harmonic_tensor("c", 1), harmonic_tensor("d", 1), 2)
        assert len(Q.terms) == 3
        by_shape = {(t.vecs, t.deltas, t.dots): term_atom(Q, t) for t in Q.terms}
        three_q = atom(Fraction(3, 4))
        minus_half = atom(Fraction(-1, 2))
        assert by_shape[(("c", 0), ("d", 1)), (), ()] == three_q
        assert by_shape[(("d", 0), ("c", 1)), (), ()] == three_q
        assert by_shape[(), ((0, 1),), (("c", "d", 1),)] == minus_half

    def test_rank2_pair_contraction(self):
        """Contracting with the rank-2 harmonic of a gives
        (9/4)(a.c)(a.d) - (3/4)(c.d)."""
        Q = couple_even(harmonic_tensor("c", 1), harmonic_tensor("d", 1), 2)
        got = full_contract(harmonic_tensor("a", 2), Q)
        coeffs = {tuple(sorted(t.dots)): term_atom(got, t) for t in got.terms}
        assert coeffs == {
            (("a", "c", 1), ("a", "d", 1)): atom(Fraction(9, 4)),
            (("c", "d", 1),): atom(Fraction(-3, 4)),
        }

    def test_triple_chain_constant(self):
        assert atom_mul(s_factor(2), q_factor(1, 1, 2)) == \
            atom(Fraction(1, 12), 6, -3)

    def test_triple_full_reduction(self):
        result = reduce_expr(parse("[Y[2](a) x [Y[1](c) x Y[1](d)][2]][0]"))
        coeffs = {tuple(sorted(t.dots)): term_atom(result.poly, t)
                  for t in result.poly.terms}
        assert coeffs == {
            (("a", "c", 1), ("a", "d", 1)): atom(Fraction(3, 16), 6, -3),
            (("c", "d", 1),): atom(Fraction(-1, 16), 6, -3),
        }
        assert [lab for lab, _ in result.factor_trace] == ["q[1,1,2]", "S[2]"]

    def test_odd_pair_core(self):
        """[Y2(a) x Y2(b)]^1 core is exactly (a.b)(a x b)."""
        R = couple_odd(harmonic_tensor("a", 2), harmonic_tensor("b", 2), 1)
        assert len(R.terms) == 1
        t = R.terms[0]
        assert term_atom(R, t) == ATOM_ONE
        assert t.dots == (("a", "b", 1),)
        assert t.epses == (((("f", 0), ("s", "a"), ("s", "b"))),)
        assert odd_norm(1, 1, 1) == 1
        assert odd_norm(2, 2, 1) == Fraction(4, 9)
        assert odd_norm(1, 2, 2) == Fraction(2, 3)

    def test_odd_pair_reduction(self):
        result = reduce_expr(parse("[Y[2](a) x Y[2](b)][1]"))
        assert result.parity == "odd"
        assert r_factor(2, 2, 1) == atom(Fraction(1, 4), 30, -1)
        assert len(result.poly.terms) == 1
        t = result.poly.terms[0]
        assert term_atom(result.poly, t) == atom(Fraction(1, 4), 30, -1)
        assert t.dots == (("a", "b", 1),)
        assert [lab for lab, _ in result.factor_trace] == ["r[2,2,1]"]

    def test_two_eps_pair_reduction(self):
        """Coupling two odd rank-1 pairs: the epsilon pair collapses to dots."""
        result = reduce_expr(
            parse("[[Y[2](a) x Y[2](b)][1] x [Y[2](c) x Y[2](d)][1]][0]"))
        coeffs = {tuple(sorted(t.dots)): term_atom(result.poly, t)
                  for t in result.poly.terms}
        assert coeffs == {
            (("a", "b", 1), ("a", "c", 1), ("b", "d", 1), ("c", "d", 1)):
                atom(Fraction(15, 32), 3, -4),
            (("a", "b", 1), ("a", "d", 1), ("b", "c", 1), ("c", "d", 1)):
                atom(Fraction(-15, 32), 3, -4),
        }

    def test_mixed_pair_chain_constant(self):
        chain = atom_mul(atom_mul(q_factor(2, 2, 2), q_factor(1, 3, 2)),
                         s_factor(2))
        assert chain == atom(Fraction(1, 56), 70, -4)  # (1/4) sqrt(5/14) / pi^2
        result = reduce_expr(
            parse("[[Y[2](a) x Y[2](b)][2] x [Y[1](c) x Y[3](d)][2]][0]"))
        assert [lab for lab, _ in result.factor_trace] == \
            ["q[2,2,2]", "q[1,3,2]", "S[2]"]

    def test_rank2_core_contraction_nine_terms(self):
        # The overall 3/4 prefactor here is fixed by the numeric oracle.
        Q1 = couple_even(harmonic_tensor("a", 2), harmonic_tensor("b", 2), 2)
        Q2 = couple_even(harmonic_tensor("c", 1), harmonic_tensor("d", 3), 2)
        got = full_contract(Q1, Q2)
        integers = parse_monomials(FROZEN_BY_ID["A9"][2])
        assert len(got.terms) == len(integers)
        for t in got.terms:
            n = integers[tuple(sorted(t.dots))]
            assert term_atom(got, t) == atom(Fraction(3 * n, 4))


# ---------------------------------------------------------------------------
# 3. Identities
# ---------------------------------------------------------------------------

class TestLegendreContraction:
    @pytest.mark.parametrize("l", range(7))
    def test_exact(self, l):
        """h(a,l) fully contracted with b^l is the Legendre polynomial
        P_l(a.b), exactly."""
        got = full_contract(harmonic_tensor("a", l), vector_power("b", l))
        terms = []
        for k, c in legendre_coeffs(l).items():
            dots = ((("a", "b", k)),) if k else ()
            terms.append(TensorTerm(Fraction(c), dots=dots))
        expected = poly_of(0, terms)
        assert poly_sub(got, expected).is_zero


def _dfact(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _even_triples(lmax):
    for l1 in range(1, lmax + 1):
        for l2 in range(l1, lmax + 1):
            for l3 in range(l2 - l1, min(lmax, l1 + l2) + 1, 2):
                yield l1, l2, l3


def _odd_triples(lmax):
    for l1 in range(1, lmax + 1):
        for l2 in range(l1, lmax + 1):
            for l3 in range(abs(l1 - l2), min(lmax, l1 + l2) + 1):
                if l3 >= 1 and (l1 + l2 + l3) % 2 == 1:
                    yield l1, l2, l3


class TestSameArgumentConstant:
    """Coupling the rank-l1 and rank-l2 harmonic tensors of one direction is
    proportional to the rank-l3 harmonic tensor; the proportionality constant
    has the closed form checked here, exactly and numerically."""

    @pytest.mark.parametrize("l1,l2,l3", list(_even_triples(4)))
    def test_closed_form_constant_exact(self, l1, l2, l3):
        J = l1 + l2 + l3
        num = ((2 * l3 + 1) * math.factorial(2 * l1)
               * math.factorial(2 * l2) * math.factorial(2 * l3))
        den = (math.factorial(J - 2 * l1) * math.factorial(J - 2 * l2)
               * math.factorial(J - 2 * l3) * math.factorial(J + 1))
        assert couple_constant(l1, l2, l3) == atom(1, Fraction(num, den))

    @pytest.mark.parametrize("l1,l2,l3", list(_even_triples(4)))
    def test_against_angular_momentum_coupling(self, l1, l2, l3):
        n = 5
        vecs = sample_unit_vectors(77, n, ["a"])

        def sph(l):
            return eval_poly_batch(harmonic_tensor("a", l), vecs, n)

        A, B, T = sph(l1), sph(l2), sph(l3)
        coupled = np.zeros((2 * l3 + 1, n), dtype=complex)
        for m3 in range(-l3, l3 + 1):
            for m1 in range(-l1, l1 + 1):
                m2 = m3 - m1
                if abs(m2) <= l2:
                    coupled[m3 + l3] += (cg_float(l1, m1, l2, m2, l3, m3)
                                         * A[m1 + l1] * B[m2 + l2])
        J = l1 + l2 + l3
        k = to_float(couple_constant(l1, l2, l3))
        k *= (_dfact(J - 2 * l1 - 1) * _dfact(J - 2 * l2 - 1)
              * _dfact(J - 2 * l3 - 1) * math.factorial(J // 2))
        k /= (math.factorial(l1) * math.factorial(l2) * _dfact(2 * l3 - 1))
        assert np.abs(coupled - k * T).max() < 1e-12


class TestOddCouplingAgainstOracle:
    @pytest.mark.parametrize("l1,l2,l3", list(_odd_triples(4)))
    def test_odd_pair(self, l1, l2, l3):
        rep = verify(f"[Y[{l1}](a) x Y[{l2}](b)][{l3}]",
                     n_samples=50, tol=1e-12)
        assert rep.passed, rep.max_abs_err


class TestRankOneFamilies:
    @pytest.mark.parametrize("l", range(1, 6))
    def test_equal_degrees(self, l):
        report = reduce_pair_identities(l, l)
        assert report["pass"]
        assert report["max_abs_err"] <= 1e-10

    @pytest.mark.parametrize("l", range(1, 6))
    def test_consecutive_degrees(self, l):
        report = reduce_pair_identities(l - 1, l)
        assert report["pass"]
        assert report["max_abs_err"] <= 1e-10


# ---------------------------------------------------------------------------
# 4. Structural guarantees
# ---------------------------------------------------------------------------

class TestStructure:
    @pytest.mark.parametrize("l", range(2, 7))
    def test_harmonic_tensor_traceless(self, l):
        p = harmonic_tensor("a", l)
        assert trace(p, 0, 1).is_zero
        assert trace(p, l - 2, l - 1).is_zero
        assert trace(p, 0, l - 1).is_zero

    @pytest.mark.parametrize("l", range(2, 7))
    def test_harmonic_tensor_symmetric(self, l):
        assert fully_symmetric(harmonic_tensor("a", l))

    @pytest.mark.parametrize("l1,l2,l3",
                             [t for t in _even_triples(4) if t[2] >= 2])
    def test_even_pair_core_traceless_symmetric(self, l1, l2, l3):
        Q = couple_even(harmonic_tensor("a", l1), harmonic_tensor("b", l2), l3)
        assert trace(Q, 0, 1).is_zero
        assert fully_symmetric(Q)

    @pytest.mark.parametrize("l1,l2,l3",
                             [(1, 2, 2), (2, 2, 3), (2, 3, 2), (3, 3, 3)])
    def test_odd_pair_core_traceless_symmetric(self, l1, l2, l3):
        R = couple_odd(harmonic_tensor("a", l1), harmonic_tensor("b", l2), l3)
        assert trace(R, 0, 1).is_zero
        assert fully_symmetric(R)

    @pytest.mark.parametrize("expr_s", DIGEST_RANK_2_UP)
    def test_digest_couplings_exactly_symmetric_and_traceless(self, expr_s):
        """Every rank >= 2 reduction of the digest set is exactly traceless on
        slots (0, 1) and symmetric under each adjacent transposition; with its
        delta-bearing terms times 7 it is no longer traceless."""
        p = reduce_expr(parse(expr_s)).poly
        assert trace(p, 0, 1).is_zero
        assert fully_symmetric(p)
        if any(struct[1] for struct, _ in p.groups):
            assert not trace(delta_terms_times_7(p), 0, 1).is_zero

    @pytest.mark.parametrize("l", range(1, 7))
    def test_harmonic_tensor_term_count(self, l):
        by_r = {}
        for t in harmonic_tensor("a", l).terms:
            by_r[len(t.deltas)] = by_r.get(len(t.deltas), 0) + 1
        for r in range(l // 2 + 1):
            expected = (math.factorial(l)
                        // (math.factorial(l - 2 * r) * 2 ** r
                            * math.factorial(r)))
            assert by_r.get(r, 0) == expected
        assert sum(by_r.values()) == len(harmonic_tensor("a", l).terms)

    @pytest.mark.parametrize("g1,g2,r", [
        (1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 2, 1), (3, 1, 1), (2, 2, 2),
        (3, 3, 1), (4, 2, 1),
    ])
    def test_embedding_count(self, g1, g2, r):
        total = g1 + g2 + 2 * r
        expected = (math.factorial(total)
                    // (math.factorial(g1) * math.factorial(g2)
                        * 2 ** r * math.factorial(r)))
        assert embed_count(total, (g1, g2), r) == expected

    def test_embedding_term_count_live(self):
        core = poly_of(4, [TensorTerm(
            Fraction(1), vecs=(("a", 0), ("a", 1), ("b", 2), ("b", 3)))])
        p = symmetrized_embed(core, (2, 2), 1, 6)
        assert len(p.terms) == embed_count(6, (2, 2), 1)

    def test_scalar_results_are_real_even_parity(self):
        for cid, expr_s, _ in CORPUS_ENTRIES:
            result = reduce_expr(parse(expr_s))
            assert result.rank == 0
            assert result.parity == "even"
            for t in result.poly.terms:
                assert term_atom(result.poly, t).i_pow == 0, cid
                assert t.boxes == () and t.epses == ()
                assert t.vecs == () and t.deltas == ()

    @pytest.mark.parametrize("expr_s", [
        "[[Y[1](a) x Y[1](b)][1] x Y[1](c)][0]",
        "[[Y[2](a) x Y[2](b)][1] x Y[1](c)][0]",
        "[[Y[2](a) x Y[2](b)][2] x [Y[1](c) x Y[2](d)][2]][0]",
    ])
    def test_odd_scalars_carry_one_box_each(self, expr_s):
        result = reduce_expr(parse(expr_s))
        assert result.rank == 0
        assert result.parity == "odd"
        assert result.poly.terms
        for t in result.poly.terms:
            assert len(t.boxes) == 1
            assert t.epses == ()
            assert term_atom(result.poly, t).i_pow == 0


# ---------------------------------------------------------------------------
# 5. Randomized verification
# ---------------------------------------------------------------------------

def _random_expr(rng, depth, symbols):
    if depth == 0 or rng.random() < 0.35:
        return Harmonic(rng.randint(1, 3), next(symbols))
    left = _random_expr(rng, depth - 1, symbols)
    right = _random_expr(rng, depth - 1, symbols)
    lo = abs(expr_rank(left) - expr_rank(right))
    hi = expr_rank(left) + expr_rank(right)
    return Couple(left, right, rng.randint(lo, hi))


class TestRandomizedVerification:
    def test_fifty_random_couplings(self):
        """50 distinct random couplings (harmonic degrees up to 3, nesting
        depth up to 3, total rank up to 2) all pass the oracle at 1e-10."""
        rng = random.Random(20240831)
        seen = set()
        while len(seen) < 50:
            expr = _random_expr(rng, 3, iter(string.ascii_lowercase))
            if expr_rank(expr) > 2:
                continue
            text = render_expr_text(expr)
            if text in seen:
                continue
            rep = verify(expr, n_samples=20, tol=1e-10)
            assert rep.passed, (text, rep.max_abs_err)
            seen.add(text)

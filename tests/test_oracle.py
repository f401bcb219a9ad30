"""Unit tests for the numeric oracle: harmonics, sampling, and verification."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from cartensor import oracle
from cartensor.coeff import atom
from cartensor.oracle import (
    DEFAULT_SEED,
    MAX_SAMPLES,
    cg,
    eval_expr_components,
    eval_poly_batch,
    rho_float,
    sample_unit_vectors,
    u_matrix,
    verify,
    ylm,
)
from cartensor.parser import parse
from cartensor.reduce import Couple, Harmonic, reduce_expr
from cartensor.tensor import TensorPoly, TensorTerm, harmonic_tensor, poly_add, poly_scale
from cartensor.wigner import three_j

from helpers import (UnitVector, legendre, legendre_coeffs, legendre_prime, poly_of, rho,
                     term_atom, to_float)

Z_HAT = UnitVector(0.0, 0.0, 1.0)


def _unit_dirs(seed, n):
    return [UnitVector(*row) for row in sample_unit_vectors(seed, n, ["v"])["v"]]


class TestYlm:
    def test_known_values_on_axis(self):
        assert ylm(0, 0, Z_HAT) == pytest.approx(1 / math.sqrt(4 * math.pi))
        assert ylm(1, 0, Z_HAT) == pytest.approx(-1j * math.sqrt(3 / (4 * math.pi)))
        assert ylm(2, 0, Z_HAT) == pytest.approx(-math.sqrt(5 / (4 * math.pi)))
        assert ylm(3, 0, Z_HAT) == pytest.approx(1j * math.sqrt(7 / (4 * math.pi)))

    def test_m_nonzero_vanishes_on_axis(self):
        for l in range(1, 5):
            for m in range(1, l + 1):
                assert abs(ylm(l, m, Z_HAT)) < 1e-15
                assert abs(ylm(l, -m, Z_HAT)) < 1e-15

    def test_conjugation_symmetry(self):
        for v in _unit_dirs(7, 20):
            for l in range(6):
                for m in range(-l, l + 1):
                    lhs = np.conj(ylm(l, m, v))
                    rhs = (-1) ** (l + m) * ylm(l, -m, v)
                    assert abs(lhs - rhs) < 1e-12

    def test_sum_of_squares(self):
        for v in _unit_dirs(11, 50):
            for l in range(6):
                total = sum(abs(ylm(l, m, v)) ** 2 for m in range(-l, l + 1))
                assert total == pytest.approx((2 * l + 1) / (4 * math.pi),
                                              abs=1e-12)


class TestUnitVectorInput:
    """ylm and eval_expr hold on the unit sphere only, so any other vector is
    refused rather than given a value: Y[1]_0 at (0, 0, 2) would read twice
    its value at (0, 0, 1), and Y[2]_0 at the origin would read 0.315."""

    BAD = [(0.0, 0.0, 2.0), (0.0, 0.0, 0.0), (float("nan"), 0.0, 1.0),
           (float("inf"), 0.0, 0.0), (0.0, 0.0, 1.0 + 2e-9)]

    @pytest.mark.parametrize("v", BAD)
    def test_ylm_rejects(self, v):
        with pytest.raises(ValueError, match="unit vector"):
            ylm(1, 0, v)

    @pytest.mark.parametrize("v", BAD)
    def test_eval_expr_rejects(self, v):
        expr = Couple(Harmonic(2, "a"), Harmonic(2, "b"), 0)
        with pytest.raises(ValueError, match="unit vector"):
            oracle.eval_expr(expr, {"a": Z_HAT, "b": v})

    def test_within_tolerance_accepted(self):
        near = (0.0, 0.0, 1.0 + 5e-10)
        assert ylm(2, 0, near) == pytest.approx(ylm(2, 0, Z_HAT), rel=1e-8)
        assert ylm(2, 0, (0.0, 0.0, -1.0)) == pytest.approx(ylm(2, 0, Z_HAT))


class TestLegendre:
    def test_low_orders(self):
        for x in (-0.7, 0.0, 0.3, 1.0):
            assert legendre(0, x) == pytest.approx(1.0)
            assert legendre(1, x) == pytest.approx(x)
            assert legendre(2, x) == pytest.approx(1.5 * x * x - 0.5)

    def test_negative_order_conventions(self):
        assert legendre(-1, 0.4) == 1.0
        assert legendre_prime(0, 0.4) == 0.0
        assert legendre_prime(-1, 0.4) == 0.0

    def test_matches_exact_coefficients(self):
        for l in range(7):
            coeffs = legendre_coeffs(l)
            assert all((l - k) % 2 == 0 for k in coeffs)
            for x in (-0.9, -0.2, 0.5, 0.8):
                poly_val = sum(float(c) * x ** k for k, c in coeffs.items())
                assert legendre(l, x) == pytest.approx(poly_val, abs=1e-14)

    def test_derivative_is_consistent(self):
        h = 1e-6
        for l in range(1, 7):
            for x in (-0.6, 0.1, 0.7):
                fd = (legendre(l, x + h) - legendre(l, x - h)) / (2 * h)
                assert legendre_prime(l, x) == pytest.approx(fd, abs=1e-8)


class TestSampling:
    def test_deterministic(self):
        a = sample_unit_vectors(42, 10, ["a", "b"])
        b = sample_unit_vectors(42, 10, ["a", "b"])
        for s in ("a", "b"):
            assert np.array_equal(a[s], b[s])

    def test_prefix_stable(self):
        small = sample_unit_vectors(42, 5, ["a"])["a"]
        large = sample_unit_vectors(42, 10, ["a"])["a"]
        assert np.allclose(small, large[:5])

    def test_unit_norm(self):
        vs = sample_unit_vectors(3, 40, ["a"])["a"]
        assert np.allclose(np.linalg.norm(vs, axis=1), 1.0, atol=1e-12)

    def test_symbols_independent(self):
        d = sample_unit_vectors(9, 8, ["a", "b"])
        assert not np.allclose(d["a"], d["b"])

    def test_near_zero_draw_is_redrawn(self, monkeypatch):
        plain = sample_unit_vectors(9, 10, ["a", "b"])
        default_rng = np.random.default_rng

        class ZeroRow3OfSymbolA:
            def __init__(self, seed):
                self.rng = default_rng(seed)
                self.zero = seed.spawn_key == (0,)

            def normal(self, size):
                v = self.rng.normal(size=size)
                if self.zero:
                    v[3] = 0.0
                return v

        monkeypatch.setattr(np.random, "default_rng", ZeroRow3OfSymbolA)
        d = sample_unit_vectors(9, 10, ["a", "b"])
        assert np.allclose(np.linalg.norm(d["a"], axis=1), 1.0, atol=1e-12)
        first = default_rng(np.random.SeedSequence(9, spawn_key=(0, 3))).normal(size=3)
        assert np.allclose(d["a"][3], first / np.linalg.norm(first), atol=1e-15)
        keep = [i for i in range(10) if i != 3]
        assert np.array_equal(d["a"][keep], plain["a"][keep])
        assert np.array_equal(d["b"], plain["b"])
        small = sample_unit_vectors(9, 5, ["a", "b"])
        for s in ("a", "b"):
            assert np.array_equal(small[s], d[s][:5])

    def test_one_generator_per_symbol(self, monkeypatch):
        """Only a symbol's stream and the redraw of a near-zero row build a
        generator, however many samples are drawn.  None of these 600
        Gaussian rows is near zero, so nothing is redrawn."""
        default_rng = np.random.default_rng
        built = []

        def counting(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        d = sample_unit_vectors(17, 200, ["a", "b", "c"])
        assert len(built) <= 3
        assert all(np.allclose(np.linalg.norm(v, axis=1), 1.0) for v in d.values())

    def test_coarse_uniformity(self):
        d = sample_unit_vectors(2024, 10_000, ["a", "b"])
        rows = np.concatenate([d["a"], d["b"]])
        assert rows.shape == (20_000, 3)
        assert np.abs(rows.mean(axis=0)).max() < 0.02
        assert abs(np.mean(rows[:, 2] ** 2) - 1 / 3) < 0.01


class TestUMatrixBridge:
    def test_rows_orthonormal(self):
        for L in range(5):
            U = u_matrix(L).reshape(2 * L + 1, -1)
            gram = U @ U.conj().T
            assert np.abs(gram - np.eye(2 * L + 1)).max() < 1e-12

    def test_rows_traceless_over_every_slot_pair(self):
        """What lets eval_poly_batch skip the delta terms."""
        for L in range(2, 6):
            U = u_matrix(L)
            for i in range(1, L + 1):
                for j in range(i + 1, L + 1):
                    assert np.abs(np.trace(U, axis1=i, axis2=j)).max() < 1e-14

    @pytest.mark.parametrize("L", range(6))
    def test_rows_symmetric_under_every_slot_permutation(self, L):
        """What lets eval_poly_batch project the symmetric part of each term
        only, as a polynomial."""
        U = u_matrix(L)
        for perm in permutations(range(1, L + 1)):
            assert np.abs(U - U.transpose((0,) + perm)).max() < 1e-15

    @pytest.mark.parametrize("l", range(11))
    def test_rho_float_is_the_exact_rho(self, l):
        assert math.isclose(rho_float(l), to_float(rho(l)), rel_tol=1e-15, abs_tol=0)

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4, 8])
    def test_tensor_to_spherical_components(self, l):
        """rho(l) * U . T^(l)(v) reproduces the harmonic components."""
        vecs = sample_unit_vectors(123, 6, ["a"])
        uvs = [UnitVector(*vecs["a"][i]) for i in range(6)]
        sph = rho_float(l) * eval_poly_batch(harmonic_tensor("a", l), vecs, 6)
        direct = np.array([[ylm(l, m, uv) for uv in uvs]
                           for m in range(-l, l + 1)])
        assert np.abs(sph - direct).max() < 1e-12


class TestSameArgumentCoupling:
    """Coupling two harmonics of the same direction collapses to a single
    harmonic scaled by hat(l1)*hat(l2)/sqrt(4*pi) times |3j(l1,l2,l3;0,0,0)|.
    """

    def test_collapse(self):
        vecs = sample_unit_vectors(5, 8, ["c"])
        uvs = [UnitVector(*vecs["c"][i]) for i in range(8)]
        for l1 in range(1, 4):
            for l2 in range(1, 4):
                for l3 in range(abs(l1 - l2), l1 + l2 + 1):
                    expr = Couple(Harmonic(l1, "c"), Harmonic(l2, "c"), l3)
                    comp = eval_expr_components(expr, vecs)
                    tj = abs(three_j(l1, l2, l3, 0, 0, 0).to_complex())
                    pref = math.sqrt(
                        (2 * l1 + 1) * (2 * l2 + 1) / (4 * math.pi)) * tj
                    direct = np.array([[ylm(l3, m, uv) for uv in uvs]
                                       for m in range(-l3, l3 + 1)])
                    assert np.abs(comp - pref * direct).max() < 1e-12

    def test_odd_total_degree_vanishes(self):
        vecs = sample_unit_vectors(5, 8, ["c"])
        comp = eval_expr_components(
            Couple(Harmonic(1, "c"), Harmonic(1, "c"), 1), vecs)
        assert np.abs(comp).max() < 1e-12


class TestVerify:
    def test_simple_pass(self):
        rep = verify("[Y[1](a) x Y[1](b)][0]", n_samples=30)
        assert rep.max_abs_err < 1e-12

    def test_accepts_string_and_expr(self):
        from cartensor.parser import parse
        r1 = verify("[Y[2](a) x Y[2](b)][0]", n_samples=10)
        r2 = verify(parse("[Y[2](a) x Y[2](b)][0]"), n_samples=10)
        assert r1.max_abs_err == r2.max_abs_err

    def test_report_json_keys(self):
        rep = verify("[Y[1](a) x Y[1](b)][2]", n_samples=10)
        obj = rep.to_json()
        assert set(obj) == {"expr", "samples", "seed", "max_abs_err",
                            "max_imag_leak", "pass", "max_rel_err", "worst"}
        assert obj["pass"] is True
        assert obj["samples"] == 10
        assert obj["seed"] == DEFAULT_SEED

    def test_impossible_tolerance_fails(self):
        rep = verify("[Y[2](a) x Y[2](b)][0]", n_samples=10, tol=1e-30)
        assert rep.to_json()["pass"] is False

    def test_seed_echoed(self):
        rep = verify("[Y[1](a) x Y[1](b)][0]", n_samples=5, seed=777)
        assert rep.to_json()["seed"] == 777

    def test_rank_bearing_expression(self):
        rep = verify("[Y[2](a) x Y[2](b)][1]", n_samples=25)
        assert rep.to_json()["pass"] is True

    def test_given_result_is_not_reduced_again(self, monkeypatch):
        from cartensor.parser import parse
        from cartensor.reduce import reduce_expr
        expr = parse("[Y[2](a) x Y[2](b)][1]")
        result = reduce_expr(expr)

        def no_reduce(_):
            raise AssertionError("verify reduced a given result again")

        monkeypatch.setattr(oracle, "reduce_expr", no_reduce)
        rep = verify(expr, n_samples=10, result=result)
        assert rep.to_json() == verify(expr, n_samples=10,
                                       result=reduce_expr(expr)).to_json()
        assert rep.passed

    def test_result_of_another_expression_rejected(self):
        from cartensor.reduce import reduce_expr
        other = reduce_expr(Couple(Harmonic(1, "a"), Harmonic(1, "b"), 2))
        with pytest.raises(ValueError, match="different expression"):
            verify("[Y[1](a) x Y[1](b)][0]", n_samples=5, result=other)

    @pytest.mark.parametrize("n", [0, -1, -200])
    def test_sample_count_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            verify("Y[1](a)", n)

    def test_sample_count_above_bound_rejected(self):
        with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES}"):
            verify("Y[1](a)", n_samples=MAX_SAMPLES + 1)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_tolerance_outside_domain_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and greater than 0"):
            verify("Y[1](a)", 5, tol=tol)

    @pytest.mark.parametrize("depth", [20, 30])
    @pytest.mark.parametrize("rank", [0, 1])
    def test_tiny_values_are_checked_relative(self, rank, depth):
        """A chain of Y[0] couplings is worth about 0.28^depth, far below
        tol; a result with every coefficient times 7 must still fail, while
        the true result passes."""
        expr = Harmonic(rank, "v0")
        for i in range(1, depth + 1):
            expr = Couple(expr, Harmonic(0, f"v{i}"), rank)
        result = reduce_expr(expr)
        wrong = replace(result, poly=poly_scale(result.poly, 7))
        assert verify(expr, result=result).passed
        rep = verify(expr, result=wrong)
        assert rep.max_abs_err < 1e-10
        assert rep.max_rel_err == pytest.approx(6.0)
        assert not rep.passed


class TestEvalExpr:
    def test_single_configuration(self):
        out = oracle.eval_expr(Harmonic(1, "a"), {"a": Z_HAT})
        assert out.shape == (3,)
        assert out[1] == pytest.approx(-1j * math.sqrt(3 / (4 * math.pi)))

    def test_scalar_coupling_is_real(self):
        vecs = {s: UnitVector(*row) for s, row in
                zip("ab", sample_unit_vectors(1, 2, ["a", "b"])["a"])}
        expr = Couple(Harmonic(2, "a"), Harmonic(2, "b"), 0)
        out = oracle.eval_expr(expr, {"a": vecs["a"], "b": vecs["b"]})
        assert abs(out[0].imag) < 1e-14


class TestClebschGordan:
    """The oracle's Clebsch-Gordan table, against sympy's exact values."""

    def test_matches_sympy(self):
        """Every coefficient with l1, l2 <= 6 within 1e-13.  sympy is asked for
        l1 <= l2 and m3 >= 0; the rest follow from the exact symmetries
        <l1 -m1 l2 -m2 | l3 -m3> = <l2 m2 l1 m1 | l3 m3>
                                  = (-1)^(l1+l2-l3) <l1 m1 l2 m2 | l3 m3>."""
        wigner = pytest.importorskip("sympy.physics.wigner")
        for l1 in range(7):
            for l2 in range(l1, 7):
                for l3 in range(l2 - l1, l1 + l2 + 1):
                    parity = (-1) ** (l1 + l2 - l3)
                    for m1, m2 in product(range(-l1, l1 + 1), range(-l2, l2 + 1)):
                        m3 = m1 + m2
                        if not 0 <= m3 <= l3:
                            continue
                        want = float(wigner.clebsch_gordan(l1, l2, l3, m1, m2, m3))
                        for got, sign in ((cg(l1, m1, l2, m2, l3, m3), 1),
                                          (cg(l1, -m1, l2, -m2, l3, -m3), parity),
                                          (cg(l2, m2, l1, m1, l3, m3), parity),
                                          (cg(l2, -m2, l1, -m1, l3, -m3), 1)):
                            assert abs(got - sign * want) <= 1e-13, (l1, m1, l2, m2, l3)

    def test_outside_range_is_zero(self):
        assert cg(1, 1, 1, 0, 1, 0) == 0.0      # m1 + m2 != m3
        assert cg(1, 0, 1, 0, 3, 0) == 0.0      # l3 > l1 + l2
        assert cg(2, 2, 2, 1, 2, 3) == 0.0      # |m3| > l3


# ---------------------------------------------------------------------------
# Cartesian evaluation against a per-index reference
# ---------------------------------------------------------------------------

def _det_rows(w1, w2, w3):
    c = np.cross(w2, w3)
    return np.sum(np.atleast_2d(w1) * np.atleast_2d(c), axis=-1)


def _reference_eval(poly, vecs, n):
    """Evaluate term by term and index tuple by index tuple."""
    L = poly.rank
    out = np.zeros((3,) * L + (n,), dtype=complex)
    basis = np.eye(3)
    for t in poly.terms:
        base = np.full(n, term_atom(poly, t).to_complex())
        for s1, s2, e in t.dots:
            base = base * np.sum(vecs[s1] * vecs[s2], axis=1) ** e
        for b in t.boxes:
            base = base * _det_rows(vecs[b[0]], vecs[b[1]], vecs[b[2]])
        if L == 0:
            out += base
            continue
        for idx in product(range(3), repeat=L):
            if any(idx[i] != idx[j] for i, j in t.deltas):
                continue
            fac = base
            for s, slot in t.vecs:
                fac = fac * vecs[s][:, idx[slot]]
            for e in t.epses:
                ws = [(basis[idx[ent[1]]] if ent[0] == 'f' else vecs[ent[1]])
                      for ent in e]
                fac = fac * _det_rows(*ws)
            out[idx] += fac
    if np.max(np.abs(out.imag)) < 1e-12 * (1.0 + np.max(np.abs(out.real))):
        return out.real
    return out


def _term(rat, radicand=1, i_pow=0, **factors):
    return atom(rat, radicand, 0, i_pow), TensorTerm(Fraction(1), **factors)


def _hand(rank, *terms):
    """The sum of terms, as one TensorPoly per coefficient shape: a TensorPoly
    is one atom times rational terms, so terms of different shapes are summed
    by evaluating each part."""
    parts = {}
    for a, t in terms:
        p = poly_scale(poly_of(rank, [t]), a)
        parts[p.prefactor] = poly_add(parts.get(p.prefactor, TensorPoly(rank)), p)
    return list(parts.values())


def F(slot):
    return ('f', slot)


def S(sym):
    return ('s', sym)


HAND_POLYS = {
    "rank0": _hand(0,
        _term(3, dots=(("a", "b", 2), ("b", "c", 1))),
        _term(-1, 5, dots=(("a", "c", 3),), boxes=(("a", "b", "c"),)),
        _term(2),
    ),
    "vectors": _hand(3,
        _term(1, 2, vecs=(("a", 0), ("b", 1), ("a", 2))),
        _term(-2, vecs=(("c", 0), ("c", 1), ("b", 2)), dots=(("a", "b", 4),)),
    ),
    "deltas": _hand(5,
        _term(1, deltas=((0, 2), (1, 3)), vecs=(("c", 4),)),
        _term(-3, deltas=((0, 4),), vecs=(("a", 1), ("b", 2), ("a", 3))),
    ),
    "delta_placements": _hand(3,
        _term(2, deltas=((0, 1),), vecs=(("a", 2),), dots=(("a", "b", 1),)),
        _term(-5, deltas=((1, 2),), vecs=(("a", 0),)),
        _term(1, deltas=((0, 2),), vecs=(("a", 1),), dots=(("b", "c", 2),)),
    ),
    "delta_alone": _hand(2,
        _term(7, 3, deltas=((0, 1),), dots=(("a", "b", 3),)),
    ),
    "eps1": _hand(2,
        _term(1, epses=((F(0), S("a"), S("b")),), vecs=(("c", 1),)),
        _term(2, epses=((S("a"), F(1), S("c")),), vecs=(("b", 0),)),
        _term(-1, epses=((S("b"), S("c"), F(0)),), vecs=(("a", 1),),
              dots=(("a", "c", 2),)),
    ),
    "eps2": _hand(3,
        _term(1, epses=((F(0), F(2), S("a")),), vecs=(("b", 1),)),
        _term(-4, 3, epses=((F(1), S("c"), F(2)),), vecs=(("a", 0),)),
        _term(5, epses=((F(2), F(0), S("b")),), vecs=(("c", 1),)),
    ),
    "eps3": _hand(5,
        _term(1, epses=((F(1), F(2), F(4)),), vecs=(("a", 0), ("b", 3))),
        _term(-2, epses=((F(0), F(3), F(4)),), deltas=((1, 2),)),
        _term(3, epses=((F(4), F(1), F(3)),), deltas=((0, 2),)),
    ),
    "boxes": _hand(1,
        _term(3, 7, vecs=(("a", 0),), boxes=(("a", "b", "c"),),
              dots=(("b", "c", 2),)),
        _term(1, vecs=(("c", 0),)),
    ),
    "imaginary": _hand(2,
        _term(1, 2, i_pow=1, vecs=(("a", 0), ("b", 1))),
        _term(1, deltas=((0, 1),)),
    ),
}


class TestEvalPolyBatch:
    """eval_poly_batch against U @ (the per-index reference), on every factor
    kind.  The reference keeps the delta terms that eval_poly_batch skips, so
    this also checks that they project to rounding noise; the tolerance is
    relative to the full tensor's scale."""

    @pytest.fixture(scope="class")
    def vecs(self):
        return sample_unit_vectors(31, 17, ["a", "b", "c"])

    def _check(self, parts, vecs, n):
        L = parts[0].rank
        U = u_matrix(L).reshape(2 * L + 1, 3 ** L)
        full = sum(_reference_eval(poly, vecs, n) for poly in parts)
        got = sum(eval_poly_batch(poly, vecs, n) for poly in parts)
        assert got.shape == (2 * L + 1, n) and np.iscomplexobj(got)
        scale = float(np.max(np.abs(full)))
        assert scale > 0
        want = U @ full.reshape(3 ** L, n)
        assert float(np.max(np.abs(got - want))) <= 1e-13 * scale

    @pytest.mark.parametrize("name", sorted(HAND_POLYS))
    def test_hand_built(self, name, vecs):
        self._check(HAND_POLYS[name], vecs, 17)

    PARTS = [(f"{name}:{i}", poly) for name in sorted(HAND_POLYS)
             for i, poly in enumerate(HAND_POLYS[name])]

    @pytest.mark.parametrize("name, poly", PARTS, ids=[p[0] for p in PARTS])
    def test_each_part(self, name, poly, vecs):
        """Each structure alone, against its own scale: a part made only of
        delta terms must project to rounding noise of that part."""
        self._check([poly], vecs, 17)

    @pytest.mark.parametrize("L", range(5))
    def test_zero_polynomial(self, L, vecs):
        got = eval_poly_batch(TensorPoly(L), vecs, 17)
        assert got.shape == (2 * L + 1, 17) and not np.any(got)

    REDUCTIONS = [
        "[Y[2](a) x Y[2](b)][1]",
        "[[Y[2](a) x Y[1](b)][2] x Y[2](c)][3]",
        "[[Y[1](a) x Y[2](b)][2] x Y[1](c)][2]",
        "[Y[3](a) x Y[2](b)][4]",
    ]

    @pytest.mark.parametrize("text", REDUCTIONS)
    def test_reductions(self, text, vecs):
        self._check([reduce_expr(parse(text)).poly], vecs, 17)

    def test_single_configuration(self, vecs):
        one = {s: v[:1] for s, v in vecs.items()}
        for poly in HAND_POLYS.values():
            self._check(poly, one, 1)


class TestVerifyLocation:
    def test_worst_points_at_corrupted_component(self, monkeypatch):
        """A wrong m = 0 component at one sample of a rank-1 result is
        reported at that sample and component."""
        expr = parse("[Y[2](a) x Y[1](b)][1]")
        evaluate = oracle.eval_poly_batch

        def corrupted(poly, vecs, n):
            P = evaluate(poly, vecs, n).copy()
            P[1, 7] += 1e-3
            return P

        monkeypatch.setattr(oracle, "eval_poly_batch", corrupted)
        rep = verify(expr, n_samples=12)
        assert rep.worst == {"sample": 7, "m": 0}
        assert rep.to_json()["worst"] == {"sample": 7, "m": 0}
        assert not rep.passed
        assert rep.max_abs_err == pytest.approx(rho_float(1) * 1e-3, rel=1e-6)
        vecs = sample_unit_vectors(DEFAULT_SEED, 12, ["a", "b"])
        scale = np.max(np.abs(eval_expr_components(expr, vecs)))
        assert rep.max_rel_err == pytest.approx(rep.max_abs_err / scale, rel=1e-12)

    def test_scalar_report(self):
        expr = parse("[Y[3](a) x Y[3](b)][0]")
        rep = verify(expr, n_samples=15)
        assert rep.passed
        assert rep.worst["m"] == 0 and 0 <= rep.worst["sample"] < 15
        vecs = sample_unit_vectors(DEFAULT_SEED, 15, ["a", "b"])
        scale = np.max(np.abs(eval_expr_components(expr, vecs)))
        assert rep.max_rel_err == pytest.approx(rep.max_abs_err / scale, rel=1e-12)


@pytest.mark.parametrize("text", [
    "Y[8](a)",
    "[Y[3](a) x Y[4](b)][6]",
    "[[Y[1](a) x Y[1](b)][1] x Y[1](c)][0]",
])
def test_same_seed_same_json(text):
    """Two runs with the same seed in one process report the same JSON."""
    first = verify(text, seed=99).to_json()
    assert verify(text, seed=99).to_json() == first
    assert first["pass"] is True


def test_high_degree_verify():
    """Y[9] is a rank-9 tensor of 2620 terms: 3^9 index tuples per term."""
    rep = verify("Y[9](a)", n_samples=20)
    assert rep.passed, rep.to_json()


def test_verify_memory_is_bounded_in_samples():
    """Y[9] at 2000 samples: a block of all 3^9 index tuples at every sample
    would take 300 MiB; the traced heap stays below 128 MiB."""
    tracemalloc.start()
    try:
        rep = verify("Y[9](a)", n_samples=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed, rep.to_json()
    assert peak < 128 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("text", [
    "[Y[2](a) x Y[2](b)][3]",
    "[[Y[2](a) x Y[1](b)][2] x Y[2](c)][3]",
    "[Y[1](a) x Y[2](b)][3]",
])
def test_verify_builds_no_index_tuples(text, monkeypatch):
    """verify holds rank-L quantities as (L+1)^2 polynomial coefficients: it
    never expands u_matrix, the (2L+1) x 3^L map over index tuples."""

    def no_expansion(L):
        raise AssertionError(f"verify expanded u_matrix({L})")

    monkeypatch.setattr(oracle, "u_matrix", no_expansion)
    rep = verify(text, n_samples=40)
    assert rep.passed, rep.to_json()


def test_verify_memory_at_rank_10():
    """Y[10] at 2000 samples, reduction included: the traced heap stays
    below 32 MiB, where one 3^10-row block of 2000 samples alone is 900 MiB."""
    tracemalloc.start()
    try:
        rep = verify("Y[10](a)", n_samples=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed, rep.to_json()
    assert peak < 32 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("text", [
    "[Y[7](a) x Y[7](b)][0]",
    "[Y[7](a) x Y[7](b)][1]",
    "[Y[7](a) x Y[8](b)][1]",
    "[Y[8](a) x Y[8](b)][0]",
    "[Y[3](a) x Y[4](b)][6]",
    "[Y[2](a) x Y[5](b)][6]",
])
def test_high_degree_pairs_verify(text):
    """Pairs that built every product of two expanded rank-7/8 harmonic tensors
    before the contraction pruned the terms that meet a trace, and odd
    couplings to rank 6, which check odd_norm's closed form at high rank."""
    rep = verify(text, n_samples=50, tol=1e-10)
    assert rep.passed, rep.to_json()

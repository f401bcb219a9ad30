"""Unit tests for the numeric oracle: harmonics, sampling, and verification."""

import math

import numpy as np
import pytest

from cartensor import oracle
from cartensor.oracle import (
    DEFAULT_SEED,
    UnitVector,
    eval_expr_components,
    eval_poly_batch,
    legendre,
    legendre_coeffs,
    legendre_prime,
    rho_float,
    sample_unit_vectors,
    u_matrix,
    verify,
    ylm,
)
from cartensor.reduce import Couple, Harmonic
from cartensor.tensor import harmonic_tensor
from cartensor.wigner import three_j

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


class TestUMatrixBridge:
    def test_rows_orthonormal(self):
        for L in range(5):
            U = u_matrix(L).reshape(2 * L + 1, -1)
            gram = U @ U.conj().T
            assert np.abs(gram - np.eye(2 * L + 1)).max() < 1e-12

    def test_tensor_to_spherical_components(self):
        """rho(l) * U . T^(l)(v) reproduces the harmonic components."""
        vecs = sample_unit_vectors(123, 6, ["a"])
        uvs = [UnitVector(*vecs["a"][i]) for i in range(6)]
        for l in range(5):
            vals = eval_poly_batch(harmonic_tensor("a", l), vecs, 6)
            sph = np.tensordot(u_matrix(l), vals, axes=l) * rho_float(l)
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
                            "max_imag_leak", "pass"}
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

"""Brute-force numeric oracle.

Evaluates coupled spherical-harmonic expressions directly from their
definition (associated-Legendre recurrences plus explicit Clebsch-Gordan
sums) and compares them against the reduced Cartesian polynomials, bridging
rank-L output through the unitary component map when needed.  This module
deliberately shares no algebra with the symbolic engine: spherical values
come from floating-point recurrences, never from the engine's own
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .coeff import double_factorial, factorial
from .reduce import (Couple, CouplingExpr, Harmonic, ReductionResult,
                     expr_leaves, reduce_expr)
from .tensor import TensorPoly
from .wigner import cg_float

DEFAULT_SEED = 20240831

_BASIS = np.eye(3)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitVector:
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"not a unit vector (norm {n})")

    @property
    def array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @staticmethod
    def from_array(a) -> "UnitVector":
        a = np.asarray(a, dtype=float)
        a = a / np.linalg.norm(a)
        return UnitVector(float(a[0]), float(a[1]), float(a[2]))


def sample_unit_vectors(seed: int, n: int, symbols) -> dict:
    """Independent uniform unit vectors, one (n, 3) array per symbol.

    Each sample row is drawn from its own child generator seeded [seed, i],
    so sample i is reproducible independently of how many samples are taken.
    """
    symbols = sorted(symbols)
    out = {s: np.empty((n, 3)) for s in symbols}
    for i in range(n):
        rng = np.random.default_rng([int(seed), i])
        for s in symbols:
            v = rng.normal(size=3)
            while np.linalg.norm(v) < 1e-8:
                v = rng.normal(size=3)
            out[s][i] = v / np.linalg.norm(v)
    return out


def _coerce_vec(v) -> np.ndarray:
    if isinstance(v, UnitVector):
        return v.array
    return np.asarray(v, dtype=float)


# ---------------------------------------------------------------------------
# Spherical harmonics (contrastandard phase)
# ---------------------------------------------------------------------------

def _ylm_matrix(l: int, xyz: np.ndarray) -> np.ndarray:
    """All components m = -l..l of Y^[l](v) for rows of xyz; shape (2l+1, n).

    Uses the associated-Legendre recurrence with the azimuthal phase carried
    as powers of (x + iy), valid for unit vectors: P_l^m(cos t) e^{i m p}
    is a polynomial in x, y, z.  The overall (-i)^l converts to the
    contrastandard component convention.
    """
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    n = xyz.shape[0]
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    ph = x + 1j * y
    vals = np.zeros((2 * l + 1, n), dtype=complex)
    for m in range(l + 1):
        # P_m^m carried with phase: (-1)^m (2m-1)!! (x+iy)^m
        pmm = ((-1) ** m) * float(double_factorial(2 * m - 1)) * ph ** m
        if l == m:
            plm = pmm
        else:
            pprev = pmm
            pcur = z * (2 * m + 1) * pmm
            for ll in range(m + 2, l + 1):
                pnext = (z * (2 * ll - 1) * pcur - (ll + m - 1) * pprev) / (ll - m)
                pprev, pcur = pcur, pnext
            plm = pcur
        norm = math.sqrt((2 * l + 1) / (4 * math.pi)
                         * factorial(l - m) / factorial(l + m))
        vals[l + m] = norm * plm
        if m:
            vals[l - m] = ((-1) ** m) * np.conj(vals[l + m])
    return vals * (-1j) ** l


def ylm(l: int, m: int, v) -> complex:
    """Single contrastandard spherical-harmonic component at a unit vector."""
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    arr = _coerce_vec(v).reshape(1, 3)
    return complex(_ylm_matrix(l, arr)[l + m, 0])


def eval_expr_components(expr: CouplingExpr, vecs: dict) -> np.ndarray:
    """Components m = -L..L of the coupled expression; shape (2L+1, n)."""
    if isinstance(expr, Harmonic):
        return _ylm_matrix(expr.l, vecs[expr.v])
    A = eval_expr_components(expr.left, vecs)
    B = eval_expr_components(expr.right, vecs)
    l1 = (A.shape[0] - 1) // 2
    l2 = (B.shape[0] - 1) // 2
    L = expr.L
    out = np.zeros((2 * L + 1, A.shape[1]), dtype=complex)
    for m1 in range(-l1, l1 + 1):
        for m2 in range(-l2, l2 + 1):
            M = m1 + m2
            if abs(M) > L:
                continue
            c = cg_float(l1, m1, l2, m2, L, M)
            if c:
                out[M + L] += c * A[m1 + l1] * B[m2 + l2]
    return out


def eval_expr(expr: CouplingExpr, assignment: dict) -> np.ndarray:
    """Components m = -L..L at a single configuration; shape (2L+1,)."""
    vecs = {s: _coerce_vec(v).reshape(1, 3) for s, v in assignment.items()}
    return eval_expr_components(expr, vecs)[:, 0]


# ---------------------------------------------------------------------------
# Cartesian polynomial evaluation
# ---------------------------------------------------------------------------

def _det_rows(w1, w2, w3):
    c = np.cross(w2, w3)
    return np.sum(np.atleast_2d(w1) * np.atleast_2d(c), axis=-1)


def eval_poly_batch(poly: TensorPoly, vecs: dict, n: int) -> np.ndarray:
    """Evaluate at n configurations; shape (3,)*rank + (n,), real."""
    L = poly.rank
    out = np.zeros((3,) * L + (n,), dtype=complex)
    for t in poly.terms:
        base = np.full(n, t.coeff.to_complex())
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
                ws = [(_BASIS[idx[ent[1]]] if ent[0] == 'f' else vecs[ent[1]])
                      for ent in e]
                fac = fac * _det_rows(*ws)
            out[idx] += fac
    if np.max(np.abs(out.imag)) < 1e-12 * (1.0 + np.max(np.abs(out.real))):
        return out.real
    return out


def eval_poly(result, assignment: dict):
    """Evaluate a reduced polynomial at one configuration.

    Returns a float for rank 0, else an ndarray of shape (3,)*rank.
    """
    poly = result.poly if isinstance(result, ReductionResult) else result
    vecs = {s: _coerce_vec(v).reshape(1, 3) for s, v in assignment.items()}
    arr = eval_poly_batch(poly, vecs, 1)
    if poly.rank == 0:
        v = arr[0]
        return float(v.real) if np.iscomplexobj(arr) else float(v)
    return arr[..., 0]


# ---------------------------------------------------------------------------
# Component bridge (Cartesian tensor -> spherical components)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def u_matrix(L: int) -> np.ndarray:
    """Map from rank-L Cartesian index tuples to components m = -L..L.

    Row m of u_matrix(1) is the contrastandard basis vector for component m;
    higher L is built by coupling with maximal Clebsch-Gordan weights.
    Shape (2L+1,) + (3,)*L.
    """
    if L == 0:
        return np.ones((1,))
    u1 = np.zeros((3, 3), dtype=complex)
    r2 = 1.0 / math.sqrt(2.0)
    u1[0] = (-1j * r2, -r2, 0.0)   # m = -1
    u1[1] = (0.0, 0.0, -1j)        # m = 0
    u1[2] = (1j * r2, -r2, 0.0)    # m = +1
    if L == 1:
        u1.setflags(write=False)
        return u1
    prev = u_matrix(L - 1)
    out = np.zeros((2 * L + 1,) + (3,) * L, dtype=complex)
    for M in range(-L, L + 1):
        for m1 in range(-(L - 1), L):
            m2 = M - m1
            if abs(m2) > 1:
                continue
            c = cg_float(L - 1, m1, 1, m2, L, M)
            if c:
                out[M + L] += c * np.multiply.outer(prev[m1 + L - 1], u1[m2 + 1])
    out.setflags(write=False)
    return out


def rho_float(l: int) -> float:
    return 0.5 * math.sqrt((2 * l + 1) * factorial(l)
                           / double_factorial(2 * l - 1)) / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyReport:
    expr: str
    samples: int
    seed: int
    max_abs_err: float
    max_imag_leak: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "expr": self.expr,
            "samples": self.samples,
            "seed": self.seed,
            "max_abs_err": self.max_abs_err,
            "max_imag_leak": self.max_imag_leak,
            "pass": self.passed,
        }


def verify(expr, n_samples: int = 200, tol: float = 1e-10,
           seed: int | None = None,
           result: ReductionResult | None = None) -> VerifyReport:
    """Compare the reduced polynomial against direct spherical evaluation.

    A caller that has already reduced expr passes that reduction as result,
    and it is checked instead of reducing expr again."""
    from .parser import parse, render_expr_text
    if isinstance(expr, str):
        expr = parse(expr)
    if result is None:
        result = reduce_expr(expr)
    elif result.expr != expr:
        raise ValueError("result is the reduction of a different expression")
    if seed is None:
        seed = DEFAULT_SEED
    seed = int(seed)
    syms = sorted({leaf.v for leaf in expr_leaves(expr)})
    vecs = sample_unit_vectors(seed, n_samples, syms)
    S = eval_expr_components(expr, vecs)
    P = eval_poly_batch(result.poly, vecs, n_samples)
    L = result.poly.rank
    if result.true_scalar or L == 0:
        pred = rho_float(0) * P if not result.true_scalar else P
        err = float(np.max(np.abs(S[0] - pred)))
        leak = float(np.max(np.abs(S[0].imag)))
    else:
        U = u_matrix(L)
        pr = rho_float(L)
        axes = (tuple(range(L)), tuple(range(L)))
        preds = np.stack([pr * np.tensordot(U[mi], P, axes=axes)
                          for mi in range(2 * L + 1)])
        err = float(np.max(np.abs(S - preds)))
        leak = 0.0
    passed = bool(err <= tol and leak <= tol)
    return VerifyReport(expr=render_expr_text(expr), samples=n_samples,
                        seed=seed, max_abs_err=err, max_imag_leak=leak,
                        passed=passed)


# ---------------------------------------------------------------------------
# Legendre utilities
# ---------------------------------------------------------------------------

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

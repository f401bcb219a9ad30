"""Brute-force numeric oracle.

Evaluates coupled spherical-harmonic expressions directly from their
definition (associated-Legendre recurrences plus explicit Clebsch-Gordan
sums) and compares them against the reduced Cartesian polynomials, each
projected onto its 2L+1 spherical components through the unitary component
map ``u_matrix(L)`` (at rank 0 the map is 1).

What the oracle shares with the symbolic engine is the parser, the
CouplingExpr tree and the TensorPoly data it is asked to check; a
polynomial's exact prefactor is read once (CoeffAtom.to_complex) and each
term's numerator over the shared denominator as a float.  It shares no algebra:
spherical values come from floating-point recurrences, and its Clebsch-Gordan
coefficients from diagonalising the total J^2 in the product basis (``cg``),
never from the engine's Racah sum or its coefficients.

Each symbol's samples come from one random stream of its own, a keyed child
of the seed (``sample_unit_vectors``), so sample i is the same whatever the
sample count, redraws of near-zero draws included.

A symmetric traceless rank-L tensor is determined by those 2L+1 components,
and they are all verify compares, so the oracle never builds the rank-L
tensor at every sample.  The terms of one group, which share a tensor
structure, are evaluated as one block, projected in sample chunks of bounded
size; the rows of U are symmetric and traceless, so a term with a Kronecker
delta projects to zero and is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeff import double_factorial, factorial
from .reduce import (CouplingExpr, Harmonic, ReductionResult, expr_leaves,
                     reduce_expr)
from .tensor import TensorPoly

DEFAULT_SEED = 20240831

# The most entries of one block in eval_poly_batch (32 MiB of floats), which
# bounds the oracle's memory whatever the sample count.
_BLOCK_FLOATS = 2 ** 22
_LEVI = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI[_i, _j, _k], _LEVI[_i, _k, _j] = 1.0, -1.0


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_unit_vectors(seed: int, n: int, symbols) -> dict:
    """Independent uniform unit vectors, one (n, 3) array per symbol.

    Symbol j, in sorted order, draws all its rows in one call from its own
    stream, the child of seed keyed (j,); no stream is default_rng(seed)
    itself.  The stream is read row by row, so row i never depends on n.  A
    near-zero row i is drawn again from the child keyed (j, i), so a redraw
    keeps that too: the first n rows of a larger call equal a call with n.
    """
    seed, out = int(seed), {}
    for j, s in enumerate(sorted(symbols)):
        v = _stream(seed, j).normal(size=(n, 3))
        for i in np.flatnonzero(np.linalg.norm(v, axis=1) < 1e-8):
            rng = _stream(seed, j, int(i))
            while np.linalg.norm(v[i]) < 1e-8:
                v[i] = rng.normal(size=3)
        out[s] = v / np.linalg.norm(v, axis=1, keepdims=True)
    return out


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients, by diagonalising J^2
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cg_block(l1: int, l2: int) -> np.ndarray:
    """<l1 m1 l2 M-m1 | J M> at [J, M + l1 + l2, m1 + l1]; zero elsewhere.

    At fixed M the product states |l1 m1> |l2 M-m1> span a space in which
    J^2 = J1^2 + J2^2 + 2 J1z J2z + J1+ J2- + J1- J2+ is a symmetric
    tridiagonal matrix with one eigenvalue J(J+1) for each allowed J, and its
    eigenvectors are the coefficients.  The Condon-Shortley sign makes the
    entry of largest m1 positive: it has m1 = l1 or M - m1 = -l2, and either
    way the Racah sum of that coefficient is a single positive term.
    """
    top = l1 + l2
    out = np.zeros((top + 1, 2 * top + 1, 2 * l1 + 1))
    for M in range(-top, top + 1):
        m1 = np.arange(max(-l1, M - l2), min(l1, M + l2) + 1)
        m2 = M - m1
        off = np.sqrt((l1 * (l1 + 1) - m1[:-1] * (m1[:-1] + 1))
                      * (l2 * (l2 + 1) - m2[1:] * (m2[1:] + 1)))
        j2 = (np.diag(l1 * (l1 + 1) + l2 * (l2 + 1) + 2.0 * m1 * m2)
              + np.diag(off, 1) + np.diag(off, -1))
        vecs = np.linalg.eigh(j2)[1]  # columns in ascending J
        out[top + 1 - len(m1):, top + M, l1 + m1] = (vecs * np.sign(vecs[-1])).T
    out.setflags(write=False)
    return out


def cg(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Float Clebsch-Gordan <l1 m1 l2 m2 | l3 m3>, by diagonalising J^2."""
    if (m1 + m2 != m3 or not abs(l1 - l2) <= l3 <= l1 + l2
            or abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3):
        return 0.0
    return float(_cg_block(l1, l2)[l3, m3 + l1 + l2, m1 + l1])


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
    arr = np.asarray(v, dtype=float).reshape(1, 3)
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
            c = cg(l1, m1, l2, m2, L, M)
            if c:
                out[M + L] += c * A[m1 + l1] * B[m2 + l2]
    return out


def eval_expr(expr: CouplingExpr, assignment: dict) -> np.ndarray:
    """Components m = -L..L at a single configuration; shape (2L+1,)."""
    vecs = {s: np.asarray(v, dtype=float).reshape(1, 3) for s, v in assignment.items()}
    return eval_expr_components(expr, vecs)[:, 0]


# ---------------------------------------------------------------------------
# Cartesian polynomial evaluation
# ---------------------------------------------------------------------------

def _det_rows(w1, w2, w3):
    c = np.cross(w2, w3)
    return np.sum(np.atleast_2d(w1) * np.atleast_2d(c), axis=-1)


def _eps_factor(eps: tuple, n_axes: int, cols: dict) -> np.ndarray:
    """The Levi-Civita tensor contracted with the symbol entries of eps, with
    each free entry ('f', a) on axis a of a block of n_axes axes, broadcastable
    against (3,)*n_axes + (n,)."""
    ops, subs, free = [_LEVI], ["abc"], []
    for c, (kind, x) in zip("abc", eps):
        if kind == 'f':
            free.append((x, c))
        else:
            ops.append(cols[x])
            subs.append(c + "z")
    free.sort()
    tail = "z" if len(ops) > 1 else ""
    block = np.einsum(",".join(subs) + "->" + "".join(c for _, c in free) + tail,
                      *ops)
    lo = free[0][0]
    shape = [1] * (n_axes - lo) + [block.shape[-1] if tail else 1]
    for a, _ in free:
        shape[a - lo] = 3
    return block.reshape(shape)


def _scalar_part(monos, tboxes: tuple, den: int, vecs: dict, n: int, dots: dict,
                 boxes: dict) -> np.ndarray:
    """tboxes times the sum over monos, (dots, numerator), of numerator/den x
    dot powers, (n,).  Each dot power and box is evaluated once into dots and
    boxes, which the caller shares across the groups of one polynomial."""
    total = np.zeros(n)
    for mono, num in monos:
        value = num / den
        for d in mono:
            if d not in dots:
                dots[d] = np.sum(vecs[d[0]] * vecs[d[1]], axis=1) ** d[2]
            value = value * dots[d]
        total += value
    for b in tboxes:
        if b not in boxes:
            boxes[b] = _det_rows(vecs[b[0]], vecs[b[1]], vecs[b[2]])
        total = total * boxes[b]
    return total


def _block(tvecs: tuple, epses: tuple, L: int, cols: dict, n: int) -> np.ndarray:
    """The product of a delta-free structure's vector and epsilon factors over
    its L slots, as a (3**L, n) matrix."""
    prod = np.ones(n)
    for s, a in tvecs:
        prod = prod * cols[s].reshape((3,) + (1,) * (L - 1 - a) + (n,))
    for e in epses:
        prod = prod * _eps_factor(e, L, cols)
    return np.broadcast_to(prod, (3,) * L + (n,)).reshape(3 ** L, n)


def eval_poly_batch(poly: TensorPoly, vecs: dict, n: int) -> np.ndarray:
    """The 2L+1 spherical components u_matrix(L) @ T of the rank-L tensor T at
    n configurations, shape (2L+1, n), complex; T itself is never built.

    The rows of U are symmetric and traceless over every slot pair, so a term
    with a Kronecker delta projects to zero and is skipped.  Every other slot
    of a structure carries a vector or an epsilon entry, so its vector and
    epsilon factors form one (3**L, n) block, built once for all structures
    that share them, in chunks of at most _BLOCK_FLOATS entries.  The real and
    imaginary rows of U, stacked, project each block once, and each
    structure's scalar part scales that projection.  The prefactor is applied
    once, at the end.
    """
    L, rows = poly.rank, 2 * poly.rank + 1
    U = u_matrix(L).reshape(rows, 3 ** L)
    stacked = np.concatenate([U.real, U.imag])
    cols = {s: np.ascontiguousarray(v.T) for s, v in vecs.items()}
    chunk = max(1, _BLOCK_FLOATS // 3 ** L)
    layouts, dots, boxes = {}, {}, {}
    for (tvecs, deltas, epses, tboxes), monos in poly.groups:
        if not deltas:
            layouts.setdefault((tvecs, epses), []).append((tboxes, monos))
    out = np.zeros((2 * rows, n))
    for (tvecs, epses), parts in layouts.items():
        projected = np.empty((2 * rows, n))
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            part = {s: c[:, lo:hi] for s, c in cols.items()}
            projected[:, lo:hi] = stacked @ _block(tvecs, epses, L, part, hi - lo)
        # One scalar part at a time, so the call holds no array per structure.
        for tboxes, monos in parts:
            out += projected * _scalar_part(monos, tboxes, poly.den, vecs, n,
                                            dots, boxes)
    return (out[:rows] + 1j * out[rows:]) * poly.prefactor.to_complex()


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
            c = cg(L - 1, m1, 1, m2, L, M)
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
    """Outcome of one verify run.

    max_rel_err is max_abs_err over the largest |spherical value| of any
    sample and component; worst is {"sample": i, "m": M}, where the largest
    absolute error sits.
    """
    expr: str
    samples: int
    seed: int
    max_abs_err: float
    max_imag_leak: float
    passed: bool
    max_rel_err: float
    worst: dict

    def to_json(self) -> dict:
        return {
            "expr": self.expr,
            "samples": self.samples,
            "seed": self.seed,
            "max_abs_err": self.max_abs_err,
            "max_imag_leak": self.max_imag_leak,
            "pass": self.passed,
            "max_rel_err": self.max_rel_err,
            "worst": dict(self.worst),
        }


def verify(expr, n_samples: int = 200, tol: float = 1e-10,
           seed: int | None = None,
           result: ReductionResult | None = None) -> VerifyReport:
    """Compare the reduced polynomial against direct spherical evaluation.

    A caller that has already reduced expr passes that reduction as result,
    and it is checked instead of reducing expr again."""
    from .parser import parse, render_expr_text
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
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
    L = result.poly.rank
    preds = eval_poly_batch(result.poly, vecs, n_samples)
    if not result.true_scalar:
        preds = rho_float(L) * preds
    abs_err = np.abs(S - preds)
    leak = float(np.max(np.abs(S[0].imag))) if L == 0 else 0.0
    row, sample = np.unravel_index(int(np.argmax(abs_err)), abs_err.shape)
    err = float(abs_err[row, sample])
    scale = float(np.max(np.abs(S)))
    rel = err / scale if scale else (0.0 if err == 0 else math.inf)
    passed = bool(err <= tol and leak <= tol)
    return VerifyReport(expr=render_expr_text(expr), samples=n_samples,
                        seed=seed, max_abs_err=err, max_imag_leak=leak,
                        passed=passed, max_rel_err=rel,
                        worst={"sample": int(sample),
                               "m": int(row) - (abs_err.shape[0] - 1) // 2})

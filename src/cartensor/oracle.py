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
and they are all verify compares.  The rows of U are symmetric, so U sees
only the symmetric part of a term, and a symmetric rank-L tensor is a
homogeneous degree-L polynomial in X = (x, y, z): the oracle holds every such
quantity, U's rows included, as its (L+1)^2 coefficients, never as 3^L index
tuples.  The rows are also traceless, so a term with a Kronecker delta
projects to zero and is skipped.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .coeff import double_factorial, factorial
from .reduce import (CouplingExpr, Harmonic, ReductionResult, expr_leaves,
                     reduce_expr)
from .tensor import TensorPoly

DEFAULT_SEED = 20240831
# The oracle holds every sample's vectors and values at once, so the sample
# count bounds its memory.
MAX_SAMPLES = 10_000


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
    seed, out = _seed(seed), {}
    for j, s in enumerate(sorted(symbols)):
        v = _stream(seed, j).normal(size=(n, 3))
        for i in np.flatnonzero(np.linalg.norm(v, axis=1) < 1e-8):
            rng = _stream(seed, j, int(i))
            while np.linalg.norm(v[i]) < 1e-8:
                v[i] = rng.normal(size=3)
        out[s] = v / np.linalg.norm(v, axis=1, keepdims=True)
    return out


def _seed(seed) -> int:
    """seed as an int, read with operator.index, so a float or a string is
    refused rather than rounded or parsed; ValueError unless it is >= 0."""
    try:
        value = operator.index(seed)
        if value >= 0:
            return value
    except TypeError:
        pass
    raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


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
        # P_m^m carried with phase, (-1)^m (2m-1)!! (x+iy)^m, then up in
        # degree to P_l^m, from P_(m-1)^m = 0.
        pprev, pcur = 0.0, ((-1) ** m) * float(double_factorial(2 * m - 1)) * ph ** m
        for ll in range(m + 1, l + 1):
            pprev, pcur = pcur, (z * (2 * ll - 1) * pcur - (ll + m - 1) * pprev) / (ll - m)
        norm = math.sqrt((2 * l + 1) / (4 * math.pi)
                         * factorial(l - m) / factorial(l + m))
        vals[l + m] = norm * pcur
        if m:
            vals[l - m] = ((-1) ** m) * np.conj(vals[l + m])
    return vals * (-1j) ** l


def _unit_row(v) -> np.ndarray:
    """v as a (1, 3) row.  The recurrences hold on the unit sphere only, so
    a zero, non-finite or non-unit v (norm off 1 by over 1e-9) is a
    ValueError."""
    row = np.asarray(v, dtype=float).reshape(1, 3)
    norm = float(np.linalg.norm(row))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"expected a finite unit vector, got {row[0].tolist()} "
                         f"of norm {norm}")
    return row


def ylm(l: int, m: int, v) -> complex:
    """Single contrastandard spherical-harmonic component at a unit vector."""
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    return complex(_ylm_matrix(l, _unit_row(v))[l + m, 0])


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
            c = cg(l1, m1, l2, m2, L, m1 + m2)   # zero where |m1 + m2| > L
            if c:
                out[m1 + m2 + L] += c * A[m1 + l1] * B[m2 + l2]
    return out


def eval_expr(expr: CouplingExpr, assignment: dict) -> np.ndarray:
    """Components m = -L..L at a single configuration; shape (2L+1,)."""
    vecs = {s: _unit_row(v) for s, v in assignment.items()}
    return eval_expr_components(expr, vecs)[:, 0]


# ---------------------------------------------------------------------------
# Symmetric tensors as polynomials
# ---------------------------------------------------------------------------
# A symmetric rank-d tensor S is held as the polynomial S . X^d: a grid of
# shape (d+1, d+1), or (d+1, d+1, n) at n samples, whose [a, b] is the
# coefficient of x^a y^b z^(d-a-b); entries with a + b > d are zero.  S at an
# index tuple with a x's and b y's is grid[a, b] over the number of such
# tuples, the multinomial d! / (a! b! (d-a-b)!).

def _times(grid: np.ndarray, f) -> np.ndarray:
    """grid times the linear form f . X, f = (f_x, f_y, f_z) of scalars or of
    (n,) rows: one degree higher."""
    k = grid.shape[0]
    out = np.zeros((k + 1, k + 1) + grid.shape[2:], np.result_type(grid, f[0]))
    out[:k, :k] = grid * f[2]
    out[1:, :k] += grid * f[0]
    out[:k, 1:] += grid * f[1]
    return out


_R2 = 1.0 / math.sqrt(2.0)
# Rows m = -1, 0, 1 of u_matrix(1): the contrastandard basis vectors.
_U1 = np.array([(-1j * _R2, -_R2, 0.0), (0.0, 0.0, -1j), (1j * _R2, -_R2, 0.0)])


@lru_cache(maxsize=None)
def _u_poly(L: int) -> np.ndarray:
    """Row M of u_matrix(L) as a polynomial grid, M = -L..L; shape
    (2L+1, L+1, L+1).  Rank L couples rank L-1 with rank 1 by maximal
    Clebsch-Gordan weights, so each row is a sum of rows of rank L-1 times
    linear forms."""
    if L == 0:
        return np.ones((1, 1, 1), dtype=complex)
    prev = _u_poly(L - 1)
    out = np.zeros((2 * L + 1, L + 1, L + 1), dtype=complex)
    for M in range(-L, L + 1):
        for m2 in (-1, 0, 1):
            c = cg(L - 1, M - m2, 1, m2, L, M)
            if c:
                out[M + L] += c * _times(prev[M - m2 + L - 1], _U1[m2 + 1])
    out.setflags(write=False)
    return out


def _u_entries(L: int) -> np.ndarray:
    """The distinct entries of u_matrix(L): [M, a, b] is row M at the index
    tuples with a x's and b y's; zero where a + b > L."""
    counts = np.ones((1, 1))
    for _ in range(L):
        counts = _times(counts, (1.0, 1.0, 1.0))
    return _u_poly(L) / np.maximum(counts, 1.0)


def u_matrix(L: int) -> np.ndarray:
    """Map from rank-L Cartesian index tuples to components m = -L..L, shape
    (2L+1,) + (3,)*L; its rows are symmetric and traceless.  Expanded on each
    call from the polynomial of each row; the oracle never builds it."""
    idx = np.indices((3,) * L)
    return _u_entries(L)[:, np.sum(idx == 0, axis=0), np.sum(idx == 1, axis=0)]


# ---------------------------------------------------------------------------
# Cartesian polynomial evaluation
# ---------------------------------------------------------------------------

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
            boxes[b] = np.sum(vecs[b[0]] * np.cross(vecs[b[1]], vecs[b[2]]), axis=1)
        total = total * boxes[b]
    return total


def _slot_vectors(tvecs: tuple, epses: tuple):
    """The vectors on the slots of a delta-free structure, in no slot order: a
    symbol, or (s1, s2) for s1 x s2; None if the structure projects to zero.
    An epsilon with one free slot puts there the cross product of the entries
    that follow it, cyclically; one with two or more free slots is
    antisymmetric in them, so it projects to zero as a delta does."""
    out = sorted(s for s, _ in tvecs)
    for e in epses:
        free = [p for p, (kind, _) in enumerate(e) if kind == 'f']
        if len(free) > 1:
            return None
        out.append((e[free[0] - 2][1], e[free[0] - 1][1]))
    return tuple(out)


def eval_poly_batch(poly: TensorPoly, vecs: dict, n: int) -> np.ndarray:
    """The 2L+1 spherical components u_matrix(L) @ T of the rank-L tensor T at
    n configurations, shape (2L+1, n), complex; T itself is never built.

    The rows of U are symmetric and traceless, so U sees only the symmetric
    part of each term, and a term with a delta, or an epsilon on two free
    slots, projects to zero and is skipped.  Any other term is its scalar part
    times the product of its L slot vectors, whose symmetric part is the
    product of their linear forms, a polynomial grid.  Structures with the
    same slot vectors in any order share one grid, built from the sum of
    their scalar parts.  The grids are summed and projected once, through the
    distinct entries of U, and the prefactor is applied at the end.
    """
    L, rows = poly.rank, 2 * poly.rank + 1
    scalars, dots, boxes = {}, {}, {}
    for (tvecs, deltas, epses, tboxes), monos in poly.groups:
        key = None if deltas else _slot_vectors(tvecs, epses)
        if key is not None:
            s = _scalar_part(monos, tboxes, poly.den, vecs, n, dots, boxes)
            scalars[key] = scalars[key] + s if key in scalars else s
    forms = {s: tuple(np.ascontiguousarray(v.T)) for s, v in vecs.items()}
    total = np.zeros((L + 1, L + 1, n))
    for key, scalar in scalars.items():
        grid = scalar.reshape(1, 1, n)
        for f in key:
            if f not in forms:
                forms[f] = tuple(np.cross(vecs[f[0]], vecs[f[1]]).T)
            grid = _times(grid, forms[f])
        total += grid
    projected = _u_entries(L).reshape(rows, -1) @ total.reshape(-1, n)
    return projected * poly.prefactor.to_complex()


def rho_float(l: int) -> float:
    """The rescale constant between harmonic_tensor and the true harmonics,
    Y^[l]_m(v) = rho(l) * sum U^[l]_{m, i...} harmonic_tensor(v, l)_{i...},
    rho(l) = sqrt((2l+1) l!/(2l-1)!!) / (2 sqrt(pi))."""
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
        """The fields in order, passed under the key "pass"."""
        return {"pass" if k == "passed" else k: v for k, v in asdict(self).items()}


def verify(expr, n_samples: int = 200, tol: float = 1e-10,
           seed: int | None = None,
           result: ReductionResult | None = None) -> VerifyReport:
    """Compare the reduced polynomial against direct spherical evaluation.

    A caller that has already reduced expr passes that reduction as result,
    and it is checked instead of reducing expr again.  The report passes when
    the largest absolute error, and for a scalar the largest imaginary leak,
    is at most tol * min(1, scale), scale being the largest |spherical value|:
    an absolute bound at magnitude 1 and above, a relative one below it.  tol
    must be finite and greater than 0, n_samples from 1 to MAX_SAMPLES, and
    seed an integer >= 0: an int, or any integer type such as numpy's."""
    from .parser import parse, render_expr_text
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"n_samples must be at most {MAX_SAMPLES}, got {n_samples}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and greater than 0, got {tol}")
    seed = DEFAULT_SEED if seed is None else _seed(seed)
    if isinstance(expr, str):
        expr = parse(expr)
    if result is None:
        result = reduce_expr(expr)
    elif result.expr != expr:
        raise ValueError("result is the reduction of a different expression")
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
    passed = bool(max(err, leak) <= tol * min(1.0, scale))
    return VerifyReport(expr=render_expr_text(expr), samples=n_samples,
                        seed=seed, max_abs_err=err, max_imag_leak=leak,
                        passed=passed, max_rel_err=rel,
                        worst={"sample": int(sample),
                               "m": int(row) - (abs_err.shape[0] - 1) // 2})

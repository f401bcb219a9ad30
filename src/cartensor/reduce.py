"""Reduction pipeline: coupled-harmonic expression trees -> Cartesian polynomials.

An expression is a tree of Harmonic leaves Y^[l](v) (contrastandard-phase
spherical harmonics of distinct unit vectors) and Couple nodes [left x right][L]
(standard angular-momentum coupling).  The reduction maps the tree bottom-up to
exact Cartesian tensor polynomials:

  * a leaf Y^[l](v) becomes the symmetric traceless tensor harmonic_tensor(v,l);
  * an interior coupling of ranks (l1,l2)->L applies couple_even or couple_odd
    (by parity of l1+l2+L) times an exact scalar factor q or r that restores the
    normalization of the true coupled harmonics;
  * a root coupling to L=0 takes the same coupling sum at rank 0, the full
    contraction of its two equal-rank children, times the scalar factor S
    (the interior rank-0 coupling times rho(0)), yielding the genuine scalar
    value (a polynomial in dot products, plus one box product per term when
    the summed harmonic degrees are odd).

For any root of rank L > 0 (and for a bare harmonic root), the result is the
rescaled Cartesian tensor: the true spherical components are recovered by the
rho(L) * U^[L] bridge implemented in the oracle module (see oracle.rho_float).

Every reduction factor is exact; results are exactly real (the i's of the
contrastandard phases cancel, living only in the bridge).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .coeff import CoeffAtom, atom, atom_mul, double_factorial, factorial
from .wigner import three_j, triangle_ok
from .tensor import (TensorPoly, _coupling_sum, _jays, couple_even, couple_odd,
                     harmonic_tensor)


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Harmonic:
    l: int
    v: str
    span: Optional[object] = field(default=None, compare=False)


@dataclass(frozen=True)
class Couple:
    left: "CouplingExpr"
    right: "CouplingExpr"
    L: int
    span: Optional[object] = field(default=None, compare=False)


CouplingExpr = Union[Harmonic, Couple]


def expr_rank(expr: CouplingExpr) -> int:
    return expr.l if isinstance(expr, Harmonic) else expr.L


def expr_leaves(expr: CouplingExpr) -> list:
    if isinstance(expr, Harmonic):
        return [expr]
    return expr_leaves(expr.left) + expr_leaves(expr.right)


def expr_degree_sum(expr: CouplingExpr) -> int:
    return sum(leaf.l for leaf in expr_leaves(expr))


class InvalidExpr(ValueError):
    """A triangle violation, repeated vector symbol or oversized leaf, at the
    node that shows it."""

    def __init__(self, message: str, node: CouplingExpr):
        super().__init__(message)
        self.node = node


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


def validate_expr(expr: CouplingExpr) -> None:
    """Raise InvalidExpr on any triangle violation, repeated vector symbol or
    leaf too large to expand.

    The node is the offending leaf, the second use of a repeated symbol, or
    the coupling whose ranks break the triangle rule."""
    seen = set()
    for leaf in expr_leaves(expr):
        if leaf.l < 0:
            raise InvalidExpr(f"negative harmonic degree {leaf.l}", leaf)
        if leaf_too_large(leaf.l):
            raise InvalidExpr(
                f"harmonic degree {leaf.l} too large: Y[{leaf.l}] expands to "
                f"more than {MAX_LEAF_TERMS} terms", leaf)
        if leaf.v in seen:
            raise InvalidExpr(f"vector symbol '{leaf.v}' used more than once", leaf)
        seen.add(leaf.v)
    _check_triangles(expr)


def _check_triangles(node: CouplingExpr) -> int:
    """The node's rank, after checking the triangle rule below it."""
    if isinstance(node, Harmonic):
        return node.l
    l1, l2 = _check_triangles(node.left), _check_triangles(node.right)
    if not triangle_ok(l1, l2, node.L):
        raise InvalidExpr(
            f"triangle rule violated: cannot couple ranks ({l1},{l2}) to {node.L}",
            node)
    return node.L


# ---------------------------------------------------------------------------
# Exact scalar factors
# ---------------------------------------------------------------------------

def _hat2_over_sqrt4pi(l1: int, l2: int) -> CoeffAtom:
    # sqrt((2l1+1)(2l2+1)) / sqrt(4 pi)
    return atom(Fraction(1, 2), Fraction((2 * l1 + 1) * (2 * l2 + 1)), -1)


def _dual_form(name: str, l1: int, l2: int, l3: int,
               via_3j: CoeffAtom, closed: CoeffAtom) -> CoeffAtom:
    """sqrt((2l1+1)(2l2+1)/(4 pi)) * closed, after checking that closed, the
    factor's closed form, is the magnitude of via_3j, the same factor through
    the 3j symbol (whose sign is the symbol's phase)."""
    if replace(via_3j, rat=abs(via_3j.rat)) != closed:
        raise AssertionError(f"{name} forms disagree at ({l1},{l2},{l3})")
    return atom_mul(_hat2_over_sqrt4pi(l1, l2), closed)


@lru_cache(maxsize=None)
def q_factor(l1: int, l2: int, l3: int) -> CoeffAtom:
    """Scalar factor for an even-parity interior coupling,
    sqrt((2l1+1)(2l2+1)/(4 pi)) |(l1 l2 l3; 0 0 0)|.

    Computed two independent ways, via the 3j symbol at zero projections and
    via a closed double-factorial form, which _dual_form checks agree."""
    if (l1 + l2 + l3) % 2:
        raise ValueError("q_factor requires even l1+l2+l3")
    J, J1, J2, J3 = _jays(l1, l2, l3)
    rad = Fraction(
        double_factorial(J1) * double_factorial(J2) * double_factorial(J3)
        * factorial(J // 2),
        factorial((J1 + 1) // 2) * factorial((J2 + 1) // 2)
        * factorial((J3 + 1) // 2) * double_factorial(J + 1),
    )
    return _dual_form("q_factor", l1, l2, l3,
                      three_j(l1, l2, l3, 0, 0, 0), atom(1, rad))


@lru_cache(maxsize=None)
def r_factor(l1: int, l2: int, l3: int) -> CoeffAtom:
    """Scalar factor for an odd-parity interior coupling,
    sqrt((2l1+1)(2l2+1)/(4 pi)) sqrt(l1(l1+1) l2(l2+1))/(2 l3)
    |(l1 l2 l3; 1 -1 0)|.

    Computed two independent ways, via the 3j symbol and via a closed
    double-factorial form, which _dual_form checks agree."""
    if (l1 + l2 + l3) % 2 == 0:
        raise ValueError("r_factor requires odd l1+l2+l3")
    grad = atom(Fraction(1, 2 * l3), Fraction(l1 * (l1 + 1) * l2 * (l2 + 1)))
    J, J1, J2, J3 = _jays(l1, l2, l3)
    rad = Fraction(
        double_factorial(J1 + 1) * double_factorial(J2 + 1)
        * double_factorial(J3 + 1) * factorial((J + 1) // 2),
        factorial(J1 // 2) * factorial(J2 // 2) * factorial(J3 // 2)
        * double_factorial(J),
    )
    return _dual_form("r_factor", l1, l2, l3,
                      atom_mul(grad, three_j(l1, l2, l3, 1, -1, 0)),
                      atom(Fraction(1, 2 * l3), rad))


def s_factor(L: int) -> CoeffAtom:
    """Scalar factor for the root coupling of two rank-L tensors to zero."""
    return atom(Fraction(factorial(L), 4 * double_factorial(2 * L - 1)),
                Fraction(2 * L + 1), -2)


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionResult:
    expr: CouplingExpr
    poly: TensorPoly
    parity: str               # "even" | "odd": parity of (sum of degrees - rank)
    factor_trace: tuple       # ((label, CoeffAtom), ...) in application order
    true_scalar: bool         # root coupling to L=0 (no rho(0) factor)

    @property
    def rank(self) -> int:
        return self.poly.rank


def reduce_expr(expr: CouplingExpr) -> ReductionResult:
    """Reduce an expression tree to its exact Cartesian polynomial."""
    validate_expr(expr)
    trace: list = []
    poly = _reduce_node(expr, True, trace)
    parity = "odd" if (expr_degree_sum(expr) - poly.rank) % 2 else "even"
    true_scalar = isinstance(expr, Couple) and expr.L == 0
    return ReductionResult(expr, poly, parity, tuple(trace), true_scalar)


def _reduce_node(node: CouplingExpr, is_root: bool, trace: list) -> TensorPoly:
    """The node's polynomial; appends each factor it applies to trace."""
    if isinstance(node, Harmonic):
        return harmonic_tensor(node.v, node.l)
    pl = _reduce_node(node.left, False, trace)
    pr = _reduce_node(node.right, False, trace)
    l1, l2, L = pl.rank, pr.rank, node.L
    if is_root and L == 0:
        f = s_factor(l1)
        trace.append((f"S[{l1}]", f))
        return _coupling_sum(pl, pr, 0, Fraction(1), f)
    if (l1 + l2 + L) % 2 == 0:
        f = q_factor(l1, l2, L)
        trace.append((f"q[{l1},{l2},{L}]", f))
        return couple_even(pl, pr, L, f)
    f = r_factor(l1, l2, L)
    trace.append((f"r[{l1},{l2},{L}]", f))
    return couple_odd(pl, pr, L, f)

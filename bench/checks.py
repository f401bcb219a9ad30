"""Correctness checks on one reduced coupling, computed apart from the engine.

The Cartesian side is evaluated here, with numpy alone, from the schema-1 JSON
that ``render_json`` prints: the checks read the engine's output, never its
internal objects, so a wrong coefficient or a missing term in that output is
caught.  The spherical side is the oracle's direct evaluation of the coupled
harmonics.  The remaining checks are properties the method must have:

* every coupling: ``oracle.verify`` passes at 1e-10, and the rendered result,
  evaluated here, matches the oracle's spherical components within 1e-10;
* rank 0: real coefficients, and one box product per term when the parity is
  odd, none when it is even;
* rank L >= 2: the evaluated tensor is symmetric and traceless within 1e-10;
* ``[Y[l](a) x Y[l](b)][0]``: coefficients proportional to the Legendre
  coefficients of P_l, computed here by the Bonnet recurrence;
* ``[Y[l](a) x Y[l](b)][1]``: proportional at every sample to P_l'(a.b)(a x b);
* ``[Y[l-1](a) x Y[l](b)][1]``: proportional at every sample to
  P_l'(a.b) b - ((l-1) P_{l-2}(a.b) + (a.b) P'_{l-2}(a.b)) a;
* ``Y[l](a)`` contracted with u...u equals P_l(a.u);
* corpus entries: the JSON equals the stored entry exactly.

``problems`` returns a list of messages; an empty list means the coupling
passed.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import numpy as np

from cartensor import oracle

TOL = 1e-10
# Configurations at which the rendered result is evaluated.
N_SAMPLES = 12

_SLOTS = "ABCDEFGHIJKLMNOP"
_BOUND = "abcdefghijklmnopqrstuvwxy"
_EYE = np.eye(3)
_LEVI = np.zeros((3, 3, 3))
for _p in itertools.permutations(range(3)):
    _LEVI[_p] = np.linalg.det(_EYE[list(_p)])


# ---------------------------------------------------------------------------
# Evaluating a schema-1 result
# ---------------------------------------------------------------------------

def coeff_value(atoms) -> complex:
    """Sum of (num/den) sqrt(rn/rd) pi^(pi_half/2) i^i_pow."""
    total = 0j
    for a in atoms:
        total += (a["num"] / a["den"] * math.sqrt(a["radicand_num"] / a["radicand_den"])
                  * math.pi ** (a["pi_half"] / 2) * 1j ** (a["i_pow"] % 4))
    return total


def _triple(u, v, w):
    return np.einsum("zi,zi->z", u, np.cross(v, w))


def eval_term(term: dict, rank: int, vecs: dict, n: int) -> np.ndarray:
    """One term at n configurations; shape (n,) + (3,) * rank."""
    value = np.full(n, coeff_value(term["coeff"]))
    for s1, s2, k in term["dots"]:
        value = value * np.einsum("zi,zi->z", vecs[s1], vecs[s2]) ** k
    for s1, s2, s3 in term["boxes"]:
        value = value * _triple(vecs[s1], vecs[s2], vecs[s3])
    if rank == 0:
        return value
    operands, subs = [value], ["z"]
    bound = iter(_BOUND)
    for kind, *rest in term["free_slots"]:
        if kind == "vec":
            slot, sym = rest
            operands.append(vecs[sym])
            subs.append("z" + _SLOTS[slot])
        elif kind == "delta":
            operands.append(_EYE)
            subs.append(_SLOTS[rest[0]] + _SLOTS[rest[1]])
        elif kind == "eps":
            letters = ""
            for e in rest:
                if isinstance(e, int):
                    letters += _SLOTS[e]
                else:
                    c = next(bound)
                    letters += c
                    operands.append(vecs[e])
                    subs.append("z" + c)
            operands.append(_LEVI)
            subs.append(letters)
        else:
            raise ValueError(f"unknown free-slot kind {kind!r}")
    return np.einsum(",".join(subs) + "->z" + _SLOTS[:rank], *operands)


def eval_result(obj: dict, vecs: dict, n: int) -> np.ndarray:
    """The whole result at n configurations; shape (n,) + (3,) * rank."""
    rank = obj["rank"]
    out = np.zeros((n,) + (3,) * rank, dtype=complex)
    for term in obj["terms"]:
        out += eval_term(term, rank, vecs, n)
    return out


def sample_vectors(symbols, seed: int, n: int = N_SAMPLES) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for s in sorted(symbols):
        v = rng.normal(size=(n, 3))
        out[s] = v / np.linalg.norm(v, axis=1, keepdims=True)
    return out


def rho(l: int) -> float:
    """Scale between the rank-l Cartesian result and the spherical components."""
    dfact = math.prod(range(2 * l - 1, 0, -2))
    return 0.5 * math.sqrt((2 * l + 1) * math.factorial(l) / dfact / math.pi)


# ---------------------------------------------------------------------------
# Legendre polynomials, by the Bonnet recurrence
# ---------------------------------------------------------------------------

def legendre_exact(l: int) -> dict:
    """Monomial coefficients of P_l as {power: Fraction}."""
    prev, cur = {0: Fraction(1)}, {1: Fraction(1)}
    if l == 0:
        return prev
    for n in range(1, l):
        nxt: dict = {}
        for k, c in cur.items():
            nxt[k + 1] = nxt.get(k + 1, 0) + Fraction(2 * n + 1, n + 1) * c
        for k, c in prev.items():
            nxt[k] = nxt.get(k, 0) - Fraction(n, n + 1) * c
        prev, cur = cur, {k: c for k, c in nxt.items() if c}
    return cur


def legendre_and_prime(l: int, x: np.ndarray):
    """(P_l(x), P_l'(x)), with P_{-1} = 1 and P_{-1}' = 0."""
    if l < 0:
        return np.ones_like(x), np.zeros_like(x)
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    for n in range(l):
        p_prev, p, d_prev, d = (p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1),
                                d, d_prev + (2 * n + 1) * p)
    return p, d


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

def _degrees(text: str) -> list:
    return [int(d) for d in re.findall(r"Y\[(\d+)\]", text)]


def _proportional(value: np.ndarray, form: np.ndarray) -> bool:
    """value == c * form for one nonzero real c, at every sample."""
    c = float(np.sum(value * form) / np.sum(form * form))
    scale = max(1.0, float(np.max(np.abs(value))))
    return c != 0.0 and float(np.max(np.abs(value - c * form))) <= TOL * scale


def _pair_form(kind: str, l: int, a, b) -> np.ndarray:
    x = np.einsum("zi,zi->z", a, b)
    if kind == "pair1":
        return legendre_and_prime(l, x)[1][:, None] * np.cross(a, b)
    dl = legendre_and_prime(l, x)[1]
    p2, d2 = legendre_and_prime(l - 2, x)
    return dl[:, None] * b - ((l - 1) * p2 + x * d2)[:, None] * a


def _legendre_problem(obj: dict, l: int):
    want = legendre_exact(l)
    shapes, ratios, powers = set(), set(), set()
    for term in obj["terms"]:
        if term["boxes"] or term["free_slots"] or len(term["coeff"]) != 1:
            return "not a polynomial in (a.b) with one atom per term"
        dots = term["dots"]
        if dots and (len(dots) != 1 or dots[0][:2] != ["a", "b"]):
            return f"unexpected dot products {dots}"
        k = dots[0][2] if dots else 0
        if k not in want:
            return f"power (a.b)^{k} absent from P_{l}"
        a = term["coeff"][0]
        shapes.add((a["radicand_num"], a["radicand_den"], a["pi_half"], a["i_pow"]))
        ratios.add(Fraction(a["num"], a["den"]) / want[k])
        powers.add(k)
    if powers != set(want) or len(shapes) != 1 or len(ratios) != 1:
        return f"coefficients are not proportional to those of P_{l}"
    return None


def problems(item: dict, expr, obj: dict, report, seed: int) -> list:
    """Every check that fails for one coupling's rendered result ``obj``."""
    out = []
    if not report.passed:
        out.append(f"oracle.verify failed: max_abs_err={report.max_abs_err:.3e}")
    text = item["expr"]
    rank = obj["rank"]
    odd = (sum(_degrees(text)) - rank) % 2
    if rank == 0:
        for term in obj["terms"]:
            if any(a["i_pow"] % 2 for a in term["coeff"]):
                out.append("rank-0 coefficient is not real")
                break
            if len(term["boxes"]) != odd:
                out.append(f"rank-0 term has {len(term['boxes'])} box products "
                           f"with {'odd' if odd else 'even'} parity")
                break

    symbols = sorted(set(re.findall(r"\((\w+)\)", text)))
    vecs = sample_vectors(symbols, seed)
    try:
        value = eval_result(obj, vecs, N_SAMPLES)
    except (KeyError, IndexError, ValueError) as e:
        return out + [f"rendered result cannot be evaluated: {e!r}"]
    spherical = oracle.eval_expr_components(expr, vecs)
    if rank == 0 and text.startswith("["):
        predicted = value[None, :]
    else:
        u = oracle.u_matrix(rank)
        predicted = rho(rank) * np.tensordot(
            u, value, axes=(tuple(range(1, rank + 1)), tuple(range(1, rank + 1))))
    scale = max(1.0, float(np.max(np.abs(spherical))))
    err = float(np.max(np.abs(spherical - predicted)))
    if err > TOL * scale:
        out.append(f"rendered result differs from the oracle by {err:.3e}")
    vscale = max(1.0, float(np.max(np.abs(value))))
    if float(np.max(np.abs(value.imag))) > TOL * vscale:
        out.append("rendered result is not real")
    value = value.real
    if rank >= 2:
        asym = max(float(np.max(np.abs(value - np.swapaxes(value, k, k + 1))))
                   for k in range(1, rank))
        trace = float(np.max(np.abs(np.trace(value, axis1=1, axis2=2))))
        if asym > TOL * vscale:
            out.append(f"rank-{rank} result is not symmetric ({asym:.3e})")
        if trace > TOL * vscale:
            out.append(f"rank-{rank} result is not traceless ({trace:.3e})")

    kind = item["kind"]
    if kind == "corpus" and obj != item["expected"]:
        out.append("JSON differs from the stored corpus entry")
    elif kind == "pair0":
        msg = _legendre_problem(obj, item["l"])
        if msg:
            out.append(msg)
    elif kind in ("pair1", "pair_step"):
        if not _proportional(value, _pair_form(kind, item["l"], vecs["a"], vecs["b"])):
            out.append("rank-1 result is not proportional to its closed form")
    elif kind == "bare":
        l = item["l"]
        u = sample_vectors(["u"], seed + 1)["u"]
        contracted = value
        for _ in range(l):
            contracted = np.einsum("z...i,zi->z...", contracted, u)
        p_l = legendre_and_prime(l, np.einsum("zi,zi->z", vecs["a"], u))[0]
        if float(np.max(np.abs(contracted - p_l))) > TOL:
            out.append(f"Y[{l}](a) contracted with u...u is not P_{l}(a.u)")
    return out

"""Expression grammar, diagnostics, and renderers.

Grammar (whitespace insignificant):

    expr     := harmonic | coupling
    harmonic := "Y" "[" INT "]" "(" IDENT ")"
    coupling := "[" expr "x" expr "]" "[" INT "]"
    IDENT    := [A-Za-z][A-Za-z0-9_]*

Parse errors (syntax) and semantic errors (triangle-rule violations, repeated
vector symbols) carry a source span; format_error renders the conventional
caret diagnostic.  Renderers produce plain text, LaTeX, and the versioned JSON
result schema {"schema": 1, "rank": int, "terms": [...]}.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .coeff import CoeffAtom, atom_to_json
from .reduce import (Couple, CouplingExpr, Harmonic, InvalidExpr,
                     ReductionResult, validate_expr)

# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ExprError(ValueError):
    """Base for expression errors; carries the source text and a span."""

    def __init__(self, message: str, source: str, span: SourceSpan):
        super().__init__(message)
        self.message = message
        self.source = source
        self.span = span


class ExprSyntaxError(ExprError):
    pass


class ExprSemanticError(ExprError):
    pass


def format_error(err: ExprError) -> str:
    width = max(1, err.span.end - err.span.start)
    caret = " " * err.span.start + "^" * width
    return f"error: {err.message}\n  {err.source}\n  {caret}"


# ---------------------------------------------------------------------------
# Lexer / recursive-descent parser
# ---------------------------------------------------------------------------

# Couplings nest at most this deep.  The parser, validator, reducer and oracle
# all recurse once or more per level, so the limit keeps every stage well below
# the interpreter's recursion limit.
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"(?P<WS>\s+)|(?P<INT>\d+)|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<LB>\[)|(?P<RB>\])|(?P<LP>\()|(?P<RP>\))")


def _lex(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}",
                                  source, SourceSpan(pos, pos + 1))
        if m.lastgroup != "WS":
            tokens.append((m.lastgroup, m.group(), m.start(), m.end()))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.i = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _error(self, message: str, span: SourceSpan | None = None):
        if span is None:
            tok = self._peek()
            if tok is None:
                n = len(self.source)
                span = SourceSpan(n, n + 1)
            else:
                span = SourceSpan(tok[2], tok[3])
        raise ExprSyntaxError(message, self.source, span)

    def _expect(self, kind: str, what: str):
        tok = self._peek()
        if tok is None or tok[0] != kind:
            self._error(f"expected {what}")
        self.i += 1
        return tok

    def parse_expr(self) -> CouplingExpr:
        tok = self._peek()
        if tok is None:
            self._error("expected an expression")
        if tok[0] == "NAME":
            return self._parse_harmonic()
        if tok[0] == "LB":
            return self._parse_coupling()
        self._error("expected 'Y[l](v)' or a coupling '[... x ...][L]'")

    def _parse_harmonic(self) -> Harmonic:
        head = self._expect("NAME", "'Y'")
        if head[1] != "Y":
            raise ExprSyntaxError(f"expected 'Y', got {head[1]!r}",
                                  self.source, SourceSpan(head[2], head[3]))
        self._expect("LB", "'[' after Y")
        l_tok = self._expect("INT", "an integer degree")
        self._expect("RB", "']' after the degree")
        self._expect("LP", "'(' before the vector name")
        name = self._expect("NAME", "a vector name")
        close = self._expect("RP", "')' after the vector name")
        return Harmonic(int(l_tok[1]), name[1], SourceSpan(head[2], close[3]))

    def _parse_coupling(self) -> Couple:
        open_tok = self._expect("LB", "'['")
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                f"couplings nested deeper than {MAX_NESTING} levels",
                self.source, SourceSpan(open_tok[2], open_tok[3]))
        self.depth += 1
        left = self.parse_expr()
        sep = self._expect("NAME", "'x' between the coupled factors")
        if sep[1] != "x":
            raise ExprSyntaxError(f"expected 'x', got {sep[1]!r}",
                                  self.source, SourceSpan(sep[2], sep[3]))
        right = self.parse_expr()
        self._expect("RB", "']' closing the coupling")
        self._expect("LB", "'[' before the coupled rank")
        L_tok = self._expect("INT", "an integer rank")
        close = self._expect("RB", "']' after the rank")
        self.depth -= 1
        return Couple(left, right, int(L_tok[1]), SourceSpan(open_tok[2], close[3]))


def parse(source: str) -> CouplingExpr:
    """Parse and semantically validate an expression string."""
    p = _Parser(source)
    expr = p.parse_expr()
    tok = p._peek()
    if tok is not None:
        raise ExprSyntaxError("unexpected trailing input", source,
                              SourceSpan(tok[2], len(source)))
    try:
        validate_expr(expr)
    except InvalidExpr as e:
        raise ExprSemanticError(str(e), source, e.node.span) from None
    return expr


# ---------------------------------------------------------------------------
# Expression echo renderers
# ---------------------------------------------------------------------------

def render_expr_text(expr: CouplingExpr) -> str:
    if isinstance(expr, Harmonic):
        return f"Y[{expr.l}]({expr.v})"
    return (f"[{render_expr_text(expr.left)} x {render_expr_text(expr.right)}]"
            f"[{expr.L}]")


def render_expr_latex(expr: CouplingExpr) -> str:
    if isinstance(expr, Harmonic):
        return f"Y^{{[{expr.l}]}}(\\hat{{{expr.v}}})"
    return (f"\\left[ {render_expr_latex(expr.left)} \\times "
            f"{render_expr_latex(expr.right)} \\right]^{{[{expr.L}]}}")


# ---------------------------------------------------------------------------
# Result renderers: one display model, one token style per format
# ---------------------------------------------------------------------------

_SLOT_NAMES = "ijklmnpqrstu"


def _slot(i: int) -> str:
    return _SLOT_NAMES[i] if i < len(_SLOT_NAMES) else f"i{i}"


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


class _Style(NamedTuple):
    """The tokens and joiners of one output format (str.format templates)."""
    dot: str
    box: str
    vec: str
    delta: str
    eps: str
    symbol: str      # a vector symbol among the entries of eps
    power: str
    half: str        # an odd number of halves, as an exponent
    sqrt: str
    pi: str
    fraction: str
    den_group: str   # a denominator of several factors
    atom_join: str   # between the factors of a numerator or denominator
    factors: str     # between the factors of a monomial, and an integer's
    lone: str        # the common factor times a single monomial
    group: str       # the common factor times the bracketed sum


_TEXT = _Style(
    dot="({}.{})", box="box({},{},{})", vec="{}[{}]", delta="d({},{})",
    eps="eps({})", symbol="{}", power="{}^{}", half="({}/2)", sqrt="sqrt({})",
    pi="pi", fraction="{}/{}", den_group="({})", atom_join="*", factors="*",
    lone="{} * {}", group="{} * ({})")

_LATEX = _Style(
    dot=r"(\hat{{{}}}\cdot\hat{{{}}})",
    box=r"\hat{{{}}}\cdot(\hat{{{}}}\times\hat{{{}}})",
    vec=r"\hat{{{}}}_{{{}}}", delta=r"\delta_{{{}{}}}", eps=r"\epsilon({})",
    symbol=r"\hat{{{}}}", power="{}^{{{}}}", half="{}/2", sqrt=r"\sqrt{{{}}}",
    pi=r"\pi", fraction=r"\frac{{{}}}{{{}}}", den_group="{}", atom_join="",
    factors=r"\,", lone=r"{}\, {}", group=r"{}\,\left\{{ {} \right\}}")


def _pi_power(pi_half: int, style: _Style) -> str:
    # magnitude only; the sign of the exponent picks numerator or denominator
    h = abs(pi_half)
    if h == 1:
        return style.sqrt.format(style.pi)
    if h == 2:
        return style.pi
    return style.power.format(style.pi, h // 2 if h % 2 == 0 else style.half.format(h))


def _atom_parts(a: CoeffAtom, style: _Style) -> tuple[list, list]:
    """Numerator and denominator factors of a positive canonical atom.

    p/q * sqrt(s) is shown as p*sqrt(s/c) / (q/c * sqrt(c)) with c = gcd(s, q),
    so no square root shares a factor with the integer under the bar."""
    p, q = a.rat.numerator, a.rat.denominator
    s = a.radicand.numerator
    c = gcd(s, q)
    num = ["i"] if a.i_pow == 1 else []
    if p != 1 or (s == c and not num and a.pi_half <= 0):
        num.append(str(p))
    if s != c:
        num.append(style.sqrt.format(s // c))
    if a.pi_half > 0:
        num.append(_pi_power(a.pi_half, style))
    den = [str(q // c)] if q != c else []
    if c != 1:
        den.append(style.sqrt.format(c))
    if a.pi_half < 0:
        den.append(_pi_power(a.pi_half, style))
    return num, den


def _atom(a: CoeffAtom, style: _Style) -> str:
    num, den = _atom_parts(a, style)
    if not den:
        return style.atom_join.join(num)
    bottom = style.atom_join.join(den)
    if len(den) > 1:
        bottom = style.den_group.format(bottom)
    return style.fraction.format(style.atom_join.join(num), bottom)


def _monomial(t, style: _Style) -> str:
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


def _render(poly, style: _Style) -> str:
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


def render_text(result: ReductionResult) -> str:
    return _render(result.poly, _TEXT)


def render_latex(result: ReductionResult) -> str:
    return f"{render_expr_latex(result.expr)} = {_render(result.poly, _LATEX)}"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def result_to_obj(result: ReductionResult) -> dict:
    # Every term shares the prefactor's radicand, pi and i fields; a term only
    # replaces num and den, which keeps atom_to_json's key order.
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
    return {"schema": 1, "rank": result.poly.rank, "terms": terms}


def render_json(result: ReductionResult) -> str:
    return json.dumps(result_to_obj(result))

"""Expression grammar, diagnostics, and renderers.

Grammar (whitespace insignificant):

    expr     := harmonic | coupling
    harmonic := "Y" "[" INT "]" "(" IDENT ")"
    coupling := "[" expr "x" expr "]" "[" INT "]"
    IDENT    := [A-Za-z][A-Za-z0-9_]*

Parse errors (syntax) and semantic errors (triangle-rule violations, repeated
vector symbols) carry a source span; format_error renders the conventional
caret diagnostic.  The result renderers produce plain text, LaTeX, and the
versioned JSON schema {"schema": 1, "rank": int, "terms": [...]}, each in one
pass over the terms that formats every distinct factor (a dot, vector, delta
or epsilon) once per call, a term's free part being a join of those factors;
result_to_obj is render_json's output parsed back.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from operator import itemgetter
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
    r"(?P<WS>\s+)|(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)"
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

    def _int(self, tok, what: str) -> int:
        """The value of the INT token tok; an integer too long for int() (the
        interpreter's digit limit) is a syntax error under the literal."""
        try:
            return int(tok[1])
        except ValueError:
            raise ExprSyntaxError(
                f"{what} too large: {len(tok[1])} digits", self.source,
                SourceSpan(tok[2], tok[3])) from None

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
        return Harmonic(self._int(l_tok, "harmonic degree"), name[1],
                        SourceSpan(head[2], close[3]))

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
        return Couple(left, right, self._int(L_tok, "coupled rank"),
                      SourceSpan(open_tok[2], close[3]))


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
# Result renderers: one display model, one token style per format.  Each
# renderer makes one pass over poly.key_runs() and formats every distinct
# factor of a term once per call; result_to_obj parses render_json's output.
# ---------------------------------------------------------------------------

_SLOT_NAMES = "ijklmnpqrstu"


def _slot(i: int) -> str:
    return _SLOT_NAMES[i] if i < len(_SLOT_NAMES) else f"i{i}"


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


class _Memo(dict):
    """A dict that fills a missing key with make(key), once per key."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _dot_factor(d: tuple, style: _Style) -> str:
    dot = style.dot.format(d[0], d[1])
    return dot if d[2] == 1 else style.power.format(dot, d[2])


def _scalar_part(key: tuple, style: _Style, dot: _Memo) -> tuple[int, str]:
    """The degree and string of a term's (dots, boxes); dot[d] is the string
    of the dot factor d."""
    dots, boxes = key
    parts = [dot[d] for d in dots] + [style.box.format(*b) for b in boxes]
    return sum(e for _, _, e in dots) + 3 * len(boxes), style.factors.join(parts)


def _vec_factor(v: tuple, style: _Style) -> str:
    return style.vec.format(v[0], _slot(v[1]))


def _delta_factor(d: tuple, style: _Style) -> str:
    return style.delta.format(_slot(d[0]), _slot(d[1]))


def _eps_factor(e: tuple, style: _Style) -> str:
    return style.eps.format(",".join(_slot(x) if kind == 'f' else style.symbol.format(x)
                                     for kind, x in e))


def _free_factors(key: tuple, frag: tuple) -> list:
    """The factors of a term's free part, key = (vecs, deltas, epses), each
    read from its memo in frag = (vector, delta, epsilon memos)."""
    vecs, deltas, epses = key
    vec, delta, eps = frag
    return [vec[v] for v in vecs] + [delta[d] for d in deltas] + [eps[e] for e in epses]


def _free_part(key: tuple, style: _Style, frag: tuple) -> tuple[int, str]:
    """The degree and string of a term's (vecs, deltas, epses)."""
    vecs, _, epses = key
    return (len(vecs) + sum(kind == 's' for e in epses for kind, _ in e),
            style.factors.join(_free_factors(key, frag)))


def _render(poly, style: _Style) -> str:
    """sign * positive atom * (integer terms); the atom's rational part is the
    gcd of the coefficients, gcd(numerators)/den.  The terms are in key order,
    so a stable sort on degree alone gives the display order (-degree, key)."""
    if poly.is_zero:
        return "0"
    dot = _Memo(lambda d: _dot_factor(d, style))
    scalars = _Memo(lambda key: _scalar_part(key, style, dot))
    frag = (_Memo(lambda v: _vec_factor(v, style)), _Memo(lambda d: _delta_factor(d, style)),
            _Memo(lambda e: _eps_factor(e, style)))
    rows = []
    for free, run in poly.key_runs():
        d2, s2 = _free_part(free, style, frag)
        for dots, boxes, num in run:
            d1, s1 = scalars[dots, boxes]
            rows.append((-d1 - d2, num, f"{s1}{style.factors}{s2}" if s1 and s2 else s1 or s2))
    rows.sort(key=itemgetter(0))
    top = gcd(*[num for _, num, _ in rows])
    sign = 1 if rows[0][1] > 0 else -1
    factor = replace(poly.prefactor, rat=Fraction(top, poly.den))
    fact = ("-" if sign < 0 else "") + _atom(factor, style)
    if len(rows) == 1:
        return style.lone.format(fact, rows[0][2]) if rows[0][2] else fact
    div = sign * top
    pieces = []
    for n, (_, num, mono) in enumerate(rows):
        c = num // div
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

def _vec_json(v: tuple) -> str:
    return json.dumps(["vec", v[1], v[0]])


def _delta_json(d: tuple) -> str:
    return f'["delta", {d[0]}, {d[1]}]'


def _eps_json(e: tuple) -> str:
    return json.dumps(["eps", *[x for _, x in e]])


def render_json(result: ReductionResult) -> str:
    """The schema-1 JSON of a result: each term's coefficient is the
    prefactor's atom_to_json with the term's numerator/den, in lowest terms,
    at its head."""
    poly = result.poly
    den = poly.den
    shared = atom_to_json(poly.prefactor)
    del shared["num"], shared["den"]
    tail = json.dumps(shared)[1:]
    # dots and boxes are tuples of triples, written from each triple's JSON
    triple = _Memo(json.dumps)
    triples = _Memo(lambda ts: f"[{', '.join([triple[x] for x in ts])}]")
    frag = (_Memo(_vec_json), _Memo(_delta_json), _Memo(_eps_json))
    terms = []
    for free, run in poly.key_runs():
        slots = f"[{', '.join(_free_factors(free, frag))}]"
        for dots, boxes, num in run:
            g = gcd(num, den)
            terms.append(f'{{"coeff": [{{"num": {num // g}, "den": {den // g}, {tail}], '
                         f'"dots": {triples[dots]}, "boxes": {triples[boxes]}, '
                         f'"free_slots": {slots}}}')
    return f'{{"schema": 1, "rank": {poly.rank}, "terms": [{", ".join(terms)}]}}'


def result_to_obj(result: ReductionResult) -> dict:
    """render_json's object, for callers that compare results as data."""
    return json.loads(render_json(result))

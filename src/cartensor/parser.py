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
from math import gcd

from .coeff import CoeffAtom, atom_to_json
from .reduce import Couple, CouplingExpr, Harmonic, ReductionResult
from .wigner import triangle_ok

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
    _validate_spans(expr, source)
    return expr


def _validate_spans(expr: CouplingExpr, source: str) -> None:
    seen: dict = {}
    for leaf in _leaves(expr):
        if leaf.v in seen:
            raise ExprSemanticError(
                f"vector symbol '{leaf.v}' used more than once", source, leaf.span)
        seen[leaf.v] = leaf

    def rec(node) -> int:
        if isinstance(node, Harmonic):
            return node.l
        l1, l2 = rec(node.left), rec(node.right)
        if not triangle_ok(l1, l2, node.L):
            raise ExprSemanticError(
                f"triangle rule violated: cannot couple ranks ({l1},{l2}) to {node.L}",
                source, node.span)
        return node.L

    rec(expr)


def _leaves(expr: CouplingExpr):
    if isinstance(expr, Harmonic):
        yield expr
    else:
        yield from _leaves(expr.left)
        yield from _leaves(expr.right)


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
# Result renderers
# ---------------------------------------------------------------------------

_SLOT_NAMES = "ijklmnpqrstu"


def _slot(i: int) -> str:
    return _SLOT_NAMES[i] if i < len(_SLOT_NAMES) else f"i{i}"


def _term_degree(t) -> int:
    deg = sum(e for _, _, e in t.dots) + 3 * len(t.boxes)
    deg += len(t.vecs) + sum(1 for e in t.epses for x in e if x[0] == 's')
    return deg


def _display_terms(poly):
    return sorted(poly.terms, key=lambda t: (-_term_degree(t), t.key))


def _monomial_text(t) -> str:
    parts = []
    for s1, s2, e in t.dots:
        base = f"({s1}.{s2})"
        parts.append(base if e == 1 else f"{base}^{e}")
    for b in t.boxes:
        parts.append(f"box({b[0]},{b[1]},{b[2]})")
    for s, i in t.vecs:
        parts.append(f"{s}[{_slot(i)}]")
    for i, j in t.deltas:
        parts.append(f"d({_slot(i)},{_slot(j)})")
    for e in t.epses:
        ents = ",".join(_slot(x[1]) if x[0] == 'f' else x[1] for x in e)
        parts.append(f"eps({ents})")
    return "*".join(parts)


def _pi_text(pi_half: int) -> str:
    # magnitude part only; sign of the exponent chooses numerator/denominator
    h = abs(pi_half)
    if h == 1:
        return "sqrt(pi)"
    if h == 2:
        return "pi"
    if h % 2 == 0:
        return f"pi^{h // 2}"
    return f"pi^({h}/2)"


def _atom_text(a: CoeffAtom) -> str:
    """Positive atom in display form p*sqrt(s')/(q'*sqrt(c)*pi^...)."""
    p, q = a.rat.numerator, a.rat.denominator
    s = int(a.radicand)  # canonical atoms have integer square-free radicand
    # move the largest square-free divisor of s that divides q under the bar
    c = 1
    for d in range(s, 0, -1):
        if s % d == 0 and q % d == 0:
            c = d
            break
    num_parts = []
    if a.i_pow % 4 == 1:
        num_parts.append("i")
    s_top = s // c
    if p != 1 or (s_top == 1 and not num_parts and a.pi_half <= 0):
        num_parts.append(str(p))
    if s_top != 1:
        num_parts.append(f"sqrt({s_top})")
    if a.pi_half > 0:
        num_parts.append(_pi_text(a.pi_half))
    if not num_parts:
        num_parts.append("1")
    den_parts = []
    q_bot = q // c
    if q_bot != 1:
        den_parts.append(str(q_bot))
    if c != 1:
        den_parts.append(f"sqrt({c})")
    if a.pi_half < 0:
        den_parts.append(_pi_text(a.pi_half))
    num = "*".join(num_parts)
    if not den_parts:
        return num
    den = "*".join(den_parts)
    if len(den_parts) > 1:
        den = f"({den})"
    return f"{num}/{den}"


def _common_factor(poly):
    """Factor the polynomial as positive_atom * (signed integer terms).

    Returns (atom, [(int_coeff, term), ...] in display order), or None when the
    term coefficients do not share a single atom shape."""
    terms = _display_terms(poly)
    key = None
    rats = []
    for t in terms:
        if len(t.coeff.atoms) != 1:
            return None
        a = t.coeff.atoms[0]
        k = (a.radicand, a.pi_half, a.i_pow)
        if key is None:
            key = k
        elif k != key:
            return None
        rats.append(a.rat)
    g_num = 0
    g_den = 1
    for r in rats:
        g_num = gcd(g_num, abs(r.numerator))
        g_den = g_den * r.denominator // gcd(g_den, r.denominator)
    g = Fraction(g_num, g_den)
    base = terms[0].coeff.atoms[0]
    factor = CoeffAtom(g, base.radicand, base.pi_half, base.i_pow)
    inner = [(int(r / g), t) for r, t in zip(rats, terms)]
    return factor, inner


def render_text(result: ReductionResult) -> str:
    poly = result.poly
    if poly.is_zero:
        return "0"
    cf = _common_factor(poly)
    if cf is None:
        # mixed coefficient shapes: render term by term
        chunks = []
        for t in _display_terms(poly):
            mono = _monomial_text(t)
            coeff = " + ".join(_atom_text(a) if a.rat > 0 else
                               f"-{_atom_text(CoeffAtom(-a.rat, a.radicand, a.pi_half, a.i_pow))}"
                               for a in t.coeff.atoms)
            if len(t.coeff.atoms) > 1:
                coeff = f"({coeff})"
            chunks.append(f"{coeff} * {mono}" if mono else coeff)
        return " + ".join(chunks)
    factor, inner = cf
    if inner[0][0] < 0:
        inner = [(-c, t) for c, t in inner]
        fact_text = "-" + _atom_text(factor)
    else:
        fact_text = _atom_text(factor)
    if len(inner) == 1:
        mono = _monomial_text(inner[0][1])
        return f"{fact_text} * {mono}" if mono else fact_text
    pieces = []
    for n, (c, t) in enumerate(inner):
        mono = _monomial_text(t)
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        if n == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{' + ' if c > 0 else ' - '}{body}")
    return f"{fact_text} * ({''.join(pieces)})"


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------

def _pi_latex(pi_half: int) -> str:
    h = abs(pi_half)
    if h == 1:
        return "\\sqrt{\\pi}"
    if h == 2:
        return "\\pi"
    if h % 2 == 0:
        return f"\\pi^{{{h // 2}}}"
    return f"\\pi^{{{h}/2}}"


def _atom_latex(a: CoeffAtom) -> str:
    p, q = a.rat.numerator, a.rat.denominator
    s = int(a.radicand)
    c = 1
    for d in range(s, 0, -1):
        if s % d == 0 and q % d == 0:
            c = d
            break
    num_parts = []
    if a.i_pow % 4 == 1:
        num_parts.append("i")
    s_top = s // c
    if p != 1 or (s_top == 1 and not num_parts and a.pi_half <= 0):
        num_parts.append(str(p))
    if s_top != 1:
        num_parts.append(f"\\sqrt{{{s_top}}}")
    if a.pi_half > 0:
        num_parts.append(_pi_latex(a.pi_half))
    num = "".join(num_parts) or "1"
    den_parts = []
    q_bot = q // c
    if q_bot != 1:
        den_parts.append(str(q_bot))
    if c != 1:
        den_parts.append(f"\\sqrt{{{c}}}")
    if a.pi_half < 0:
        den_parts.append(_pi_latex(a.pi_half))
    if not den_parts:
        return num
    return f"\\frac{{{num}}}{{{''.join(den_parts)}}}"


def _monomial_latex(t) -> str:
    parts = []
    for s1, s2, e in t.dots:
        base = f"(\\hat{{{s1}}}\\cdot\\hat{{{s2}}})"
        parts.append(base if e == 1 else f"{base}^{{{e}}}")
    for b in t.boxes:
        parts.append(f"\\hat{{{b[0]}}}\\cdot(\\hat{{{b[1]}}}\\times\\hat{{{b[2]}}})")
    for s, i in t.vecs:
        parts.append(f"\\hat{{{s}}}_{{{_slot(i)}}}")
    for i, j in t.deltas:
        parts.append(f"\\delta_{{{_slot(i)}{_slot(j)}}}")
    for e in t.epses:
        ents = ",".join(_slot(x[1]) if x[0] == 'f' else f"\\hat{{{x[1]}}}" for x in e)
        parts.append(f"\\epsilon({ents})")
    return "\\,".join(parts)


def render_latex(result: ReductionResult) -> str:
    echo = render_expr_latex(result.expr)
    poly = result.poly
    if poly.is_zero:
        return f"{echo} = 0"
    cf = _common_factor(poly)
    if cf is None:
        body_terms = []
        for t in _display_terms(poly):
            val = t.coeff.to_float()
            body_terms.append(f"({val})\\,{_monomial_latex(t)}")
        return f"{echo} = " + " + ".join(body_terms)
    factor, inner = cf
    if inner[0][0] < 0:
        inner = [(-c, t) for c, t in inner]
        fact = "-" + _atom_latex(factor)
    else:
        fact = _atom_latex(factor)
    if len(inner) == 1:
        mono = _monomial_latex(inner[0][1])
        return f"{echo} = {fact}\\, {mono}" if mono else f"{echo} = {fact}"
    pieces = []
    for n, (c, t) in enumerate(inner):
        mono = _monomial_latex(t)
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}\\,{mono}" if mono else str(mag))
        if n == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" {'+' if c > 0 else '-'} {body}")
    return f"{echo} = {fact}\\,\\left\\{{ {''.join(pieces)} \\right\\}}"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def result_to_obj(result: ReductionResult) -> dict:
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
            "coeff": [atom_to_json(a) for a in t.coeff.atoms],
            "dots": [[s1, s2, e] for s1, s2, e in t.dots],
            "boxes": [list(b) for b in t.boxes],
            "free_slots": free,
        })
    return {"schema": 1, "rank": result.poly.rank, "terms": terms}


def render_json(result: ReductionResult) -> str:
    return json.dumps(result_to_obj(result))

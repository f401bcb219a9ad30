"""Unit tests for expression parsing, diagnostics, and the three renderers."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from cartensor import parser
from cartensor.coeff import ATOM_ONE, CoeffAtom
from cartensor.parser import (
    _LATEX,
    _TEXT,
    ExprError,
    ExprSemanticError,
    ExprSyntaxError,
    format_error,
    parse,
    render_expr_latex,
    render_expr_text,
    render_json,
    render_latex,
    render_text,
    result_to_obj,
)
from cartensor.reduce import (Couple, Harmonic, InvalidExpr, ReductionResult, expr_leaves,
                              expr_rank, reduce_expr, validate_expr)
from cartensor.tensor import TensorPoly, TensorTerm

from helpers import poly_of, reference_render, reference_render_json


def _reduce(src):
    return reduce_expr(parse(src))


class TestParse:
    def test_harmonic(self):
        e = parse("Y[3](vec)")
        assert e == Harmonic(3, "vec")

    def test_nested(self):
        e = parse("[Y[2](a) x [Y[1](b) x Y[1](c)][2]][0]")
        assert e == Couple(Harmonic(2, 'a'),
                           Couple(Harmonic(1, 'b'), Harmonic(1, 'c'), 2), 0)

    def test_whitespace_tolerant(self):
        assert parse(" [ Y[1](a)  x  Y[1](b) ][ 0 ] ") == \
            parse("[Y[1](a) x Y[1](b)][0]")

    def test_separator_touching_y(self):
        e = parse("[Y[1](a)xY[1](b)][0]")
        assert e == parse("[Y[1](a) x Y[1](b)][0]")
        assert e.right.span == parser.SourceSpan(9, 16)
        assert parse("Y[1](xY)") == Harmonic(1, "xY")

    def test_round_trip(self):
        for src in [
            "Y[0](a)",
            "[Y[1](a) x Y[1](b)][2]",
            "[[Y[2](a) x Y[2](b)][1] x [Y[2](c) x Y[2](d)][1]][0]",
            "[[[Y[1](a) x Y[3](b)][2] x Y[2](c)][2] x [Y[1](d) x Y[3](e)][2]][0]",
        ]:
            assert render_expr_text(parse(src)) == src
            assert parse(render_expr_text(parse(src))) == parse(src)

    def test_expr_latex(self):
        s = render_expr_latex(parse("[Y[1](a) x Y[1](b)][0]"))
        assert s == (r"\left[ Y^{[1]}(\hat{a}) \times Y^{[1]}(\hat{b}) "
                     r"\right]^{[0]}")


class TestErrors:
    def test_syntax_error_caret(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("Y[2]")
        msg = format_error(ei.value)
        assert msg == ("error: expected '(' before the vector name\n"
                       "  Y[2]\n"
                       "      ^")

    def test_separator_touching_other_name(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("[Y[1](a)xZ[1](b)][0]")
        assert format_error(ei.value) == ("error: expected 'x', got 'xZ'\n"
                                          "  [Y[1](a)xZ[1](b)][0]\n"
                                          "          ^^")

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("Y[1](a) extra")
        assert "trailing" in str(ei.value)

    def test_repeated_symbol_span_is_second_use(self):
        src = "[Y[1](a) x Y[1](a)][0]"
        with pytest.raises(ExprSemanticError) as ei:
            parse(src)
        msg = format_error(ei.value)
        assert msg == ("error: vector symbol 'a' used more than once\n"
                       "  [Y[1](a) x Y[1](a)][0]\n"
                       "             ^^^^^^^")

    def test_triangle_span_is_whole_coupling(self):
        src = "[Y[1](a) x Y[1](b)][5]"
        with pytest.raises(ExprSemanticError) as ei:
            parse(src)
        msg = format_error(ei.value)
        assert msg.splitlines()[0] == \
            "error: triangle rule violated: cannot couple ranks (1,1) to 5"
        assert msg.splitlines()[2] == "  " + "^" * len(src)

    def test_nested_triangle_detected(self):
        with pytest.raises(ExprSemanticError):
            parse("[[Y[1](a) x Y[1](b)][2] x Y[1](c)][0]")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("")

    def test_error_hierarchy(self):
        assert issubclass(ExprSyntaxError, ExprError)
        assert issubclass(ExprSemanticError, ExprError)
        assert issubclass(ExprError, ValueError)


class TestRenderText:
    def test_scalar_pair(self):
        assert render_text(_reduce("[Y[1](a) x Y[1](b)][0]")) == \
            "sqrt(3)/(4*pi) * (a.b)"

    def test_scalar_triple(self):
        assert render_text(_reduce("[Y[1](a) x [Y[1](b) x Y[2](c)][1]][0]")) == \
            "sqrt(3)/(8*sqrt(2)*pi^(3/2)) * (3*(a.c)*(b.c) - (a.b))"

    def test_box_product(self):
        assert render_text(_reduce("[[Y[1](a) x Y[1](b)][1] x Y[1](c)][0]")) == \
            "3/(8*sqrt(2)*pi^(3/2)) * box(a,b,c)"

    def test_rank_one_output(self):
        assert render_text(_reduce("[Y[2](a) x Y[2](b)][1]")) == \
            "sqrt(15)/(2*sqrt(2)*sqrt(pi)) * (a.b)*eps(i,a,b)"

    def test_bare_harmonic(self):
        assert render_text(_reduce("Y[2](a)")) == "1/2 * (3*a[i]*a[j] - d(i,j))"


class TestRenderLatex:
    def test_scalar_pair(self):
        s = render_latex(_reduce("[Y[1](a) x Y[1](b)][0]"))
        assert s == (r"\left[ Y^{[1]}(\hat{a}) \times Y^{[1]}(\hat{b}) "
                     r"\right]^{[0]} = \frac{\sqrt{3}}{4\pi}\, "
                     r"(\hat{a}\cdot\hat{b})")

    def test_box(self):
        s = render_latex(_reduce("[[Y[1](a) x Y[1](b)][1] x Y[1](c)][0]"))
        assert r"\hat{a}\cdot(\hat{b}\times\hat{c})" in s
        assert r"\frac{3}{8\sqrt{2}\pi^{3/2}}" in s

    def test_brace_wrapped_polynomial(self):
        s = render_latex(_reduce("[Y[1](a) x [Y[1](b) x Y[2](c)][1]][0]"))
        assert r"\left\{" in s and r"\right\}" in s


class TestJson:
    def test_schema_shape(self):
        obj = json.loads(render_json(_reduce("[Y[1](a) x Y[1](b)][0]")))
        assert obj["schema"] == 1
        assert obj["rank"] == 0
        assert len(obj["terms"]) == 1
        term = obj["terms"][0]
        assert term["dots"] == [["a", "b", 1]]
        assert term["boxes"] == []
        assert term["free_slots"] == []
        assert term["coeff"] == [{"num": 1, "den": 4, "radicand_num": 3,
                                  "radicand_den": 1, "pi_half": -2, "i_pow": 0}]

    def test_rank_two_free_slots(self):
        obj = result_to_obj(_reduce("Y[2](a)"))
        assert obj["rank"] == 2
        kinds = {tuple(fs) for t in obj["terms"] for fs in t["free_slots"]}
        assert ("delta", 0, 1) in kinds
        assert ("vec", 0, "a") in kinds and ("vec", 1, "a") in kinds

    def test_eps_slot(self):
        obj = result_to_obj(_reduce("[Y[2](a) x Y[2](b)][1]"))
        fs = obj["terms"][0]["free_slots"]
        assert fs == [["eps", 0, "a", "b"]]

    def test_box_slot(self):
        obj = result_to_obj(_reduce("[[Y[1](a) x Y[1](b)][1] x Y[1](c)][0]"))
        assert obj["terms"][0]["boxes"] == [["a", "b", "c"]]

    def test_json_is_deterministic(self):
        a = render_json(_reduce("[[Y[2](a) x Y[2](b)][2] x Y[2](c)][0]"))
        b = render_json(_reduce("[[Y[2](a) x Y[2](b)][2] x Y[2](c)][0]"))
        assert a == b


# ---------------------------------------------------------------------------
# Golden text and LaTeX
# ---------------------------------------------------------------------------

# Text and LaTeX of the 26 corpus entries, Y[1..4](a), the rank-one pairs
# [Y[l](a) x Y[l](b)][1] and [Y[l-1](a) x Y[l](b)][1] for l = 1..3, and an odd
# scalar, recorded from the renderers as they stood before text and LaTeX
# shared one display model.
GOLDEN = json.loads((Path(__file__).parent / "data" / "render_golden.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("row", GOLDEN, ids=[row["expr"] for row in GOLDEN])
def test_render_golden(row):
    result = _reduce(row["expr"])
    assert render_text(result) == row["text"]
    assert render_latex(result) == row["latex"]


@pytest.mark.parametrize("row", GOLDEN, ids=[row["expr"] for row in GOLDEN])
def test_render_json_golden(row):
    assert render_json(_reduce(row["expr"])) == row["json"]


# ---------------------------------------------------------------------------
# Property test: one validator behind parse's semantic errors
# ---------------------------------------------------------------------------

def _tree(draw, depth, names, state, root=False):
    """A random coupling tree over the symbols names yields.  While
    state["pending"] is set, one coupling (the root at the latest) draws its
    rank outside the triangle and is kept as state["bad"]; every other
    coupling draws a rank inside the triangle of its children."""
    if not root and (depth == 0 or draw(st.booleans())):
        return Harmonic(draw(st.integers(0, 3)), next(names))
    left = _tree(draw, depth - 1, names, state)
    right = _tree(draw, depth - 1, names, state)
    l1, l2 = expr_rank(left), expr_rank(right)
    if state.get("pending") and (root or draw(st.booleans())):
        state["pending"] = False
        state["bad"] = Couple(left, right, draw(st.sampled_from(
            [*range(abs(l1 - l2)), l1 + l2 + 1, l1 + l2 + 2])))
        return state["bad"]
    return Couple(left, right, draw(st.integers(abs(l1 - l2), l1 + l2)))


def _names():
    return map("v{}".format, itertools.count())


@st.composite
def _valid_trees(draw):
    return _tree(draw, 3, _names(), {})


@st.composite
def _invalid_trees(draw):
    """(tree, offending node): one triangle violation or one repeated symbol."""
    if draw(st.booleans()):
        state = {"pending": True}
        tree = _tree(draw, 3, _names(), state, root=True)
        return tree, state["bad"]
    tree = _tree(draw, 3, _names(), {}, root=True)
    leaves = expr_leaves(tree)
    j = draw(st.integers(1, len(leaves) - 1))
    i = draw(st.integers(0, j - 1))
    bad = Harmonic(leaves[j].l, leaves[i].v)
    return _swap(tree, leaves[j], bad), bad


def _swap(node, old, new):
    if node is old:
        return new
    if isinstance(node, Harmonic):
        return node
    return Couple(_swap(node.left, old, new), _swap(node.right, old, new), node.L)


def _offsets(node, start, out):
    """{id(n): (start, end)} of node and its descendants in render_expr_text."""
    text = render_expr_text(node)
    out[id(node)] = (start, start + len(text))
    if isinstance(node, Couple):
        _offsets(node.left, start + 1, out)
        _offsets(node.right, start + len(render_expr_text(node.left)) + 4, out)
    return out


_SETTINGS = settings(deadline=None, max_examples=200,
                     phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))


@_SETTINGS
@given(_valid_trees())
def test_parse_round_trips_valid_trees(tree):
    validate_expr(tree)
    assert parse(render_expr_text(tree)) == tree


@_SETTINGS
@given(_invalid_trees())
def test_semantic_error_is_the_validator_error(case):
    tree, bad = case
    with pytest.raises(InvalidExpr) as want:
        validate_expr(tree)
    assert want.value.node is bad
    source = render_expr_text(tree)
    with pytest.raises(ExprSemanticError) as got:
        parse(source)
    assert got.value.message == str(want.value)
    span = got.value.span
    assert (span.start, span.end) == _offsets(tree, 0, {})[id(bad)]
    assert source[span.start:span.end] == render_expr_text(bad)


# ---------------------------------------------------------------------------
# Property test: the one-pass renderers equal the term-by-term references
# ---------------------------------------------------------------------------

_SYMS = ("a", "b", "c", "v1", "w_2")
_RANK = 14   # slots up to 13, past the named slots i..u


@st.composite
def _term_keys(draw):
    sym, slot = st.sampled_from(_SYMS), st.integers(0, _RANK - 1)
    vecs = tuple(sorted(draw(st.lists(st.tuples(sym, slot), max_size=3)), key=lambda v: v[1]))
    pair = st.lists(slot, min_size=2, max_size=2, unique=True).map(lambda ij: tuple(sorted(ij)))
    deltas = tuple(sorted(set(draw(st.lists(pair, max_size=3)))))
    entry = st.one_of(st.tuples(st.just('f'), slot), st.tuples(st.just('s'), sym))
    epses = tuple(draw(st.lists(st.tuples(entry, entry, entry), max_size=1)))
    powers = draw(st.dictionaries(st.tuples(sym, sym).filter(lambda p: p[0] < p[1]),
                                  st.integers(1, 4), max_size=3))
    dots = tuple((s1, s2, e) for (s1, s2), e in sorted(powers.items()))
    boxes = tuple(draw(st.lists(st.lists(sym, min_size=3, max_size=3, unique=True)
                                .map(lambda b: tuple(sorted(b))), max_size=1)))
    return (vecs, deltas, epses, dots, boxes)


_BIG = 2 ** 70
_COEFFS = st.builds(lambda n, d: Fraction(n, d),
                    st.integers(-_BIG, _BIG).filter(bool), st.integers(1, _BIG))
_PREFACTORS = st.builds(lambda r, h, i: CoeffAtom(Fraction(1), r, h, i),
                        st.sampled_from([1, 2, 3, 6, 15, 30]), st.integers(-5, 5),
                        st.integers(0, 1))


@st.composite
def _polys(draw):
    """A canonical TensorPoly: distinct keys in ascending order, nonzero
    coefficients, a prefactor with rat 1 (ATOM_ONE when zero)."""
    keys = sorted(set(draw(st.lists(_term_keys(), max_size=8))))
    terms = tuple(TensorTerm(draw(_COEFFS), *k) for k in keys)
    return poly_of(_RANK, terms, draw(_PREFACTORS) if terms else ATOM_ONE)


def _poly(prefactor, *terms):
    """A poly of (coeff, key fields) terms, put in key order."""
    terms = sorted((TensorTerm(Fraction(c), **fields) for c, fields in terms),
                   key=lambda t: t.key)
    return poly_of(_RANK, terms, prefactor)


_ECHO = parse("Y[1](a)")


@settings(deadline=None, max_examples=300)
@given(_polys())
@example(TensorPoly(0))
@example(_poly(ATOM_ONE, (7, {})))
@example(_poly(CoeffAtom(Fraction(1), 3, -3, 1),
               (-2 ** 65, dict(dots=(("a", "b", 3),))),
               (Fraction(3, 2 ** 66 + 1), dict(boxes=(("a", "b", "c"),)))))
@example(_poly(CoeffAtom(Fraction(1), 2, 1, 0),
               (Fraction(-5, 3), dict(vecs=(("a", 12), ("b", 13)), dots=(("a", "c", 2),))),
               (2, dict(epses=((("f", 0), ("s", "a"), ("s", "b")),))),
               (4, dict(deltas=((3, 12),), epses=((("f", 0), ("f", 13), ("s", "c")),))),
               (Fraction(1, 6), dict(dots=(("a", "c", 2),), boxes=(("a", "b", "c"),)))))
def test_renderers_equal_the_references(poly):
    result = ReductionResult(_ECHO, poly, "even", (), False)
    assert render_text(result) == reference_render(poly, _TEXT)
    assert render_latex(result) == f"{render_expr_latex(_ECHO)} = {reference_render(poly, _LATEX)}"
    want = reference_render_json(result)
    assert render_json(result) == want
    assert result_to_obj(result) == json.loads(want)


# The 3,708-term rank-2 coupling of seven vectors.
_WIDE = ("[[[Y[2](a) x Y[3](b)][1] x [Y[3](c) x Y[2](d)][2]][3] x "
         "[[Y[2](e) x Y[3](f)][5] x Y[3](g)][2]][2]")


def test_json_dumps_runs_once_per_distinct_fragment(monkeypatch):
    result = _reduce(_WIDE)
    terms = result.poly.terms
    assert len(terms) == 3708
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(parser.json, "dumps", lambda obj: calls.append(obj) or dumps(obj))
    rendered = render_json(result)
    monkeypatch.undo()
    # one call per distinct dot or box triple, free_slots list and prefactor
    triples = {x for t in terms for x in t.dots + t.boxes}
    assert len(calls) <= len(triples) + len({(t.vecs, t.deltas, t.epses) for t in terms}) + 1
    assert not any(isinstance(obj, dict) and "terms" in obj for obj in calls)
    assert rendered == reference_render_json(result)


@pytest.mark.parametrize("render, makers", [
    (render_text, ("_vec_factor", "_delta_factor", "_eps_factor")),
    (render_latex, ("_vec_factor", "_delta_factor", "_eps_factor")),
    (render_json, ("_vec_json", "_delta_json", "_eps_json")),
])
def test_each_free_factor_is_formatted_once(monkeypatch, render, makers):
    result = _reduce("Y[8](a)")
    runs = result.poly.key_runs()
    assert len(runs) == len(result.poly.terms) == 764
    want = render(result)
    made = []
    for name in makers:
        make = getattr(parser, name)
        monkeypatch.setattr(parser, name,
                            lambda f, *style, make=make: made.append(f) or make(f, *style))
    assert render(result) == want
    # one fragment per distinct vector factor (a, slot) and delta pair: 8 + 28
    assert len(made) == len(set(made)) <= 8 + 28

"""Unit tests for expression parsing, diagnostics, and the three renderers."""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cartensor.parser import (
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
from cartensor.reduce import (Couple, Harmonic, InvalidExpr, expr_leaves, expr_rank,
                              reduce_expr, validate_expr)


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

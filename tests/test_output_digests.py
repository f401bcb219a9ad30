"""Text, LaTeX and JSON output stay byte for byte what they were.

tests/data/output_digests.json holds, for each of the 103 benchmark
couplings (the bundled corpus, the 50 random couplings and the high-degree
set, in that order), the expression and the sha256 of
render_text + render_latex + render_json of its reduction.  PROBES pins, the
same way, three many-vector couplings, where a contraction has many terms per
side sharing slot signatures, and three degree-4 pairs whose coupling node
sums several r pieces into a rank-4 to rank-8 root (one of them odd, through
the epsilon hook), which the benchmark sets do not reach.  A change that
alters any output byte fails here and names the coupling.  Each of these
reductions also survives a round trip through the engine's raw form.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from cartensor import parse, reduce_expr, render_json, render_latex, render_text, tensor

DIGESTS = json.loads((Path(__file__).parent / "data" / "output_digests.json")
                     .read_text(encoding="utf-8"))

PROBES = {
    "[[[Y[4](a) x Y[4](b)][4] x [Y[4](c) x Y[4](d)][4]][4] x [Y[4](e) x Y[4](f)][4]][0]":
        "c9ebb4c63a13b58cdf2b686820df13b1502b0a965975fa7aebdf5c7cb085a249",
    "[[Y[6](a) x Y[6](b)][5] x [Y[6](c) x Y[6](d)][5]][0]":
        "ea031253c1bcc87de50fa4d4a567636160059a3958dc215b9a071cc6b9b95ff7",
    "[[Y[3](a) x Y[3](b)][5] x [Y[3](c) x Y[3](d)][5]][2]":
        "5895af84f69d33e099f74e9fad3f0556ecc479e0e6416e456fc817545d663b47",
    "[Y[4](a) x Y[4](b)][4]":
        "d08308c19e1f9465bfc14e29445f633ae903147fff8442991b483b3153c78696",
    "[Y[3](a) x Y[4](b)][6]":
        "a9572db9eff5f31e32a648cf9ecc56a48fb0f55f23168f44de66cd9b39186637",
    "[Y[4](a) x Y[4](b)][8]":
        "c08bee47f88c259b95da694e3bb0dd34892ace34840f78cd75614a49d23c0946",
}


def _digest(expr: str) -> str:
    result = reduce_expr(parse(expr))
    blob = render_text(result) + render_latex(result) + render_json(result)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_digest_file_covers_the_benchmark_sets():
    assert len(DIGESTS) == 103


@pytest.mark.parametrize("entry", DIGESTS, ids=[e["expr"] for e in DIGESTS])
def test_output_bytes_unchanged(entry):
    assert _digest(entry["expr"]) == entry["sha256"], f"output of {entry['expr']} changed"


@pytest.mark.parametrize("expr", PROBES)
def test_many_vector_probe_bytes_unchanged(expr):
    assert _digest(expr) == PROBES[expr], f"output of {expr} changed"


def _ascending(items) -> bool:
    return all(a < b for a, b in zip(items, items[1:]))


@pytest.mark.parametrize("expr", [e["expr"] for e in DIGESTS] + list(PROBES))
def test_terms_in_strictly_ascending_key_order(expr):
    """The TensorPoly normal form, and the full-key order of its terms that
    the renderers' display order relies on."""
    p = reduce_expr(parse(expr)).poly
    assert _ascending([struct for struct, _ in p.groups])
    assert all(monos and _ascending([dots for dots, _ in monos]) for _, monos in p.groups)
    nums = [n for _, monos in p.groups for _, n in monos]
    assert all(nums) and p.den >= 1 and math.gcd(p.den, *nums) == 1
    assert _ascending([t.key for t in p.terms])


@pytest.mark.parametrize("expr", [e["expr"] for e in DIGESTS] + list(PROBES))
def test_raw_form_round_trip(expr):
    """Thawing to {struct: {dots: numerator}} and freezing gives p back."""
    p = reduce_expr(parse(expr)).poly
    assert tensor._from_numerators(*tensor._thaw(p), p.prefactor) == p

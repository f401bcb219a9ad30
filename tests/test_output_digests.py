"""Text, LaTeX and JSON output stay byte for byte what they were.

tests/data/output_digests.json holds, for each of the 103 benchmark
couplings (the bundled corpus, the 50 random couplings and the high-degree
set, in that order), the expression and the sha256 of
render_text + render_latex + render_json of its reduction.  A change that
alters any output byte fails here and names the coupling.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cartensor import parse, reduce_expr, render_json, render_latex, render_text

DIGESTS = json.loads((Path(__file__).parent / "data" / "output_digests.json")
                     .read_text(encoding="utf-8"))


def test_digest_file_covers_the_benchmark_sets():
    assert len(DIGESTS) == 103


@pytest.mark.parametrize("entry", DIGESTS, ids=[e["expr"] for e in DIGESTS])
def test_output_bytes_unchanged(entry):
    result = reduce_expr(parse(entry["expr"]))
    blob = render_text(result) + render_latex(result) + render_json(result)
    assert hashlib.sha256(blob.encode()).hexdigest() == entry["sha256"], (
        f"output of {entry['expr']} changed")

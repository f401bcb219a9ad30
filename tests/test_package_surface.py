"""Every public name in the package has a caller.

src/cartensor holds only what reduce, verify, the CLI and the benchmark call;
what only the tests call lives in tests/helpers.py.  Each public module-level
function, class or constant, and each public method of TensorPoly and
CoeffAtom, must be referenced in the package outside its own definition, be
listed in cartensor.__all__, or be named in PINNED with the benchmark file
that calls it by name.  An import alone is not a reference, and neither is a
constant that no one reads: the constants are checked too, so a dead constant
cannot keep the name it refers to alive.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import cartensor

SRC = Path(cartensor.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Names with no caller in the package that a benchmark file calls, wraps or
# reads by name; each leaves when that file stops using it.
PINNED = {
    "CoeffSum": "tracing.py",
    "contract_slots": "tracing.py",
    "symmetrized_embed": "tracing.py",
    "poly_add": "tracing.py",
    "poly_scale": "tracing.py",
    "terms": "tracing.py",
    "expr_rank": "test_bench.py",
    "u_matrix": "checks.py",
}

CLASSES_WITH_METHODS = ("TensorPoly", "CoeffAtom")


def _refs(node) -> Counter:
    """The names node reads: bare names and attribute names."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_defs(tree):
    """(qualified name, name, definition node) for each public module-level
    function, class or constant (an assigned name), and each public method of
    CLASSES_WITH_METHODS."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for t in targets:
            if isinstance(t, ast.Name) and not t.id.startswith("_"):
                yield t.id, t.id, node
        if isinstance(node, ast.ClassDef) and node.name in CLASSES_WITH_METHODS:
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    yield f"{node.name}.{f.name}", f.name, f


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_every_public_name_has_a_caller():
    trees = _trees()
    everywhere = sum((_refs(t) for t in trees.values()), Counter())
    uncalled = []
    for module, tree in trees.items():
        for qualified, name, node in _public_defs(tree):
            outside = everywhere[name] - _refs(node)[name]
            if outside == 0 and name not in cartensor.__all__ and name not in PINNED:
                uncalled.append(f"{module}.{qualified}")
    assert not uncalled, f"no caller in the package, __all__ or PINNED: {uncalled}"


def test_pinned_names_are_defined_and_used_by_their_benchmark_file():
    defined = {name for tree in _trees().values() for _, name, _ in _public_defs(tree)}
    for name, bench_file in PINNED.items():
        assert name in defined, name
        text = (BENCH / bench_file).read_text(encoding="utf-8")
        assert re.search(rf"\b{name}\b", text), f"bench/{bench_file} no longer uses {name}"

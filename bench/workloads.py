"""The benchmark's inputs: three fixed sets of couplings, in a fixed order.

Each item is a dict with the expression text, an id, and a ``kind`` that
selects the extra checks in ``checks.py``.  The run's ``--seed`` picks the
unit vectors at which the oracle and the checks evaluate each coupling; it
changes neither the set nor its order, so every seed does the same work and
fills the caches in the same order.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

WORKLOADS = ("corpus", "random50", "high_degree")

# The Tier-1 draw of tests/test_acceptance.py::test_fifty_random_couplings.
RANDOM50_SEED = 20240831
# No intermediate rank above this: without the cap some generator seeds draw
# couplings that take minutes and more than a GiB.
MAX_INNER_RANK = 5

CORPUS_FILE = Path("src") / "cartensor" / "data" / "appendix.jsonl"


def load_corpus(root: Path) -> list:
    items = []
    with open(root / CORPUS_FILE, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                entry = json.loads(line)
                items.append({"id": entry["id"], "expr": entry["expr"],
                              "kind": "corpus", "expected": entry["expected"]})
    return items


# A random tree is ("Y", l, symbol) or ("C", left, right, L), drawn with the
# same calls on the same generator as the Tier-1 test, so the same seed gives
# the same couplings.

def _rank(node) -> int:
    return node[1] if node[0] == "Y" else node[3]


def _draw(rng: random.Random, depth: int, symbols):
    if depth == 0 or rng.random() < 0.35:
        return ("Y", rng.randint(1, 3), next(symbols))
    left = _draw(rng, depth - 1, symbols)
    right = _draw(rng, depth - 1, symbols)
    lo = abs(_rank(left) - _rank(right))
    hi = _rank(left) + _rank(right)
    return ("C", left, right, rng.randint(lo, hi))


def _text(node) -> str:
    if node[0] == "Y":
        return f"Y[{node[1]}]({node[2]})"
    return f"[{_text(node[1])} x {_text(node[2])}][{node[3]}]"


def _max_rank(node) -> int:
    if node[0] == "Y":
        return node[1]
    return max(node[3], _max_rank(node[1]), _max_rank(node[2]))


def random_couplings(set_seed: int = RANDOM50_SEED) -> list:
    """50 distinct couplings: degrees 1-3, depth <= 3, root rank <= 2, no
    intermediate rank above MAX_INNER_RANK."""
    rng = random.Random(set_seed)
    seen: dict = {}
    while len(seen) < 50:
        tree = _draw(rng, 3, iter(string.ascii_lowercase))
        if _rank(tree) > 2 or _max_rank(tree) > MAX_INNER_RANK:
            continue
        seen.setdefault(_text(tree), None)
    return [{"id": f"R{n + 1}", "expr": text, "kind": "random"}
            for n, text in enumerate(seen)]


def high_degree() -> list:
    """Few vectors at high degree; each group stops at the largest degree that
    still reduces and verifies in a few seconds."""
    items = []
    for l in range(1, 9):
        items.append({"id": f"Y{l}", "expr": f"Y[{l}](a)", "kind": "bare", "l": l})
    for l in range(1, 7):
        items.append({"id": f"P{l}.0", "expr": f"[Y[{l}](a) x Y[{l}](b)][0]",
                      "kind": "pair0", "l": l})
    for l in range(1, 7):
        items.append({"id": f"P{l}.1", "expr": f"[Y[{l}](a) x Y[{l}](b)][1]",
                      "kind": "pair1", "l": l})
    for l in range(1, 8):
        items.append({"id": f"Q{l}.1", "expr": f"[Y[{l - 1}](a) x Y[{l}](b)][1]",
                      "kind": "pair_step", "l": l})
    return items


def build(name: str, root: Path, set_seed: int = RANDOM50_SEED) -> list:
    """The full set of a workload, in its canonical order."""
    if name == "corpus":
        return load_corpus(root)
    if name == "random50":
        return random_couplings(set_seed)
    if name == "high_degree":
        return high_degree()
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")

"""Tests of the benchmark itself: its inputs, its checks and its runs.

    python3 -m pytest -q bench/test_bench.py

The checks must not be vacuous: a rendered result with one coefficient
flipped, or one term dropped, must be reported.  The results are mutated
here, after rendering; cartensor itself is left as it is.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import random
import shutil
import string
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import workloads  # noqa: E402
from cartensor import oracle, parser, reduce  # noqa: E402

END_TO_END = {m["name"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
PER_LAYER = {m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def test_random50_is_the_tier1_set():
    """The rank cap leaves the default random50 draw equal to the Tier-1 draw."""
    path = ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("_tier1_acceptance", path)
    tier1 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tier1)
    rng = random.Random(workloads.RANDOM50_SEED)
    seen: dict = {}
    while len(seen) < 50:
        expr = tier1._random_expr(rng, 3, iter(string.ascii_lowercase))
        if reduce.expr_rank(expr) <= 2:
            seen.setdefault(parser.render_expr_text(expr), None)
    assert [item["expr"] for item in workloads.random_couplings()] == list(seen)


# No workload has an odd scalar; this one carries one box product per term.
ODD_SCALAR = {"id": "odd", "expr": "[[Y[1](a) x Y[1](b)][1] x Y[1](c)][0]",
              "kind": "random"}


def _cases():
    corpus = {item["id"]: item for item in workloads.load_corpus(ROOT)}
    high = {item["id"]: item for item in workloads.high_degree()}
    randoms = workloads.random_couplings()
    rank2 = next(item for item in randoms if item["expr"].endswith("][2]")
                 and item["expr"].count("Y[") <= 3)
    return [corpus["A2"], corpus["A20"], rank2, ODD_SCALAR,
            high["Y3"], high["P3.0"], high["P3.1"], high["Q3.1"]]


@pytest.fixture(scope="module", params=_cases(), ids=lambda item: item["id"])
def reduced(request):
    item = request.param
    expr = parser.parse(item["expr"])
    obj = json.loads(parser.render_json(reduce.reduce_expr(expr)))
    report = oracle.verify(expr, 20)
    return item, expr, obj, report


def test_correct_result_passes(reduced):
    item, expr, obj, report = reduced
    assert checks.problems(item, expr, obj, report, seed=1) == []


def test_flipped_coefficient_fails(reduced):
    item, expr, obj, report = reduced
    for n in range(len(obj["terms"])):
        bad = copy.deepcopy(obj)
        bad["terms"][n]["coeff"][0]["num"] *= -1
        assert checks.problems(item, expr, bad, report, seed=1), n


def test_removed_box_fails():
    expr = parser.parse(ODD_SCALAR["expr"])
    obj = json.loads(parser.render_json(reduce.reduce_expr(expr)))
    assert obj["terms"][0]["boxes"]
    obj["terms"][0]["boxes"] = []
    found = checks.problems(ODD_SCALAR, expr, obj, oracle.verify(expr, 20), seed=1)
    assert any("box products" in msg for msg in found)


def test_dropped_term_fails(reduced):
    item, expr, obj, report = reduced
    for n in range(len(obj["terms"])):
        bad = copy.deepcopy(obj)
        del bad["terms"][n]
        assert checks.problems(item, expr, bad, report, seed=1), n


def test_legendre_coefficients():
    assert checks.legendre_exact(4) == {4: Fraction(35, 8), 2: Fraction(-30, 8),
                                        0: Fraction(3, 8)}


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_slice_runs_to_its_end(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", "0", "--limit", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        proc = _run("--workload", "corpus", "--seed", "5", "--seconds", "1",
                    "--trace", "1", "--limit", "6")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        assert set(metrics) == PER_LAYER
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["reduce.reduce_expr_calls"] == 2 * 6


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "corpus", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

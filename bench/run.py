"""cartensor benchmark.

    python3 bench/run.py --workload corpus|random50|high_degree --seed N
                         --seconds S --trace 0|1 [--limit K] [--set-seed S]

Run from the root of a checkout.  Every round is one cold pass over the whole
workload in a fresh interpreter (``worker.py``), so each round pays for
importing cartensor and for filling its caches, as a user's invocation does.
Rounds repeat while the next one is expected to end within ``--seconds``;
there is always at least one, so a run of a workload whose round is longer
than ``--seconds`` lasts one round.  Metrics are medians over the rounds.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median import
time over the rounds and over SETUP_PROBES interpreters that only import.
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics of the traced ones, with ``trace.overhead_pct``, the traced rounds'
reduce + verify time over the untraced rounds'.

The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
Results and span files go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PROBES = 5
# A run must end within 180 s; stop starting rounds that cannot finish first.
BUDGET_S = 170.0
_PROBE = ("import time; t = time.perf_counter(); import cartensor; "
          "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(args: list, deadline: float) -> str:
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the round could start")
    try:
        proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{args[0]} did not end within {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def probe_setup(deadline: float) -> float:
    return float(_python(["-c", _PROBE], deadline))


def run_round(args, traced: bool, deadline: float) -> dict:
    cmd = [str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--set-seed", str(args.set_seed)]
    if args.limit:
        cmd += ["--limit", str(args.limit)]
    if traced:
        cmd += ["--trace", "--spans",
                str(OUT / f"spans-{args.workload}-{args.seed}.jsonl")]
    out = json.loads(_python(cmd, deadline))
    expected = ROOT / "src" / "cartensor" / "__init__.py"
    if Path(out["cartensor"]).resolve() != expected:
        raise BenchError(f"imported cartensor from {out['cartensor']}, not {expected}")
    for w in out["wrong"]:
        print(f"{args.workload} {w}", file=sys.stderr)
    return out


def _round_s(r: dict) -> float:
    return sum(a + b for a, b in r["ops"])


def end_to_end(rounds: list, setup: list) -> dict:
    med = statistics.median
    reduce_times = [[a for a, _ in r["ops"]] for r in rounds]
    return {
        "setup_s": (med(setup), "s"),
        "reduce_s": (med(sum(t) for t in reduce_times), "s"),
        "verify_s": (med(sum(b for _, b in r["ops"]) for r in rounds), "s"),
        "reduce_gmean_s": (med(statistics.geometric_mean(t) for t in reduce_times), "s"),
        "peak_rss_mib": (med(r["peak_rss_mib"] for r in rounds), "MiB"),
    }


def per_layer(traced: list, plain: list) -> dict:
    first = traced[0]["layers"]
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(r["layers"][name][0] for r in traced)
        metrics[name] = (value, unit)
    overhead = (statistics.median(_round_s(r) for r in traced)
                / statistics.median(_round_s(r) for r in plain) - 1.0)
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first K couplings of the set")
    ap.add_argument("--set-seed", type=int, default=workloads.RANDOM50_SEED,
                    help="generator seed of the random50 set")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cartensor" / "__init__.py").is_file():
        print(f"error: no cartensor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    deadline = start + BUDGET_S
    try:
        setup = [] if args.trace else [probe_setup(deadline) for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        while True:
            t0 = time.perf_counter()
            plain.append(run_round(args, False, deadline))
            if args.trace:
                traced.append(run_round(args, True, deadline))
            now = time.perf_counter()
            if now + (now - t0) > start + args.seconds:
                break
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    rounds = plain + traced
    if any(not r["ops"] for r in rounds):
        print("error: no coupling completed in a round", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = not any("problems" in w for r in rounds for w in r["wrong"])
    if args.trace:
        metrics = per_layer(traced, plain)
    else:
        metrics = end_to_end(plain, setup + [r["import_s"] for r in plain])
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

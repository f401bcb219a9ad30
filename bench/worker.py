"""One cold round of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--limit K]
                            [--set-seed S] [--spans PATH]

Imports cartensor (timing the import), then runs the workload's couplings as
a closed loop on one thread: each coupling is parsed, reduced, rendered as
text and JSON, verified by the oracle at 200 samples, and checked before the
next one starts.  Prints one JSON object on stdout.  ``run.py`` starts this
script with ``src`` on PYTHONPATH; it is not meant to be imported.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import cartensor  # noqa: E402  (the import is what setup_s measures)
_import_s = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from cartensor import oracle, parser, reduce, wigner  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

VERIFY_SAMPLES = 200
ROOT = Path(__file__).resolve().parent.parent


def run_round(items: list, seed: int, tracer=None) -> dict:
    ops, failed, wrong = [], 0, []
    for n, item in enumerate(items):
        if tracer is not None:
            tracer.op = n
        t0 = time.perf_counter()
        try:
            expr = parser.parse(item["expr"])
            result = reduce.reduce_expr(expr)
            parser.render_text(result)
            rendered = parser.render_json(result)
            t1 = time.perf_counter()
            report = oracle.verify(expr, VERIFY_SAMPLES, seed=seed)
            t2 = time.perf_counter()
        except Exception as e:  # an operation the engine refuses counts as failed
            failed += 1
            wrong.append({"id": item["id"], "error": repr(e)})
            continue
        ops.append((t1 - t0, t2 - t1))
        if tracer is not None:
            tracer.active = False
        found = checks.problems(item, expr, json.loads(rendered), report, seed)
        if tracer is not None:
            tracer.active = True
        if found:
            failed += 1
            wrong.append({"id": item["id"], "problems": found})
    return {"ops": ops, "failed": failed, "wrong": wrong}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--set-seed", type=int, default=workloads.RANDOM50_SEED)
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the span records")
    args = ap.parse_args()

    items = workloads.build(args.workload, ROOT, args.set_seed)[:args.limit]
    tracer = None
    if args.trace:
        three_j_info = wigner.three_j.cache_info
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = run_round(items, args.seed, tracer)
    out["attempted"] = len(items)
    out["import_s"] = _import_s
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["cartensor"] = cartensor.__file__
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, three_j_info())
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

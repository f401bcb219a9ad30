"""Command-line interface.

Subcommands:
    reduce  EXPR [--format text|latex|json]   print the reduced form
    verify  EXPR [--samples N] [--tol T] [--seed S]   oracle comparison report
    corpus  [--check | --regen] [--file PATH] [--samples N] [--tol T] [--seed S]

Exit codes: 0 success / verification passed; 1 verification or corpus check
failed; 2 malformed input (parse or semantic error, usage error, unreadable
or malformed corpus file).  Parse diagnostics go to stderr with a caret
marking the offending span; stdout carries only the requested output.

The verify seed is resolved as: --seed flag, else the CARTENSOR_SEED
environment variable, else the built-in default.  A seed is an integer >= 0.
Seeds and sample counts are written as the expression grammar writes its
integers, in the ASCII digits 0-9 (after an optional '-', which is then
refused as out of range); '+5', '5_000' and ' 5 ' are refused.

Only verify and corpus load the numeric oracle, and numpy with it.

corpus --regen reads the bundled corpus file, re-derives each entry's
expected result, and writes the file to --file (default: the bundled file).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .parser import (ExprError, format_error, parse, render_json,
                     render_latex, render_text, result_to_obj)
from .reduce import reduce_expr

def _default_corpus_path():
    from importlib import resources
    return resources.files("cartensor").joinpath("data", "appendix.jsonl")


def _ascii_int(text: str) -> int:
    """The integer text spells as an optional '-' and the ASCII digits 0-9, as
    the expression grammar reads them; int() would also take '5_000', ' 5 ',
    '+5' and non-ASCII decimal digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def sample_count(text: str) -> int:
    from .oracle import MAX_SAMPLES
    value = _ascii_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SAMPLES}, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = _ascii_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def positive_finite_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be greater than 0, got {text}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _resolve_seed(args) -> int | None:
    from .oracle import DEFAULT_SEED
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("CARTENSOR_SEED")
    if env is not None:
        try:
            return non_negative_int(env)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"error: CARTENSOR_SEED must be an integer >= 0, got {env!r}",
                  file=sys.stderr)
            return None
    return DEFAULT_SEED


def _parse_or_report(source: str):
    try:
        return parse(source)
    except ExprError as e:
        print(format_error(e), file=sys.stderr)
        return None


def cmd_reduce(args) -> int:
    expr = _parse_or_report(args.expr)
    if expr is None:
        return 2
    result = reduce_expr(expr)
    if args.format == "latex":
        print(render_latex(result))
    elif args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0


def cmd_verify(args) -> int:
    from .oracle import verify
    expr = _parse_or_report(args.expr)
    if expr is None:
        return 2
    seed = _resolve_seed(args)
    if seed is None:
        return 2
    report = verify(expr, n_samples=args.samples, tol=args.tol, seed=seed)
    print(json.dumps(report.to_json()))
    return 0 if report.passed else 1


class CorpusFileError(ValueError):
    """A corpus file line that is not a well-formed entry."""


def _load_corpus(path) -> list:
    """The entries of a corpus file, one JSON object per non-blank line.

    The bundled file is the only source of the corpus.  Its expressions follow
    the classic reference listing of scalar couplings; entries whose listed
    text is typographically damaged were repaired by degree counting,
    exchange-symmetry arguments, and constant cross-ratios (see the notes), and
    every stored value is oracle-verified on regeneration.  Raises
    CorpusFileError naming the line of an entry that is not an object with a
    string id, a string expr and an object expected, or if the file has no
    entries.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except (ValueError, RecursionError) as e:
                raise CorpusFileError(f"corpus file line {n}: not JSON ({e})") from None
            if not isinstance(entry, dict):
                raise CorpusFileError(f"corpus file line {n}: not a JSON object")
            for key, kind, what in (("id", str, "a string"), ("expr", str, "a string"),
                                    ("expected", dict, "an object")):
                if not isinstance(entry.get(key), kind):
                    raise CorpusFileError(
                        f"corpus file line {n}: '{key}' must be {what}")
            entries.append(entry)
    if not entries:
        raise CorpusFileError("corpus file has no entries")
    return entries


def _read_corpus(path) -> list | None:
    try:
        return _load_corpus(path)
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read corpus file: {e}", file=sys.stderr)
    except CorpusFileError as e:
        print(f"error: {e}", file=sys.stderr)
    return None


def cmd_corpus(args) -> int:
    from .oracle import verify
    if args.regen and args.check:
        print("error: choose one of --regen / --check", file=sys.stderr)
        return 2
    seed = _resolve_seed(args)
    if seed is None:
        return 2
    path = args.file if args.file else _default_corpus_path()

    if args.regen:
        entries = _read_corpus(_default_corpus_path())
        if entries is None:
            return 2
        lines = []
        for entry in entries:
            expr = _parse_or_report(entry["expr"])
            if expr is None:
                return 2
            result = reduce_expr(expr)
            rep = verify(expr, n_samples=args.samples, tol=args.tol, seed=seed,
                         result=result)
            if not rep.passed:
                print(f"{entry['id']}: oracle check failed "
                      f"(max_abs_err={rep.max_abs_err:.3e}); corpus not written",
                      file=sys.stderr)
                return 1
            lines.append(json.dumps(dict(entry, expected=result_to_obj(result))))
        try:
            with open(str(path), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as e:
            print(f"error: cannot write corpus file: {e}", file=sys.stderr)
            return 2
        print(f"wrote {len(lines)} entries to {path}")
        return 0

    entries = _read_corpus(path)
    if entries is None:
        return 2
    failures = []
    npass = 0
    for entry in entries:
        cid = entry["id"]
        try:
            expr = parse(entry["expr"])
        except ExprError as e:
            print(format_error(e), file=sys.stderr)
            failures.append((cid, "parse"))
            continue
        result = reduce_expr(expr)
        if result_to_obj(result) != entry["expected"]:
            failures.append((cid, "mismatch"))
            continue
        rep = verify(expr, n_samples=args.samples, tol=args.tol, seed=seed,
                     result=result)
        if not rep.passed:
            failures.append((cid, "oracle"))
            continue
        npass += 1
    total = len(entries)
    if failures:
        detail = ", ".join(f"{cid} {reason}" for cid, reason in failures)
        print(f"{npass}/{total} pass, {detail}")
        return 1
    print(f"{total}/{total} pass")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cartensor",
        description="Reduce couplings of spherical harmonics of distinct unit "
                    "vectors to Cartesian dot/box-product form, and verify the "
                    "results against a brute-force numeric oracle.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_red = sub.add_parser("reduce", help="reduce an expression to Cartesian form")
    p_red.add_argument("expr", help="e.g. \"[Y[1](a) x Y[1](b)][0]\"")
    p_red.add_argument("--format", choices=["text", "latex", "json"],
                       default="text")
    p_red.set_defaults(func=cmd_reduce)

    p_ver = sub.add_parser("verify", help="compare the reduction against the "
                                          "numeric oracle")
    p_ver.add_argument("expr")
    p_ver.add_argument("--samples", type=sample_count, default=200)
    p_ver.add_argument("--tol", type=positive_finite_float, default=1e-10)
    p_ver.add_argument("--seed", type=non_negative_int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_cor = sub.add_parser("corpus", help="check or regenerate the bundled "
                                          "regression corpus")
    p_cor.add_argument("--check", action="store_true",
                       help="re-reduce every entry, compare against the stored "
                            "result, and oracle-verify (default action)")
    p_cor.add_argument("--regen", action="store_true",
                       help="re-derive the expected result of every bundled "
                            "entry and write the corpus to --file (refuses if "
                            "any entry fails the oracle)")
    p_cor.add_argument("--file", default=None,
                       help="alternate corpus file (default: bundled)")
    p_cor.add_argument("--samples", type=sample_count, default=200)
    p_cor.add_argument("--tol", type=positive_finite_float, default=1e-10)
    p_cor.add_argument("--seed", type=non_negative_int, default=None)
    p_cor.set_defaults(func=cmd_corpus)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    return args.func(args)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

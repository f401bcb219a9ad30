"""Span tracer that wraps cartensor's public functions from outside the package.

``install`` replaces each traced function in every ``cartensor`` module
namespace that holds it, so calls between modules are traced as well as the
benchmark's own calls.  Nothing under ``src/`` changes.

A span is (id, op, name, start, end, parent); spans stay in memory and
``write_spans`` writes them out when the round ends.  Self time is span time
minus the time of child spans, summed per metric as each span closes.  The
``coeff`` functions run hundreds of thousands of times per round: ``from_atoms``
keeps an aggregate span (its time, not a record per call) and the rest carry
counts only.  Garbage-collector passes are timed through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter, defaultdict


def _terms(poly) -> int:
    return len(poly.terms)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.self_s: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.op = None
        self.active = True  # False while the benchmark's own checks run
        self._stack: list = []
        self._gc_start = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0

    # -- wrappers ----------------------------------------------------------

    def span(self, metric: str, fn, record: bool = True, after=None):
        """Wrap fn in a span whose self time adds to ``metric``; ``after`` is
        called with (counts, args, result) to add counts."""
        clock = time.perf_counter
        stack, spans, self_s, counts = self._stack, self.spans, self.self_s, self.counts

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [len(spans) if record else None, clock(), 0.0]
            if record:
                spans.append(None)  # reserve the id; filled when the span closes
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_s[metric] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if record:
                    spans[frame[0]] = (frame[0], self.op, metric, frame[1], end, parent)
            if after is not None:
                after(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- garbage collector ---------------------------------------------------

    def on_gc(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- output --------------------------------------------------------------

    def inclusive_s(self, metric: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s is not None and s[2] == metric)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _replace(original, wrapper) -> None:
    """Put wrapper wherever a cartensor module holds original."""
    for name, module in list(sys.modules.items()):
        if name == "cartensor" or name.startswith("cartensor."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every cartensor layer."""
    from cartensor import coeff, oracle, parser, reduce, tensor, wigner

    def harmonic(counts, args, result):
        counts["tensor.harmonic_terms"] += _terms(result)

    def sampled(counts, args, result):
        counts["oracle.vectors_drawn"] += args[1] * len(args[2])

    def rendered(counts, args, result):
        counts["parser.terms_rendered"] += _terms(args[0].poly)

    def contracted(counts, args, result):
        counts["tensor.contract_raw_terms"] += _terms(args[0]) * _terms(args[1])
        counts["tensor.contract_terms_out"] += _terms(result)

    def embedded(counts, args, result):
        core, group_sizes, r, total_rank = args
        counts["tensor.embed_raw_terms"] += (
            tensor.embed_count(total_rank, group_sizes, r) * _terms(core))
        counts["tensor.embed_terms_out"] += _terms(result)

    def reduced(counts, args, result):
        counts["reduce.reduce_expr_calls"] += 1
        counts["tensor.terms_out"] += _terms(result.poly)

    def evaluated(counts, args, result):
        poly = args[0]
        counts["oracle.poly_eval_products"] += _terms(poly) * 3 ** poly.rank

    wraps = [
        (parser.parse, "parser.parse_s", None),
        (parser.render_text, "parser.render_s", rendered),
        (parser.render_json, "parser.render_s", rendered),
        (reduce.reduce_expr, "reduce.reduce_expr_s", reduced),
        (reduce.q_factor, "reduce.factor_s", None),
        (reduce.r_factor, "reduce.factor_s", None),
        (reduce.s_factor, "reduce.factor_s", None),
        (tensor.harmonic_tensor, "tensor.harmonic_s", harmonic),
        (tensor.couple_even, "tensor.couple_even_s", None),
        (tensor.couple_odd, "tensor.couple_odd_s", None),
        (tensor.odd_norm, "tensor.odd_norm_s", None),
        (tensor.contract_slots, "tensor.contract_s", contracted),
        (tensor.symmetrized_embed, "tensor.embed_s", embedded),
        (tensor.poly_add, "tensor.merge_s", None),
        (tensor.poly_scale, "tensor.merge_s", None),
        (oracle.sample_unit_vectors, "oracle.sample_s", sampled),
        (oracle.eval_expr_components, "oracle.spherical_s", None),
        (oracle.eval_poly_batch, "oracle.poly_eval_s", evaluated),
        (oracle.verify, "oracle.verify_self_s", None),
    ]
    for fn, metric, after in wraps:
        _replace(fn, tracer.span(metric, fn, after=after))

    for fn, key in [(coeff.atom_canonical, "coeff.canonical_calls"),
                    (coeff.square_free_split, "coeff.square_free_calls"),
                    (wigner.three_j, "wigner.three_j_calls")]:
        _replace(fn, tracer.count(key, fn))

    from_atoms = coeff.CoeffSum.from_atoms
    counts = tracer.counts

    def from_atoms_counted(atoms):
        atoms = tuple(atoms)
        if tracer.active:
            counts["coeff.from_atoms_calls"] += 1
            counts["coeff.atoms_in"] += len(atoms)
        return from_atoms(atoms)

    coeff.CoeffSum.from_atoms = staticmethod(
        tracer.span("coeff.from_atoms_s", from_atoms_counted, record=False))
    gc.callbacks.append(tracer.on_gc)


def layer_metrics(tracer: Tracer, three_j_info) -> dict:
    """Per-layer metrics of one traced round, as {name: (value, unit)}."""
    s, c = tracer.self_s, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    hits, misses = three_j_info.hits, three_j_info.misses
    return {
        "parser.parse_s": (s["parser.parse_s"], "s"),
        "parser.render_s": (s["parser.render_s"], "s"),
        "parser.terms_rendered": (c["parser.terms_rendered"], "count"),
        "reduce.reduce_expr_s": (s["reduce.reduce_expr_s"], "s"),
        "reduce.reduce_expr_calls": (c["reduce.reduce_expr_calls"], "count"),
        "reduce.factor_s": (s["reduce.factor_s"], "s"),
        "tensor.harmonic_s": (s["tensor.harmonic_s"], "s"),
        "tensor.harmonic_terms": (c["tensor.harmonic_terms"], "count"),
        "tensor.couple_even_s": (s["tensor.couple_even_s"], "s"),
        "tensor.couple_odd_s": (s["tensor.couple_odd_s"], "s"),
        "tensor.odd_norm_s": (s["tensor.odd_norm_s"], "s"),
        "tensor.odd_norm_incl_s": (tracer.inclusive_s("tensor.odd_norm_s"), "s"),
        "tensor.contract_s": (s["tensor.contract_s"], "s"),
        "tensor.contract_raw_terms": (c["tensor.contract_raw_terms"], "count"),
        "tensor.contract_terms_out": (c["tensor.contract_terms_out"], "count"),
        "tensor.contract_yield": (ratio(c["tensor.contract_terms_out"],
                                        c["tensor.contract_raw_terms"]), "ratio"),
        "tensor.embed_s": (s["tensor.embed_s"], "s"),
        "tensor.embed_raw_terms": (c["tensor.embed_raw_terms"], "count"),
        "tensor.embed_terms_out": (c["tensor.embed_terms_out"], "count"),
        "tensor.embed_yield": (ratio(c["tensor.embed_terms_out"],
                                     c["tensor.embed_raw_terms"]), "ratio"),
        "tensor.merge_s": (s["tensor.merge_s"], "s"),
        "tensor.terms_out": (c["tensor.terms_out"], "count"),
        "coeff.from_atoms_s": (s["coeff.from_atoms_s"], "s"),
        "coeff.from_atoms_calls": (c["coeff.from_atoms_calls"], "count"),
        "coeff.atoms_in": (c["coeff.atoms_in"], "count"),
        "coeff.canonical_calls": (c["coeff.canonical_calls"], "count"),
        "coeff.square_free_calls": (c["coeff.square_free_calls"], "count"),
        "wigner.three_j_calls": (c["wigner.three_j_calls"], "count"),
        "wigner.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "oracle.sample_s": (s["oracle.sample_s"], "s"),
        "oracle.vectors_drawn": (c["oracle.vectors_drawn"], "count"),
        "oracle.spherical_s": (s["oracle.spherical_s"], "s"),
        "oracle.poly_eval_s": (s["oracle.poly_eval_s"], "s"),
        "oracle.poly_eval_products": (c["oracle.poly_eval_products"], "count"),
        "oracle.verify_self_s": (s["oracle.verify_self_s"], "s"),
        "runtime.gc_s": (tracer.gc_s, "s"),
        "runtime.gc_collections": (tracer.gc_collections, "count"),
    }

"""Spans around the public functions of each pathsystems layer.

The tracer replaces each traced function, in every loaded pathsystems
module namespace that holds it, by a wrapper that records one span: its
name, its parent span, the op it belongs to, start and end times, and a
few per-call facts (LP size and verdict, search nodes, JSON bytes).  The
spans stay in memory; ``metrics()`` reduces them to the per-layer metrics
after the run.  A layer's self time is its spans' duration minus the time
covered by their child spans.

Leaf helpers called hundreds of thousands of times per op
(``path_intersection``, ``pair``, ``make_path``, constructors other than
``LinearSystem``) are left unwrapped: their cost stays in the caller's
self time instead of being multiplied by the wrapper's.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED = {
    "cli": ["main"],
    "jsonio": None,  # every name in jsonio.__all__
    "core": ["is_consistent", "is_neighborly", "diameter", "extract_resume",
             "all_resumes", "recover_from_resume", "colinear_triples"],
    "metrize": ["delta", "triple_signature", "resume_signature", "build_lp",
                "is_metric", "is_strictly_metric", "triples_of_metric",
                "realize_weights", "induce_system", "is_realizable",
                "verify_witness", "integral_witness_search", "closure"],
    "ratlp": ["solve_feasibility", "maximize", "verify_certificate"],
    "generators": ["gen_gnp", "perfect_matching", "admissible_pairs",
                   "matching_weights", "gen_bipartite", "gen_join",
                   "gen_join_gamma", "monotone_system"],
}

# Per-call facts kept in a span's last field.
FACTS = {
    "ratlp.solve_feasibility": lambda args, res: (
        (len(args[0].equalities) + len(args[0].inequalities)) * args[0].num_vars,
        not res.feasible,
    ),
    "metrize.integral_witness_search": lambda args, res: res.nodes,
    "jsonio.dumps": lambda args, res: len(res.encode("utf-8")),
}

CONSTRUCTIONS = ("generators.matching_weights", "generators.gen_bipartite")

# Every per-layer metric with its unit; metrics() emits all of them on every
# workload, zero where the workload does not reach the layer.
UNITS = {
    "ratlp.solve_feasibility.calls": "count",
    "ratlp.solve_feasibility.self_s": "s",
    "ratlp.lp_cells": "count",
    "ratlp.infeasible_frac": "fraction",
    "ratlp.verify_certificate.self_s": "s",
    "ratlp.LinearSystem.self_s": "s",
    "metrize.delta.calls": "count",
    "metrize.is_strictly_metric.self_s": "s",
    "metrize.is_realizable.self_s": "s",
    "metrize.closure.self_s": "s",
    "metrize.closure.lp_calls": "count",
    "metrize.integral_witness_search.self_s": "s",
    "metrize.integral_witness_search.lp_calls": "count",
    "metrize.integral_witness_search.nodes": "count",
    "metrize.induce_system.calls": "count",
    "metrize.induce_system.self_s": "s",
    "core.is_consistent.calls": "count",
    "core.is_consistent.self_s": "s",
    "core.colinear_triples.self_s": "s",
    "core.resume.self_s": "s",
    "generators.self_s": "s",
    "generators.induce_per_construction": "count",
    "jsonio.self_s": "s",
    "jsonio.bytes_out": "bytes",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
}


class Tracer:
    def __init__(self, lib):
        self.spans = []  # [name, parent index or -1, op, start, end, facts]
        self.stack = []
        self.op = None
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "pathsystems" or k.startswith("pathsystems."))]
        for layer, names in TRACED.items():
            module = lib[layer]
            for fname in names if names is not None else module.__all__:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is original:
                            self._patches.append((m, attr, original, wrapper))
        # Coefficients become Q in LinearSystem.__post_init__: the rational
        # layer's visible share.  Patching the class covers every caller.
        linear = lib["ratlp"].LinearSystem
        self._patches.append((linear, "__post_init__", linear.__post_init__,
                              self._wrap("ratlp.LinearSystem", linear.__post_init__)))

    def _wrap(self, name, fn):
        spans, stack, facts = self.spans, self.stack, FACTS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            if facts is not None:
                record[5] = facts(args, result)
            return result

        return span

    @contextlib.contextmanager
    def installed(self):
        """Put the wrappers in place for the duration of the block."""
        try:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def metrics(self):
        """Per-layer metrics {name: (value, unit)} and details from the spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, parent, _, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for i, (name, _, _, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]

        def parent_name(span):
            return spans[span[1]][0] if span[1] >= 0 else None

        lps = [i for i, s in enumerate(spans) if s[0] == "ratlp.solve_feasibility"]
        lp_owner = Counter(parent_name(spans[i]) for i in lps)
        # The lp workload runs both LP routes in one op; LP time by caller
        # keeps them apart.
        lp_self_s = defaultdict(float)
        for i in lps:
            lp_self_s[str(parent_name(spans[i]))] += spans[i][4] - spans[i][3] - covered[i]
        lps = [spans[i] for i in lps]
        infeasible = sum(s[5][1] for s in lps)
        constructions = sum(calls[c] for c in CONSTRUCTIONS)
        construction_induces = sum(
            1 for s in spans
            if s[0] == "metrize.induce_system" and (parent_name(s) or "").startswith("generators.")
        )

        def layer_self(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        values = {
            "ratlp.solve_feasibility.calls": len(lps),
            "ratlp.solve_feasibility.self_s": self_s["ratlp.solve_feasibility"],
            "ratlp.lp_cells": sum(s[5][0] for s in lps),
            "ratlp.infeasible_frac": infeasible / len(lps) if lps else 0.0,
            "ratlp.verify_certificate.self_s": self_s["ratlp.verify_certificate"],
            "ratlp.LinearSystem.self_s": self_s["ratlp.LinearSystem"],
            "metrize.delta.calls": calls["metrize.delta"],
            "metrize.is_strictly_metric.self_s": self_s["metrize.is_strictly_metric"],
            "metrize.is_realizable.self_s": self_s["metrize.is_realizable"],
            "metrize.closure.self_s": self_s["metrize.closure"],
            "metrize.closure.lp_calls": lp_owner["metrize.closure"],
            "metrize.integral_witness_search.self_s": self_s["metrize.integral_witness_search"],
            "metrize.integral_witness_search.lp_calls": lp_owner["metrize.integral_witness_search"],
            "metrize.integral_witness_search.nodes": sum(
                s[5] for s in spans if s[0] == "metrize.integral_witness_search"),
            "metrize.induce_system.calls": calls["metrize.induce_system"],
            "metrize.induce_system.self_s": self_s["metrize.induce_system"],
            "core.is_consistent.calls": calls["core.is_consistent"],
            "core.is_consistent.self_s": self_s["core.is_consistent"],
            "core.colinear_triples.self_s": self_s["core.colinear_triples"],
            "core.resume.self_s": self_s["core.extract_resume"] + self_s["core.recover_from_resume"],
            "generators.self_s": layer_self("generators."),
            "generators.induce_per_construction": (
                construction_induces / constructions if constructions else 0.0),
            "jsonio.self_s": layer_self("jsonio."),
            "jsonio.bytes_out": sum(s[5] for s in spans if s[0] == "jsonio.dumps"),
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
        }
        metrics = {k: (values[k], unit) for k, unit in UNITS.items()}
        details = {
            "spans": len(spans),
            "ratlp.infeasible_frac": {"infeasible": infeasible, "base": len(lps)},
            "generators.induce_per_construction": {
                "induces": construction_induces, "base": constructions},
            "lp_calls_by_caller": dict(sorted((str(k), v) for k, v in lp_owner.items())),
            "lp_self_s_by_caller": {k: round(v, 6) for k, v in sorted(lp_self_s.items())},
            "self_s_by_span": {k: round(self_s[k], 6) for k in sorted(self_s)},
            "calls_by_span": dict(sorted(calls.items())),
        }
        return metrics, details

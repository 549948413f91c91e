"""Command-line front end.

Every subcommand reads and writes the canonical JSON schemas (TSV on
request), is reproducible from its recorded seed, and exits 0 on success,
1 on a property violation, 2 on usage errors, invalid argument values
and unreadable or malformed input files.  A command that needs a
consistent system and is given an inconsistent one prints the violation
report of `check` and exits 1.
"""

from __future__ import annotations

import argparse
import importlib.resources
import itertools
import json
import random
import sys as _sys

from . import counting, generators, jsonio, vc
from .core import (
    InconsistentSystemError,
    ResumeRecoveryError,
    all_resumes,
    diameter,
    extract_resume,
    is_consistent,
    is_neighborly,
    recover_from_resume,
)
from .metrize import (
    closure,
    induce_system,
    integral_witness_search,
    is_metric,
    is_realizable,
    is_strictly_metric,
    realize_weights,
    verify_witness,
)
from . import __version__
from .rational import parse_rational, rational_to_text

FIXTURES = importlib.resources.files("pathsystems") / "fixtures"


def _read(path, loader):
    """The document in the JSON file `path`, converted by a jsonio loader.

    An unreadable file, bad JSON (nesting too deep for the parser included)
    or a malformed document ends the run with the one line
    `error: FILE: message` on stderr and exit code 2.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loader(json.load(fh))
    except json.JSONDecodeError as e:
        message = f"{path}:{e.lineno}:{e.colno}: {e.msg}"
    except OSError as e:
        message = f"{path}: {e.strerror}"
    except KeyError as e:
        message = f"{path}: missing key {e}"
    except (AttributeError, RecursionError, TypeError, ValueError) as e:
        message = f"{path}: {e}"
    print(f"error: {message}", file=_sys.stderr)
    raise SystemExit(2)


def _tsv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return rational_to_text(parse_rational(value))
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _emit(doc, fmt):
    if fmt == "tsv":
        for key in sorted(doc):
            print(f"{key}\t{_tsv_cell(doc[key])}")
    else:
        _sys.stdout.write(jsonio.dumps(doc))


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns the exit code.
# ---------------------------------------------------------------------------


def _consistency_report(verdict):
    """The consistency verdict, with the violation when there is one."""
    report = {"consistent": bool(verdict)}
    if not verdict:
        report["violation"] = {
            "pair_a": list(verdict.pair_a),
            "pair_b": list(verdict.pair_b),
            "reason": verdict.reason,
        }
    return report


def cmd_check(args):
    sys = _read(args.system, jsonio.system_from_json)
    verdict = is_consistent(sys)
    report = _consistency_report(verdict)
    report["diameter"] = diameter(sys)
    if args.graph:
        g = _read(args.graph, jsonio.graph_from_json)
        report["neighborly"] = is_neighborly(sys, g)
    _emit(report, args.format)
    return 0 if verdict else 1


def cmd_resume(args):
    if args.action == "extract":
        sys = _read(args.input, jsonio.system_from_json)
        _emit(jsonio.resume_to_json(extract_resume(sys)), args.format)
        return 0
    if args.action == "recover":
        f = _read(args.input, jsonio.resume_from_json)
        try:
            sys = recover_from_resume(f)
        except ResumeRecoveryError as e:
            _emit({"recovered": False, "error": e.kind, "detail": str(e)}, args.format)
            return 1
        _emit(jsonio.system_to_json(sys), args.format)
        return 0
    sys = _read(args.input, jsonio.system_from_json)
    resumes = all_resumes(sys)
    doc = {
        "n": sys.n,
        "count": len(resumes),
        "resumes": [jsonio.resume_to_json(f)["entries"] for f in resumes],
    }
    _emit(doc, args.format)
    return 0


def _certificate(res):
    """The realizing pseudometric of a Yes, or the witness of a No, of a
    strictness or realizability result."""
    if res.metric is not None:
        return {"pseudometric": jsonio.pseudometric_to_json(res.metric)}
    return {"witness": jsonio.witness_to_json(res.witness)}


def cmd_metrize_test(args):
    sys = _read(args.system, jsonio.system_from_json)
    if args.mode == "metric":
        rho = is_metric(sys)
        report = {"mode": "metric", "metric": rho is not None}
        if rho is not None:
            report["pseudometric"] = jsonio.pseudometric_to_json(rho)
    else:  # "strict" is an alias of "pseudo"
        res = is_strictly_metric(sys)
        report = {"mode": "pseudo", "strictly_metric": res.strict, **_certificate(res)}
    _emit(report, args.format)
    return 0


def cmd_metrize_witness(args):
    ts = _read(args.tripleset, jsonio.tripleset_from_json)
    res = is_realizable(ts)
    report = {"realizable": res.realizable, **_certificate(res)}
    if not res.realizable:
        report["witness_verified"] = verify_witness(ts, res.witness)
    _emit(report, args.format)
    return 0


def cmd_metrize_realize(args):
    sys = _read(args.system, jsonio.system_from_json)
    res = is_strictly_metric(sys)
    if not res.strict:
        _emit({"strictly_metric": False, **_certificate(res)}, args.format)
        return 1
    w = realize_weights(sys, res.metric)
    _emit(jsonio.weights_to_json(w), args.format)
    return 0


def cmd_induce(args):
    w = _read(args.weights, jsonio.weights_from_json)
    res = induce_system(w)
    report = {"unique": res.unique}
    if res.unique:
        report["system"] = jsonio.system_to_json(res.system)
    else:
        report["tied_pair"] = list(res.tied_pair)
        report["tie_count"] = res.tie_count
    _emit(report, args.format)
    return 0


def cmd_closure(args):
    ts = _read(args.tripleset, jsonio.tripleset_from_json)
    _emit(jsonio.tripleset_to_json(closure(ts)), args.format)
    return 0


def cmd_gen(args):
    if getattr(args, "limit", 0) < 0:
        raise ValueError(f"--limit {args.limit} is negative")
    if args.family == "diam2":
        g = _read(args.graph, jsonio.graph_from_json)
        systems = list(itertools.islice(generators.enumerate_diam2(g), args.limit))
        doc = {
            "total": str(counting.count_d2(g)),
            "systems": [jsonio.system_to_json(s) for s in systems],
        }
    elif args.family == "bipartite":
        rng = random.Random(args.seed)
        h = args.half_n
        choices = {
            (i, j): rng.choice((i, j))
            for i in range(1, h + 1)
            for j in range(i + 1, h + 1)
        }
        g, w, system = generators.gen_bipartite(h, choices, args.seed)
        doc = {
            "graph": jsonio.graph_to_json(g),
            "weights": jsonio.weights_to_json(w),
            "system": jsonio.system_to_json(system),
        }
    elif args.family == "gnp-matching":
        g = generators.gen_gnp(args.n, parse_rational(args.p), args.seed)
        matching = generators.perfect_matching(g, args.seed)
        adm = generators.admissible_pairs(g, matching)
        rng = random.Random(args.seed)
        xs = {e[0]: e[1] for e in matching}
        choices = {p: rng.choice((xs[p[0]], xs[p[1]])) for p in adm}
        w, _ = generators.matching_weights(g, matching, choices, args.seed)
        doc = {
            "graph": jsonio.graph_to_json(g),
            "matching": [list(e) for e in matching],
            "admissible_pairs": [list(p) for p in adm],
            "weights": jsonio.weights_to_json(w),
        }
    elif args.family == "monotone":
        mats = list(
            itertools.islice(generators.enumerate_monotone(args.n), args.limit)
        )
        doc = {"matrices": [jsonio.monotone_to_json(m) for m in mats]}
    else:  # join
        if args.gamma is not None:
            g = generators.gen_join_gamma(args.n, parse_rational(args.gamma))
        else:
            g = generators.gen_join(args.n)
        doc = jsonio.graph_to_json(g)
    _emit(doc, args.format)
    return 0


def cmd_count(args):
    if args.what == "d2":
        g = _read(args.graph, jsonio.graph_from_json)
        value = counting.count_d2(g)
    elif args.what == "consistent":
        value = sum(1 for _ in counting.enumerate_consistent(args.n))
    elif args.what == "boxed":
        value = counting.boxed_count(args.r, args.s, args.t)
    elif args.what == "sym":
        value = counting.sym_count(args.r, args.t)
    else:  # monotone
        value = sum(1 for _ in generators.enumerate_monotone(args.n))
    _emit({"count": str(value)}, args.format)
    return 0


def cmd_vc(args):
    if args.action == "family":
        sys = _read(args.input, jsonio.system_from_json)
        _emit(jsonio.setsystem_to_json(vc.family_of_system(sys)), args.format)
        return 0
    if args.action == "dim":
        family = _read(args.input, jsonio.setsystem_from_json)
        _emit({"dim": vc.vc_dim(family)}, args.format)
        return 0
    # build
    if args.d < 1:
        raise ValueError(f"--d {args.d} is below 1")
    p = parse_rational(args.p)
    last_error = None
    for attempt in range(10):
        y = vc.sample_lm(args.n, args.d - 1, p, args.seed + attempt)
        try:
            family = vc.build_maximum_class(y)
        except vc.NoCompatibleExtension as e:
            last_error = e
            continue
        doc = {
            "seed": args.seed + attempt,
            "complex": jsonio.complex_to_json(y),
            "family": jsonio.setsystem_to_json(family),
            "maximum_class": vc.is_maximum_class(family, args.d),
        }
        _emit(doc, args.format)
        return 0
    _emit({"error": str(last_error), "seeds_tried": 10}, args.format)
    return 1


def cmd_verify(args):
    ts = jsonio.tripleset_from_json(
        json.loads((FIXTURES / "paper_example.json").read_text())
    )
    alpha = jsonio.witness_from_json(
        json.loads((FIXTURES / "paper_witness.json").read_text())
    )
    identity = verify_witness(ts, alpha)
    res = is_realizable(ts)
    witness_ok = not res.realizable and verify_witness(ts, res.witness)
    search = integral_witness_search(ts, time_budget=args.budget)
    report = {
        "fractional_identity": identity,
        "realizable": res.realizable,
        "witness_verified": witness_ok,
        "integral_witness": search.status,
        "nodes_explored": search.nodes,
    }
    _emit(report, args.format)
    ok = identity and witness_ok and search.status == "not_found"
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pathsystems",
        description="Path systems on graphs: consistency, resumes, exact "
        "metrizability tests, generators, counting, and VC classes.",
    )
    parser.add_argument("--version", action="version", version=f"pathsystems {__version__}")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized subcommands")
    parser.add_argument(
        "--budget", type=float, default=None, help="wall-clock budget in seconds for long searches"
    )
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", dest="format", action="store_const", const="json", default="json"
    )
    fmt.add_argument("--tsv", dest="format", action="store_const", const="tsv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="consistency, neighborliness, diameter")
    p.add_argument("system")
    p.add_argument("--graph", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("resume", help="resume encoding operations")
    p.add_argument("action", choices=["extract", "recover", "all"])
    p.add_argument("input")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("metrize", help="metric and strict-metric tests")
    msub = p.add_subparsers(dest="metrize_command", required=True)
    q = msub.add_parser("test")
    q.add_argument("system")
    q.add_argument("--mode", choices=["metric", "strict", "pseudo"], default="strict")
    q.set_defaults(func=cmd_metrize_test)
    q = msub.add_parser("witness")
    q.add_argument("tripleset")
    q.set_defaults(func=cmd_metrize_witness)
    q = msub.add_parser("realize")
    q.add_argument("system")
    q.set_defaults(func=cmd_metrize_realize)

    p = sub.add_parser("induce", help="unique geodesics of a weight function")
    p.add_argument("weights")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("closure", help="closure of a pointed-triple set")
    p.add_argument("tripleset")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("gen", help="generators of consistent systems")
    gsub = p.add_subparsers(dest="family", required=True)
    q = gsub.add_parser("diam2")
    q.add_argument("graph")
    q.add_argument("--limit", type=int, default=100)
    q.set_defaults(func=cmd_gen)
    q = gsub.add_parser("bipartite")
    q.add_argument("--half-n", dest="half_n", type=int, required=True)
    q.set_defaults(func=cmd_gen)
    q = gsub.add_parser("gnp-matching")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", default="1/2")
    q.set_defaults(func=cmd_gen)
    q = gsub.add_parser("monotone")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--limit", type=int, default=100)
    q.set_defaults(func=cmd_gen)
    q = gsub.add_parser("join")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--gamma", default=None)
    q.set_defaults(func=cmd_gen)

    p = sub.add_parser("count", help="exact counts")
    csub = p.add_subparsers(dest="what", required=True)
    q = csub.add_parser("d2")
    q.add_argument("graph")
    q.set_defaults(func=cmd_count)
    q = csub.add_parser("consistent")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_count)
    q = csub.add_parser("boxed")
    q.add_argument("-r", type=int, required=True)
    q.add_argument("-s", type=int, required=True)
    q.add_argument("-t", type=int, required=True)
    q.set_defaults(func=cmd_count)
    q = csub.add_parser("sym")
    q.add_argument("-r", type=int, required=True)
    q.add_argument("-t", type=int, required=True)
    q.set_defaults(func=cmd_count)
    q = csub.add_parser("monotone")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_count)

    p = sub.add_parser("vc", help="set systems and maximum classes")
    vsub = p.add_subparsers(dest="action", required=True)
    q = vsub.add_parser("family")
    q.add_argument("input")
    q.set_defaults(func=cmd_vc)
    q = vsub.add_parser("dim")
    q.add_argument("input")
    q.set_defaults(func=cmd_vc)
    q = vsub.add_parser("build")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--p", default="7/10")
    q.set_defaults(func=cmd_vc)

    p = sub.add_parser("verify", help="golden-fixture verification")
    p.add_argument("target", choices=["paper-example"])
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # A NaN budget would compare false against every deadline.
        if args.budget is not None and not 0 <= args.budget < float("inf"):
            raise ValueError(f"--budget must be finite and non-negative, got {args.budget}")
        return args.func(args)
    except InconsistentSystemError as e:
        _emit(_consistency_report(e.verdict), args.format)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Verdict benchmark for the pathsystems library and CLI.

Run from the root of a source checkout (the library is imported from
``src/``, never from an installed copy):

    python3 bench/run.py --workload lp --seed 1 --seconds 30 --trace 0

Workloads (one closed-loop caller: the next op starts when the previous
one returns):

* ``lp`` - both LP routes in every op: ``is_strictly_metric`` on one of
  the 112 monotone systems of J_4 under a seeded vertex relabelling (one
  via-dual LP), then ``is_realizable``, ``closure`` and an unbudgeted
  ``integral_witness_search`` on a seeded random set of 2..5 pointed
  triples of [5] (many small LPs of both routes);
* ``certify`` - criterion 10's pipeline through ``cli.main`` in-process:
  ``gen gnp-matching`` (n=32, p=1/2), ``induce``, ``check --graph``,
  ``resume extract`` and ``resume recover`` (no LP at all).

``--trace 0`` runs one untimed warm-up op, then the timed loop for
``--seconds`` with tracing off, and reports the end-to-end metrics.  ``--trace 1`` runs each op of a fixed,
seeded list twice, untraced and traced, and reports per-layer metrics
from spans recorded around the library's public functions (see
``tracing.py``), plus the tracing overhead.  Every answer is checked by
this file's own exact arithmetic after the timed region; an op that
raised or failed its check counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the environment (Python, commit, source digest, CPUs, seed,
rational backend) and the details a metric's value alone does not carry:
the tail percentile and op count, the failure base, and the first errors.
A human-readable table goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Ten ops must lie beyond the reported tail percentile, so every timed run
# completes at least this many ops even when --seconds has run out.
MIN_OPS = 20
# Fresh interpreters timed from start to the first op; setup_s is their median.
SETUP_PROBES = 5

# A loaded library module table, filled by import_library().
lib = {}


def import_library():
    """Import pathsystems from this checkout's src/ and nowhere else."""
    if lib:
        return lib
    package = SRC / "pathsystems" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package.relative_to(ROOT)} not found; "
                         "run from a pathsystems source checkout")
    sys.path.insert(0, str(SRC))
    import pathsystems
    from pathsystems import cli, core, generators, jsonio, metrize, ratlp, rational

    if Path(pathsystems.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported pathsystems from {pathsystems.__file__}, "
                         f"not from {package}")
    lib.update(pathsystems=pathsystems, cli=cli, core=core, generators=generators,
               jsonio=jsonio, metrize=metrize, ratlp=ratlp, rational=rational)
    return lib


# ---------------------------------------------------------------------------
# Independent exact checks.  They use fractions.Fraction and plain tuples,
# never the solver or the library's own verifiers.
# ---------------------------------------------------------------------------


def _frac(q):
    return Fraction(int(q.numerator), int(q.denominator))


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def _pointed_triples(n):
    """All pointed triples (a, b, c) of [n]: a < b, c outside {a, b}."""
    return [(a, b, c) for a in range(1, n + 1) for b in range(a + 1, n + 1)
            for c in range(1, n + 1) if c != a and c != b]


def _signature(n, coeffs):
    """Sum of coeff * Delta_t over a {triple: coeff} map, as {pair: Fraction}."""
    vec = {}
    for (a, b, c), k in coeffs.items():
        for p, s in ((_pair(a, c), 1), (_pair(c, b), 1), ((a, b), -1)):
            vec[p] = vec.get(p, 0) + s * k
    return {p: v for p, v in vec.items() if v != 0}


def check_tight_triples(n, metric, expected):
    """The metric obeys every triangle inequality, tight exactly on `expected`."""
    d = {p: _frac(v) for p, v in metric.d.items()}
    if sorted(d) != [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]:
        return "metric does not cover every vertex pair"
    for a, b, c in _pointed_triples(n):
        slack = d[_pair(a, c)] + d[_pair(c, b)] - d[(a, b)]
        if slack < 0:
            return f"triangle inequality fails on {{{a},{b};{c}}}"
        if (slack == 0) != ((a, b, c) in expected):
            return f"tightness of {{{a},{b};{c}}} disagrees with the expected triples"
    return None


def check_witness(n, triples, alpha):
    """alpha >= 0, sum alpha_t Delta_t = signature(S), support not inside S."""
    coeffs = {tuple(t): _frac(v) for t, v in alpha.items()}
    if any(v < 0 for v in coeffs.values()):
        return "negative witness coefficient"
    if _signature(n, coeffs) != _signature(n, {t: 1 for t in triples}):
        return "witness combination differs from the signature of S"
    if {t for t, v in coeffs.items() if v} <= set(triples):
        return "witness support lies inside S"
    return None


def check_strict(system, res):
    if not res.strict:
        return "monotone system reported not strictly metric"
    colinear = {(*_pair(p[0], p[-1]), c) for p in system.paths.values() for c in p[1:-1]}
    return check_tight_triples(system.n, res.metric, colinear)


def check_verdicts(S, res):
    """Cross-check the realizability, closure and integral-search verdicts."""
    real, cl, search = res
    n, triples = S.n, frozenset(S.triples)
    if real.realizable:
        err = check_tight_triples(n, real.metric, triples)
    else:
        err = check_witness(n, triples, real.witness)
    if err:
        return f"is_realizable: {err}"
    if not triples <= cl.triples:
        return "closure does not contain S"
    if (cl.triples == triples) != real.realizable:
        return "closure equals S but S is not realizable, or the converse"
    if search.status == "found":
        if real.realizable:
            return "integral witness found for a realizable S"
        multiset = [tuple(t) for t in search.multiset]
        if len(multiset) != len(triples):
            return "integral witness size differs from |S|"
        counts = {t: multiset.count(t) for t in set(multiset)}
        err = check_witness(n, triples, counts)
        return f"integral witness: {err}" if err else None
    if search.status == "not_found":
        return None if real.realizable else "not_found for a non-realizable S"
    return f"integral search ended {search.status!r} without a budget"


def check_pipeline(seed, res):
    if any(code != 0 for code in res["exit_codes"]):
        return f"cli exit codes {res['exit_codes']}"
    if not res["unique"]:
        return "induce reported tied geodesics"
    if not (res["check"].get("consistent") is True and res["check"].get("neighborly") is True):
        return f"check reported {res['check']}"
    if res["recovered"] != res["system"]:
        return "recovered system is not byte-identical to the checked one"
    return None


# ---------------------------------------------------------------------------
# Workloads.  Each builds its seeded inputs in __init__ (part of setup_s),
# runs one op per input, and checks one op's answer.  Strict and Witness
# are the two halves of the lp workload's op.
# ---------------------------------------------------------------------------


class Strict:
    """J_4 monotone systems under seeded relabelling: one strict LP each."""

    passes = 3

    def __init__(self, seed):
        g = lib["generators"]
        core = lib["core"]
        rng = random.Random(seed)
        base = [g.monotone_system(m) for m in g.enumerate_monotone(4)]
        self.inputs = []
        # Each pass visits every system once, so a run of at least 112 ops
        # sees the whole family whatever the seed.
        for _ in range(self.passes):
            order = base[:]
            rng.shuffle(order)
            for system in order:
                perm = list(range(1, system.n + 1))
                rng.shuffle(perm)
                paths = [tuple(perm[v - 1] for v in p) for p in system.paths.values()]
                self.inputs.append(core.PathSystem(system.n, paths))

    def op(self, system):
        return lib["metrize"].is_strictly_metric(system)

    check = staticmethod(check_strict)


class Witness:
    """Random pointed-triple sets of [5]: realizability, closure, search."""

    n = 5
    sizes = (2, 3, 4, 5)

    def __init__(self, seed, count):
        core = lib["core"]
        rng = random.Random(seed)
        universe = _pointed_triples(self.n)
        self.inputs = []
        # |S| is uniform on 2..5; each block of four ops holds each size once,
        # so short runs are not skewed towards one size.
        while len(self.inputs) < count:
            sizes = list(self.sizes)
            rng.shuffle(sizes)
            for k in sizes:
                self.inputs.append(core.TripleSet(self.n, frozenset(rng.sample(universe, k))))

    def op(self, S):
        m = lib["metrize"]
        return m.is_realizable(S), m.closure(S), m.integral_witness_search(S)

    check = staticmethod(check_verdicts)


class Lp:
    """Both LP routes per op: one strict check, then one set's verdicts."""

    trace_ops = 20

    def __init__(self, seed):
        self.strict = Strict(seed)
        self.witness = Witness(seed, count=len(self.strict.inputs))
        self.inputs = list(zip(self.strict.inputs, self.witness.inputs))

    def op(self, inp):
        system, S = inp
        return self.strict.op(system), self.witness.op(S)

    @staticmethod
    def check(inp, res):
        err = check_strict(inp[0], res[0])
        if err:
            return f"is_strictly_metric: {err}"
        return check_verdicts(inp[1], res[1])

    def close(self):
        pass


def _canonical(doc):
    """The CLI's documented byte-stable JSON rendering."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


class Certify:
    """Criterion 10's CLI pipeline on G(32, 1/2) matching constructions."""

    trace_ops = 8
    n = 32

    def __init__(self, seed, count=1000):
        self.inputs = [seed * count + i for i in range(count)]
        self.workdir = BENCH / ".work" / str(os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = {k: str(self.workdir / f"{k}.json")
                      for k in ("weights", "graph", "system", "resume")}

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib["cli"].main(argv)
        return code, out.getvalue()

    def _write(self, key, text):
        with open(self.files[key], "w", encoding="utf-8") as fh:
            fh.write(text)

    def op(self, seed):
        f = self.files
        codes = []
        code, text = self._cli(["--seed", str(seed), "gen", "gnp-matching",
                                "--n", str(self.n), "--p", "1/2"])
        codes.append(code)
        gen = json.loads(text)
        self._write("weights", _canonical(gen["weights"]))
        self._write("graph", _canonical(gen["graph"]))
        code, text = self._cli(["induce", f["weights"]])
        codes.append(code)
        induced = json.loads(text)
        res = {"exit_codes": codes, "unique": induced["unique"], "check": {},
               "system": None, "recovered": None}
        if not induced["unique"]:
            return res
        res["system"] = _canonical(induced["system"])
        self._write("system", res["system"])
        code, text = self._cli(["check", f["system"], "--graph", f["graph"]])
        codes.append(code)
        res["check"] = json.loads(text)
        code, text = self._cli(["resume", "extract", f["system"]])
        codes.append(code)
        self._write("resume", text)
        code, res["recovered"] = self._cli(["resume", "recover", f["resume"]])
        codes.append(code)
        return res

    check = staticmethod(check_pipeline)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()


WORKLOADS = {"lp": Lp, "certify": Certify}


# ---------------------------------------------------------------------------
# Running and checking
# ---------------------------------------------------------------------------


def run_op(workload, inp):
    """One timed op: (input, result, error, seconds)."""
    t0 = perf_counter()
    try:
        res, err = workload.op(inp), None
    except Exception as e:  # a raising op is a failed op, not a crashed run
        res, err = None, f"{type(e).__name__}: {e}"
    return [inp, res, err, perf_counter() - t0]


def check_records(workload, records):
    """Fill in each record's error from the independent check; return errors."""
    for rec in records:
        if rec[2] is None:
            try:
                rec[2] = workload.check(rec[0], rec[1])
            except Exception as e:  # a malformed answer fails its check
                rec[2] = f"check raised {type(e).__name__}: {e}"
    return [rec[2] for rec in records if rec[2] is not None]


def timed_loop(workload, seconds, min_ops=MIN_OPS):
    """Closed loop over the inputs until `seconds` and `min_ops` are both met."""
    records = []
    start = perf_counter()
    deadline = start + seconds
    inputs = workload.inputs
    while True:
        records.append(run_op(workload, inputs[len(records) % len(inputs)]))
        if len(records) >= min_ops and perf_counter() >= deadline:
            return records, perf_counter() - start


def tail(times):
    """(value, percentile): the highest percentile with ten ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        raise ValueError("a tail needs at least 11 ops")
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(name, seed, probes=SETUP_PROBES):
    """Median time from a fresh interpreter's start to its first op."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            try:
                _, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()}")
        times.append(t1 - t0)
    return statistics.median(times)


def environment(seed):
    """What a result depends on besides the code: recorded with every result."""
    rational = lib["rational"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "pathsystems").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "rational_backend": f"{rational.Q.__module__}.{rational.Q.__qualname__}",
    }


def _commit():
    """HEAD of the checkout's own .git, if it has one; never runs git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(name, seed, seconds, probes=SETUP_PROBES, min_ops=MIN_OPS):
    """Untraced timed run: (metrics, details, attempted, failed)."""
    workload = WORKLOADS[name](seed)
    try:
        setup_s = measure_setup(name, seed, probes)
        # One untimed op first, so one-time costs stay out of the timing.
        warmup = run_op(workload, workload.inputs[-1])
        records, elapsed = timed_loop(workload, seconds, min_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors = check_records(workload, [warmup] + records)
    finally:
        workload.close()
    times = [rec[3] for rec in records]
    tail_s, tail_pct = tail(times)
    verified = sum(rec[2] is None for rec in records)
    attempted = len(records) + 1
    metrics = {
        "ops_per_s": (verified / elapsed, "1/s"),
        "op_p50_ms": (1000 * statistics.median(times), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "op_tail_ms": {"percentile": tail_pct, "ops": len(records)},
        "failed_frac": {"value": len(errors) / attempted, "base": attempted},
        "timed_s": elapsed,
        "errors": errors[:5],
    }
    return metrics, details, attempted, len(errors)


def traced(name, seed, ops=None):
    """Each seeded op untraced and traced: (metrics, details, attempted, failed).

    The two runs of one op are adjacent, and which goes first alternates,
    so machine drift and warm-up fall on both sides of the overhead ratio.
    """
    from tracing import Tracer

    workload = WORKLOADS[name](seed)
    ops = workload.trace_ops if ops is None else ops
    tracer = Tracer(lib)
    plain, spanned = [], []
    try:
        for i, inp in enumerate(workload.inputs[:ops]):
            tracer.op = i
            for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_run:
                    with tracer.installed():
                        spanned.append(run_op(workload, inp))
                else:
                    plain.append(run_op(workload, inp))
        records = plain + spanned
        errors = check_records(workload, records)
    finally:
        workload.close()
    metrics, details = tracer.metrics()
    untraced_ops_per_s = ops / sum(rec[3] for rec in plain)
    traced_ops_per_s = ops / sum(rec[3] for rec in spanned)
    metrics["trace.ops_per_s"] = (traced_ops_per_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_ops_per_s, "1/s")
    metrics["trace.slowdown"] = (untraced_ops_per_s / traced_ops_per_s, "x")
    details.update(ops=ops, errors=errors[:5])
    return metrics, details, len(records), len(errors)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_library()
    if args.setup_probe:
        workload = WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        workload.close()
        return 0
    if args.trace:
        metrics, details, attempted, failed = traced(args.workload, args.seed)
    else:
        metrics, details, attempted, failed = end_to_end(args.workload, args.seed, args.seconds)
    env = environment(args.seed)
    for key, value in env.items():
        print(f"{key:>28}  {value}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key:>28}  {value:.6g} {unit}", file=sys.stderr)
    print(f"{'failed':>28}  {failed} of {attempted}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "env": env, "details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

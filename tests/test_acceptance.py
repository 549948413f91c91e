"""Acceptance suite: one test (and one pass/fail line) per criterion.

Tolerances are exact rational equality everywhere except criterion 3,
which allows 10% relative error on a logarithm, and the wall-clock
budgets stated in each criterion.
"""

import itertools
import json
import math
import random
from collections import defaultdict

import pytest

from pathsystems import jsonio
from pathsystems.core import (
    PathSystem,
    TripleSet,
    all_pointed_triples,
    all_resumes,
    colinear_triples,
    is_consistent,
    recover_from_resume,
)
from pathsystems.counting import (
    boxed_count,
    count_d2,
    enumerate_consistent,
    sym_count,
)
from pathsystems.generators import (
    admissible_pairs,
    enumerate_diam2,
    enumerate_monotone,
    gen_bipartite,
    gen_gnp,
    gen_join,
    matching_weights,
    monotone_system,
    perfect_matching,
)
from pathsystems.metrize import (
    WeightFunction,
    closure,
    induce_system,
    integral_witness_search,
    is_metric,
    is_realizable,
    is_strictly_metric,
    realize_weights,
    triple_signature,
    triples_of_metric,
    verify_witness,
)
from pathsystems.rational import Q
from pathsystems.vc import (
    NoCompatibleExtension,
    build_maximum_class,
    family_of_system,
    is_maximum_class,
    sample_lm,
    sauer_bound,
)

from oracles import (
    asymptotic_check,
    boxed_brute,
    graph_diameter,
    is_boxed_plane_partition,
    is_intersection_closed,
    pair_lp_feasible,
    signature_separation_experiment,
    sym_brute,
)


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def golden_fixture():
    import importlib.resources

    root = importlib.resources.files("pathsystems") / "fixtures"
    ts = jsonio.tripleset_from_json(json.loads((root / "paper_example.json").read_text()))
    alpha = jsonio.witness_from_json(json.loads((root / "paper_witness.json").read_text()))
    return ts, alpha


def test_criterion_01_golden_fixture():
    ts, alpha = golden_fixture()
    # (a) The printed fractional combination matches the signature exactly.
    assert verify_witness(ts, alpha)
    # (b) Not realizable, with a verified witness from the Farkas certificate.
    res = is_realizable(ts)
    assert not res.realizable
    assert verify_witness(ts, res.witness)
    # (c) No integral witness, proven exhaustively within the budget.
    out = integral_witness_search(ts, time_budget=1800)
    assert out.status == "not_found"
    report(1, f"fractional identity exact, no integral witness ({out.nodes} nodes)")


def test_criterion_02_plane_partitions():
    for r in range(5):
        for s in range(5):
            for t in range(5):
                assert boxed_count(r, s, t) == boxed_brute(r, s, t)
    for r in range(5):
        for t in range(5):
            assert sym_count(r, t) == sym_brute(r, t)
    matrix = [[5, 3, 3, 1], [4, 2, 1, 0], [2, 0, 0, 0]]
    assert is_boxed_plane_partition(matrix, 3, 4, 5)
    assert sum(map(sum, matrix)) == 21
    report(2, "formula equals brute force on 0..4 cube; example matrix sums to 21")


def test_criterion_03_asymptotics():
    limit = 4.5 * math.log(3) - 6 * math.log(2)
    value = float(asymptotic_check(128))
    rel = abs(value - limit) / 0.7848
    assert rel < 0.10
    report(3, f"asymptotic check at n=128 within {rel:.2e} of the limit")


def test_criterion_04_diam2_count():
    found = 0
    seed = 0
    while found < 10:
        g = gen_gnp(7, Q(1, 2), seed)
        seed += 1
        if graph_diameter(g) not in (1, 2):
            continue
        found += 1
        assert count_d2(g) == sum(1 for _ in enumerate_diam2(g))
    report(4, "product formula equals enumeration on 10 seeded diameter-2 graphs")


def test_criterion_05_resume_roundtrip():
    total = 0
    for sys in enumerate_consistent(4):
        for f in all_resumes(sys):
            assert recover_from_resume(f) == sys
            total += 1
    report(5, f"all {total} resumes over all consistent systems on [4] round-trip")


def test_criterion_06_metrizability_crosschecks():
    for sys in enumerate_consistent(4):
        strict = is_strictly_metric(sys)
        # (i) strictly metric iff the strict LP with bound rows is feasible.
        assert strict.strict == pair_lp_feasible(sys, slack=1)
        if strict.strict:
            # (ii) the realizing metric recovers exactly the colinear triples.
            assert triples_of_metric(strict.metric).triples == colinear_triples(sys).triples
            # (iii) realized weights induce the system back, uniquely.
            out = induce_system(realize_weights(sys, strict.metric))
            assert out.unique and out.system == sys
    # (iv) 200 random-weight unique inductions are always strictly metric.
    checked = 0
    seed = 0
    while checked < 200:
        rng = random.Random(seed)
        n = rng.choice((3, 4, 5))
        g = gen_gnp(n, Q(3, 4), 10_000 + seed)
        seed += 1
        if graph_diameter(g) is None:
            continue
        w = WeightFunction(
            g, {e: Q(rng.randrange(1, 10**6), 10**3) for e in sorted(g.edges)}
        )
        out = induce_system(w)
        if not out.unique:
            continue
        assert is_strictly_metric(out.system).strict
        checked += 1
    # (v) The "no" side, which no consistent system on [4] or [5] reaches:
    # the diameter-2 system of J_4 with these midpoints (the 81st of
    # enumerate_diam2) is consistent and metric, but not strictly metric.
    g = gen_join(4)
    paths = {e: e for e in g.edges}
    midpoints = {(1, 2): 5, (1, 3): 5, (1, 4): 6, (2, 3): 6, (2, 4): 5, (3, 4): 5}
    for (u, v), z in midpoints.items():
        paths[(u, v)] = (u, z, v)
    sys = PathSystem(g.n, paths)
    assert sys == next(itertools.islice(enumerate_diam2(g), 80, None))
    assert is_consistent(sys)
    strict = is_strictly_metric(sys)
    assert not strict.strict and not pair_lp_feasible(sys, slack=1)
    assert verify_witness(colinear_triples(sys), strict.witness)
    assert is_metric(sys) is not None
    report(6, "LP, realizability, induction, 200 random inductions, non-strict J_4 system agree")


def test_criterion_07_monotone_strictly_metric():
    counts = {}
    for n in (2, 3, 4):
        counts[n] = 0
        for m in enumerate_monotone(n):
            assert is_strictly_metric(monotone_system(m)).strict
            counts[n] += 1
    assert counts == {2: 2, 3: 10, 4: 112}
    report(7, f"all monotone systems strictly metric: {counts}")


def test_criterion_08_signature_separation():
    out = signature_separation_experiment()
    assert out["collisions"] == 0
    assert out["strictly_metric_systems"] > 0
    report(8, f"zero collisions across {out['strictly_metric_systems']} systems")


def test_criterion_09_closure_signature():
    n = 4
    universe = all_pointed_triples(n)
    groups = defaultdict(list)
    subsets = [()] + [(t,) for t in universe] + list(itertools.combinations(universe, 2))
    for s in subsets:
        ts = TripleSet(n, frozenset(s))
        groups[triple_signature(ts)].append(closure(ts).triples)
    for closures in groups.values():
        assert all(c == closures[0] for c in closures)
    report(9, f"{len(subsets)} triple sets in {len(groups)} signature groups agree")


def test_criterion_10_constructions_certified():
    # 500 sampled bipartite choice vectors at half_n = 6.
    h = 6
    index_pairs = [(i, j) for i in range(1, h + 1) for j in range(i + 1, h + 1)]
    systems = {}
    for seed in range(500):
        rng = random.Random(seed)
        choices = {p: rng.choice(p) for p in index_pairs}
        _, w, _ = gen_bipartite(h, choices, seed)
        out = induce_system(w)
        assert out.unique
        for (i, j), k in choices.items():
            assert out.system.path(i, j) == (i, h + k, j)
        systems[tuple(sorted(choices.items()))] = out.system
    values = list(systems.values())
    assert len({s for s in values}) == len(systems)  # distinct choices, distinct systems
    # 50 matching-based systems on G(40, 1/2).
    for seed in range(50):
        g = gen_gnp(40, Q(1, 2), 20_000 + seed)
        matching = perfect_matching(g, seed)
        adm = admissible_pairs(g, matching)
        partner = {e[0]: e[1] for e in matching}
        rng = random.Random(seed)
        choices = {p: rng.choice((partner[p[0]], partner[p[1]])) for p in adm}
        w, _ = matching_weights(g, matching, choices, seed)
        out = induce_system(w)
        assert out.unique
        for (a, b), mid in choices.items():
            assert out.system.path(a, b) == (min(a, b), mid, max(a, b))
    # Admissible-pair mean over 20 seeds within 25% of 23.75.
    total = 0
    for seed in range(20):
        g = gen_gnp(40, Q(1, 2), seed)
        total += len(admissible_pairs(g, perfect_matching(g, seed)))
    mean = total / 20
    assert abs(mean - 23.75) / 23.75 < 0.25
    report(10, f"550 constructions certified; admissible-pair mean {mean}")


def test_criterion_11_vc():
    for n in (2, 3, 4):
        for sys in enumerate_consistent(n):
            fam = family_of_system(sys)
            assert is_intersection_closed(fam)
            assert len(fam) == sauer_bound(n, 2)
            assert is_maximum_class(fam, 2)
    built = []
    for n, d in [(8, 2), (10, 2), (12, 2), (8, 3)]:
        for seed in range(10):
            y = sample_lm(n, d - 1, Q(7, 10), seed)
            try:
                fam = build_maximum_class(y)
            except NoCompatibleExtension:
                continue
            assert is_maximum_class(fam, d)
            built.append((n, d, seed))
            break
        else:
            pytest.fail(f"no viable seed for (n={n}, d={d})")
    report(11, f"Obs 6.1 exhaustive on n<=4; maximum classes built at {built}")

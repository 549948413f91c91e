import importlib.resources
import itertools
import json
import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pathsystems import jsonio, metrize, ratlp
from pathsystems.core import (
    Graph,
    PathSystem,
    Resume,
    TripleSet,
    all_pairs,
    all_pointed_triples,
    colinear_triples,
    extract_resume,
    pointed_triple,
)
from pathsystems.counting import enumerate_consistent
from pathsystems.generators import enumerate_diam2, gen_join
from pathsystems.metrize import (
    Pseudometric,
    WeightFunction,
    WitnessAlpha,
    closure,
    delta,
    induce_system,
    integral_witness_search,
    is_metric,
    is_realizable,
    is_strictly_metric,
    realize_weights,
    resume_signature,
    triple_signature,
    triples_of_metric,
    verify_witness,
)
from pathsystems.ratlp import solve_feasibility
from pathsystems.rational import Q

from oracles import (
    FractionTableau,
    closure_per_triple,
    induce_by_enumeration,
    integral_witness_search_per_candidate,
    pair_lp_feasible,
)
from test_core import line_system


def golden_fixture():
    import importlib.resources

    root = importlib.resources.files("pathsystems") / "fixtures"
    ts = jsonio.tripleset_from_json(json.loads((root / "paper_example.json").read_text()))
    alpha = jsonio.witness_from_json(json.loads((root / "paper_witness.json").read_text()))
    return ts, alpha


@given(st.integers(min_value=4, max_value=6), st.data())
def test_delta_coordinate_sum_is_one(n, data):
    t = data.draw(st.sampled_from(all_pointed_triples(n)))
    assert sum(delta(t, n)) == 1


def test_delta_table_of_32_vertices_stays_sparse():
    # 14,880 triples: their dense Delta vectors of 496 entries took 60 MB.
    build = metrize._delta_table.__wrapped__
    tracemalloc.start()
    try:
        table = build(32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 14880
    assert peak < 8 * 2**20


def test_signatures_agree():
    sys = line_system(4)
    ts = colinear_triples(sys)
    f = Resume(4, tuple((p, sys.paths[p][1]) for p in all_pairs(4) if len(sys.paths[p]) > 2))
    # The full resume of the line system covers a subset of its colinear triples.
    sig_full = triple_signature(ts)
    assert len(sig_full) == len(all_pairs(4))
    assert resume_signature(extract_resume(sys)) == resume_signature(f)


def test_pseudometric_validation():
    with pytest.raises(ValueError):
        Pseudometric(3, {(1, 2): 1, (1, 3): 1, (2, 3): 3})
    rho = Pseudometric(3, {(1, 2): 1, (1, 3): 1, (2, 3): 2})
    assert rho.is_metric()
    assert triples_of_metric(rho).triples == {(2, 3, 1)}


def four_point_values():
    # Every distance lies in [1, 2), so every triangle inequality holds.
    return {p: 1 + Q(i, 7) for i, p in enumerate(all_pairs(4))}


def test_pseudometric_d_is_the_distance_dict():
    values = four_point_values()
    rho = Pseudometric(4, values)
    assert rho.d == values and list(rho.d) == all_pairs(4)
    assert not hasattr(rho, "__dict__")


def test_pseudometric_stores_integers_over_one_denominator():
    values = four_point_values()
    rho = Pseudometric(4, values)
    assert rho.scale == 7 and all(type(v) is int for v in rho.scaled)
    assert rho.distances == tuple(values[p] for p in all_pairs(4))
    # The lcm of the denominators is the scale, so it is unique.
    half = Pseudometric(3, {(1, 2): Q(2, 4), (1, 3): Q(3, 6), (2, 3): 1})
    assert (half.scaled, half.scale) == ((1, 1, 2), 2)


def test_pseudometric_value_is_symmetric():
    rho = Pseudometric(4, four_point_values())
    for a, b in all_pairs(4):
        assert rho.value(a, b) == rho.value(b, a) == rho.d[(a, b)]
    assert rho.value(2, 2) == 0


def test_mutating_d_leaves_the_pseudometric_unchanged():
    values = four_point_values()
    rho = Pseudometric(4, values)
    d = rho.d
    d[(1, 2)] = Q(99)
    del d[(3, 4)]
    assert rho.d == values and rho.value(1, 2) == values[(1, 2)]


def test_pseudometric_equality_compares_values():
    values = four_point_values()
    rho = Pseudometric(4, values)
    assert rho == Pseudometric(4, {p: str(v) for p, v in values.items()})
    assert rho != Pseudometric(4, {**values, (1, 2): values[(1, 2)] + Q(1, 10**12)})
    assert rho != Pseudometric(3, {p: v for p, v in values.items() if p[1] <= 3})


def test_integer_rechecks_see_a_trillionth():
    eps = Q(1, 10**12)
    with pytest.raises(ValueError, match="triangle inequality fails"):
        Pseudometric(3, {(1, 2): 1, (1, 3): 1, (2, 3): 2 + eps})
    rho = Pseudometric(3, {(1, 2): 1, (1, 3): 1, (2, 3): 2 - eps})
    assert triples_of_metric(rho).triples == frozenset()
    ts, alpha = golden_fixture()
    t = next(iter(alpha))
    assert not verify_witness(ts, WitnessAlpha({**alpha, t: alpha[t] + eps}))


def test_k3_strictly_metric():
    sys = PathSystem(3, [(1, 2), (1, 3), (2, 3)])
    res = is_strictly_metric(sys)
    assert res.strict
    assert triples_of_metric(res.metric).triples == set()


def test_line_system_metric_and_strict():
    sys = line_system(4)
    rho = is_metric(sys)
    assert rho is not None and rho.is_metric()
    res = is_strictly_metric(sys)
    assert res.strict
    assert triples_of_metric(res.metric).triples == colinear_triples(sys).triples


def test_realize_and_induce_roundtrip():
    sys = line_system(5)
    res = is_strictly_metric(sys)
    w = realize_weights(sys, res.metric)
    out = induce_system(w)
    assert out.unique and out.system == sys


def test_induce_reports_ties():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    w = WeightFunction(g, {e: 1 for e in g.edges})
    out = induce_system(w)
    assert not out.unique
    assert out.tie_count == 2 and out.tied_pair in ((1, 3), (2, 4))


@st.composite
def connected_weights(draw):
    """A spanning tree of [n], n <= 6, plus any further edges, weighted.
    Half the draws weigh every edge 1 or 2, which forces exact ties between
    distinct paths; the others draw each weight as num/den with both in 1..20."""
    n = draw(st.integers(min_value=1, max_value=6))
    edges = {(draw(st.integers(min_value=1, max_value=v - 1)), v) for v in range(2, n + 1)}
    edges |= draw(st.sets(st.sampled_from(all_pairs(n)))) if n > 1 else set()
    g = Graph(n, edges)
    if draw(st.booleans()):
        weight = st.sampled_from([Q(1), Q(2)])
    else:
        weight = st.builds(Q, st.integers(1, 20), st.integers(1, 20))
    return WeightFunction(g, {e: draw(weight) for e in sorted(g.edges)})


@settings(max_examples=200, deadline=None)
@given(connected_weights())
def test_induce_matches_path_enumeration(w):
    # Equal results: `unique`, every path, and the first tied pair in
    # (u, v) order with its number of geodesics.
    assert induce_system(w) == induce_by_enumeration(w)


def test_weight_function_validation():
    g = Graph(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        WeightFunction(g, {(1, 2): 1, (2, 3): 0})
    with pytest.raises(ValueError):
        WeightFunction(g, {(1, 2): 1, (1, 3): 1})
    with pytest.raises(ValueError):
        WeightFunction(g, {(1, 2): 1})


@pytest.mark.parametrize("second", [(3, 2), (2, 3)], ids=["reversed", "same_orientation"])
def test_weight_function_refuses_conflicting_duplicates(second):
    g = Graph(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match=r"two different weights on edge \(2, 3\)"):
        WeightFunction(g, [((1, 2), 1), ((2, 3), 5), (second, 1)])
    # The same weight twice is one weight.
    w = WeightFunction(g, [((1, 2), 1), ((2, 3), 5), (second, Q(10, 2))])
    assert w.w == {(1, 2): 1, (2, 3): 5}


def test_induce_refuses_disconnected_graph():
    w = WeightFunction(Graph(3, [(1, 2)]), {(1, 2): 1})
    with pytest.raises(ValueError, match="^weight function's graph is disconnected$"):
        induce_system(w)


def test_is_realizable_yes():
    ts = TripleSet(3, frozenset({(2, 3, 1)}))
    res = is_realizable(ts)
    assert res.realizable
    assert triples_of_metric(res.metric).triples == ts.triples


def test_golden_fixture_not_realizable():
    ts, alpha = golden_fixture()
    assert verify_witness(ts, alpha)
    res = is_realizable(ts)
    assert not res.realizable
    assert verify_witness(ts, res.witness)


def test_verify_witness_rejects_bad_support():
    ts, _ = golden_fixture()
    # alpha = indicator of S itself satisfies the identity but has support in S.
    alpha = WitnessAlpha([(t, 1) for t in ts])
    assert not verify_witness(ts, alpha)


def test_witness_alpha_rejects_negative():
    with pytest.raises(ValueError):
        WitnessAlpha([((1, 2, 3), Q(-1))])


@pytest.mark.parametrize("second", [(2, 1, 3), (1, 2, 3)], ids=["reversed", "same_orientation"])
@pytest.mark.parametrize("first, then", [(1, 2), (1, 0), (0, 1)], ids=["1-2", "1-0", "0-1"])
def test_witness_alpha_refuses_conflicting_duplicates(second, first, then):
    with pytest.raises(ValueError, match=r"two different coefficients for triple \(1, 2, 3\)"):
        WitnessAlpha([((1, 2, 3), first), ((1, 4, 2), 1), (second, then)])
    # The same coefficient twice is one coefficient, and zeros are not kept.
    alpha = WitnessAlpha([((1, 2, 3), first), ((1, 4, 2), 0), (second, Q(2 * first, 2))])
    assert alpha == ({(1, 2, 3): first} if first else {})


def test_witness_alpha_shares_equal_coefficients():
    alpha = WitnessAlpha([((1, 2, 3), Q(1, 2)), ((1, 4, 2), Q(2, 4)), ((2, 4, 1), 1)])
    assert alpha[(1, 2, 3)] is alpha[(1, 4, 2)]


def _witness_doc(*entries):
    return {
        "alpha": [
            {"triple": {"pair": [a, b], "point": c}, "num": str(v), "den": "1"}
            for (a, b, c), v in entries
        ]
    }


@pytest.mark.parametrize("second", [(2, 1, 3), (1, 2, 3)], ids=["reversed", "same_orientation"])
@pytest.mark.parametrize("first, then", [(1, 2), (1, 0)], ids=["1-2", "1-0"])
def test_witness_loader_refuses_conflicting_duplicates(second, first, then):
    doc = _witness_doc(((1, 2, 3), first), (second, then))
    with pytest.raises(ValueError, match=r"two different coefficients for triple \(1, 2, 3\)"):
        jsonio.witness_from_json(doc)
    assert jsonio.witness_from_json(_witness_doc(((1, 2, 3), 1), (second, 1))) == {(1, 2, 3): 1}


@pytest.mark.parametrize("pair", [[1], [1, 2, 3]], ids=["one_vertex", "three_vertices"])
def test_witness_loader_refuses_a_pair_without_two_vertices(pair):
    doc = {"alpha": [{"triple": {"pair": pair, "point": 3}, "num": "1", "den": "1"}]}
    with pytest.raises(ValueError, match=r"is not a list of two vertices"):
        jsonio.witness_from_json(doc)


def test_closure_contains_and_idempotent():
    ts = TripleSet(4, frozenset({(1, 3, 2), (1, 4, 3)}))
    cl = closure(ts)
    assert ts.triples <= cl.triples
    assert closure(cl).triples == cl.triples
    assert is_realizable(cl).realizable


def test_closure_of_realizable_is_itself():
    sys = line_system(4)
    ts = colinear_triples(sys)
    assert closure(ts).triples == ts.triples


@st.composite
def triple_sets(draw, ns=(5, 6), max_size=8):
    n = draw(st.sampled_from(ns))
    triples = draw(st.sets(st.sampled_from(all_pointed_triples(n)), max_size=max_size))
    return TripleSet(n, frozenset(triples))


@settings(max_examples=30, deadline=None)
@given(triple_sets())
def test_closure_matches_per_triple_oracle(ts):
    assert closure(ts) == closure_per_triple(ts)


@settings(max_examples=30, deadline=None)
@given(triple_sets())
def test_closure_shares_its_triples(ts):
    # Each triple of the closure is an object of S or a key of the Delta
    # table (where witness supports come from): closure copies no triple.
    shared = {id(t) for t in ts.triples} | {id(t) for t in metrize._delta_table(ts.n)}
    assert all(id(t) in shared for t in closure(ts).triples)


@settings(max_examples=40, deadline=None)
@given(triple_sets(ns=(4, 5, 6)))
def test_betweenness_step_adds_only_forced_triples(ts):
    # Every triple the LP-free step adds is in the closure the per-triple
    # oracle decides, and a second step adds nothing.
    step, first = metrize._betweenness_closure(ts)
    assert ts.triples <= step.triples <= closure_per_triple(ts).triples
    assert (step is ts) == (first is None)
    assert metrize._betweenness_closure(step) == (step, None)


def _lp_verdict_by_fraction_tableau(ts):
    # The realizability LP of S, solved on the dense rational tableau.
    with mock.patch.object(ratlp, "_Tableau", FractionTableau):
        return solve_feasibility(metrize.build_lp(ts)).feasible


@settings(max_examples=60, deadline=None)
@given(triple_sets(ns=(4, 5, 6)))
@example(TripleSet(4, frozenset({(1, 2, 3), (1, 3, 4)})))
def test_realizability_lp_runs_only_on_betweenness_closed_sets(ts):
    # A set that betweenness changes is answered by the two-term witness
    # of its first derivation, without an LP: integer coefficients summing
    # to |S|.  A closed set poses exactly one LP.  Either way the verdict
    # is the LP's, solved on the rational oracle tableau.
    closed, first = metrize._betweenness_closure(ts)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_lps(mp)
        res = is_realizable(ts)
    assert len(calls) == (closed is ts)
    assert res.realizable == _lp_verdict_by_fraction_tableau(ts)
    if first is not None:
        (p, q), derived = first
        assert not res.realizable and verify_witness(ts, res.witness)
        assert {p, q} <= ts.triples and not set(derived) <= ts.triples
        assert all(v.denominator == 1 for v in res.witness.values())
        assert sum(res.witness.values()) == len(ts)


# Small sets, which are realizable more often.
@settings(max_examples=60, deadline=None)
@given(triple_sets(ns=(4, 5, 6), max_size=4))
@example(TripleSet(3, frozenset({(1, 2, 3)})))
def test_integral_search_grows_no_tree_on_a_realizable_set(ts):
    # A realizable set is its own closure, found by one LP; no witness of
    # any kind exists, so the search explores no node.
    assume(is_realizable(ts).realizable)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_lps(mp)
        out = integral_witness_search(ts)
    assert out == metrize.SearchOutcome("not_found", nodes=0)
    assert len(calls) == 1


def test_closure_of_golden_set_matches_oracle():
    ts, _ = golden_fixture()
    cl = closure(ts)
    assert len(cl) == 14
    assert cl == closure_per_triple(ts)


def _count_lps(monkeypatch):
    calls = []

    def counted(system):
        calls.append(system)
        return solve_feasibility(system)

    monkeypatch.setattr(metrize, "solve_feasibility", counted)
    return calls


def test_closure_of_golden_set_solves_two_lps(monkeypatch):
    # One No round, whose witness support closes the set, then one Yes.
    calls = _count_lps(monkeypatch)
    ts, _ = golden_fixture()
    closure(ts)
    assert len(calls) == 2


@st.composite
def small_triple_sets(draw):
    n = draw(st.sampled_from((4, 5)))
    triples = draw(st.sets(st.sampled_from(all_pointed_triples(n)), min_size=2, max_size=6))
    return TripleSet(n, frozenset(triples))


# Sets of [6] whose closure holds triples that no fractional witness uses
# with coefficient >= 1, as the golden set's does, so the search tree has
# branches that die at their first LP or stored ray; no set among 600
# random sets of [4] and [5] had such a triple, so the drawn sets alone
# would not reach this case.
DEAD_BRANCH_SETS = [
    [(1, 2, 3), (1, 4, 6), (2, 5, 1), (2, 5, 4), (3, 5, 4), (5, 6, 3)],
    [(1, 6, 4), (2, 5, 1), (2, 5, 6), (3, 4, 2), (3, 6, 2), (4, 5, 3)],
    [(1, 2, 3), (1, 2, 6), (2, 4, 1), (2, 4, 5), (3, 6, 4), (5, 6, 2)],
]


@settings(max_examples=40, deadline=None)
@given(small_triple_sets())
@example(golden_fixture()[0])
@example(TripleSet(6, frozenset(DEAD_BRANCH_SETS[0])))
@example(TripleSet(6, frozenset(DEAD_BRANCH_SETS[1])))
@example(TripleSet(6, frozenset(DEAD_BRANCH_SETS[2])))
def test_integral_search_matches_per_candidate_oracle(ts):
    # The stored cuts only skip LPs whose answer they prove: same status,
    # same multiset, same tree.  A realizable set needs no tree: the oracle
    # searches its tree to the same not_found.
    out, expected = integral_witness_search(ts), integral_witness_search_per_candidate(ts)
    if closure_per_triple(ts) == ts:
        assert out == metrize.SearchOutcome("not_found", nodes=0)
        assert expected.status == "not_found"
    else:
        assert out == expected


def test_integral_search_of_golden_set_reuses_cuts(monkeypatch):
    # 68 nodes, 17 LPs: 2 for the closure, the rest at nodes that no
    # stored ray or solution answers.
    calls = _count_lps(monkeypatch)
    ts, _ = golden_fixture()
    out = integral_witness_search(ts)
    assert (out.status, out.nodes) == ("not_found", 68)
    assert len(calls) == 17


@settings(max_examples=30, deadline=None)
@given(small_triple_sets())
def test_integral_search_completions_stay_in_the_closure(ts):
    # A completion LP, the only one without equalities, is the Farkas
    # alternative over the pair variables: one row -Delta_t >= 0 per
    # triple of its universe, which lies in cl(S), then residual >= 1.
    size = len(closure(ts))
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_lps(mp)
        integral_witness_search(ts)
    completions = [c for c in calls if not c.equalities]
    # A realizable set, its own closure, poses no completion LP.
    assert bool(completions) == (size > len(ts))
    for c in completions:
        k = len(c.inequalities) - 1
        assert c.num_vars == len(all_pairs(ts.n)) and k <= size
        assert [b for _, b in c.inequalities] == [0] * k + [1]


def test_integral_search_realizable_set_has_none():
    # A realizable set admits no witness of any kind.
    ts = TripleSet(3, frozenset({(1, 2, 3)}))
    out = integral_witness_search(ts)
    assert out.status == "not_found"


def test_integral_search_found():
    # d(1,2)=d(1,3)+d(3,2) and d(1,3)=d(1,2)+d(2,3) force d(2,3)=0, which
    # drags {2,4;3} and {3,4;2} tight as well: not realizable, and the
    # integral multiset {(2,4;3),(3,4;2)} witnesses it.
    ts = TripleSet(4, frozenset({(1, 2, 3), (1, 3, 2)}))
    assert not is_realizable(ts).realizable
    out = integral_witness_search(ts)
    assert out.status == "found"
    counts = {}
    for t in out.multiset:
        counts[t] = counts.get(t, 0) + 1
    assert verify_witness(ts, WitnessAlpha(counts.items()))


def test_integral_search_budget(monkeypatch):
    calls = _count_lps(monkeypatch)
    ts, _ = golden_fixture()
    out = integral_witness_search(ts, time_budget=0.0)
    assert out.status == "inconclusive"
    # The budget is checked before the closure's first realizability
    # round: no LP runs, and no node is explored.
    assert calls == [] and out.nodes == 0


@pytest.mark.parametrize("budget", [float("nan"), -1.0, -math.inf], ids=["nan", "negative", "minus_inf"])
def test_integral_search_refuses_a_nan_or_negative_budget(monkeypatch, budget):
    # A NaN deadline compares false against every clock reading, so it
    # would never stop the search; NaN and negative budgets are refused
    # before any LP runs.
    calls = _count_lps(monkeypatch)
    ts, _ = golden_fixture()
    with pytest.raises(ValueError, match="time_budget must be non-negative"):
        integral_witness_search(ts, time_budget=budget)
    assert calls == []


def _fixture_system(name):
    root = importlib.resources.files("pathsystems") / "fixtures"
    return jsonio.system_from_json(json.loads((root / name).read_text()))


def test_is_metric_matches_the_pair_lp_oracle():
    # The closure's verdict against the LP with slack 0 and bound rows, on
    # every consistent system on [3]-[5], the first 400 diameter-2 systems
    # of J_4 (some not strictly metric) and the non-metric system on [7].
    systems = itertools.chain(
        *(enumerate_consistent(n) for n in (3, 4, 5)),
        itertools.islice(enumerate_diam2(gen_join(4)), 400),
        [_fixture_system("nonmetric7.json")],
    )
    answers = {True: 0, False: 0}
    for sys in systems:
        rho = is_metric(sys)
        assert (rho is not None) == pair_lp_feasible(sys, slack=0)
        if rho is not None:
            # Positive and tight on the colinear set: every path is shortest.
            assert rho.is_metric()
            assert colinear_triples(sys).triples <= triples_of_metric(rho).triples
        answers[rho is not None] += 1
    assert answers == {True: 2725 + 400, False: 1}


def test_nonmetric7_closure_forces_a_zero_distance():
    sys = _fixture_system("nonmetric7.json")
    colinear = colinear_triples(sys)
    cl, rho = metrize._closure(colinear, math.inf)
    assert (len(colinear), len(cl)) == (13, 27)
    assert [p for p in all_pairs(7) if rho.value(*p) == 0] == [(3, 4)]
    # {3,x;4} and {4,x;3} for every other x: Delta sums to 2 e_{3,4}.
    for x in (1, 2, 5, 6, 7):
        assert {pointed_triple(3, x, 4), pointed_triple(4, x, 3)} <= cl.triples
    assert is_metric(sys) is None and not pair_lp_feasible(sys, slack=0)
    strict = is_strictly_metric(sys)
    assert not strict.strict and verify_witness(colinear, strict.witness)


@pytest.mark.parametrize("n", [1, 2])
def test_is_metric_without_a_third_vertex(n):
    rho = is_metric(PathSystem(n, all_pairs(n)))
    assert rho.scale == 1 and rho.scaled == (1,) * len(all_pairs(n))

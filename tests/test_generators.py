import hashlib
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pathsystems import generators
from pathsystems.cli import main
from pathsystems.core import Graph, all_pairs, is_consistent, is_neighborly
from pathsystems.counting import count_d2
from pathsystems.generators import (
    MatchingError,
    MonotoneMatrix,
    admissible_pairs,
    enumerate_diam2,
    enumerate_monotone,
    gen_bipartite,
    gen_gnp,
    gen_join,
    gen_join_gamma,
    matching_weights,
    monotone_system,
    perfect_matching,
)
from pathsystems.jsonio import graph_from_json, monotone_to_json
from pathsystems.metrize import induce_system, is_strictly_metric
from pathsystems.rational import Q

from oracles import graph_diameter, has_perfect_matching


def test_gen_gnp_edges_pinned():
    assert sorted(gen_gnp(6, Q(1, 2), 7).edges) == [
        (1, 3), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6), (3, 4), (3, 5), (4, 6), (5, 6)
    ]


def test_gen_gnp_deterministic_and_extremes():
    assert gen_gnp(6, Q(1, 2), 7).edges == gen_gnp(6, Q(1, 2), 7).edges
    assert gen_gnp(6, Q(1, 2), 7).edges != gen_gnp(6, Q(1, 2), 8).edges
    assert len(gen_gnp(5, 1, 0).edges) == 10
    assert len(gen_gnp(5, 0, 0).edges) == 0


def test_enumerate_diam2_c4():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    systems = list(enumerate_diam2(g))
    assert len(systems) == count_d2(g) == 4
    for s in systems:
        assert is_consistent(s)
        assert is_neighborly(s, g)


def test_enumerate_diam2_large_diameter_empty():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert list(enumerate_diam2(g)) == []


def test_perfect_matching():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    m = perfect_matching(g, seed=1)
    assert len(m) == 2
    used = set()
    for u, v in m:
        assert g.has_edge(u, v)
        assert not {u, v} & used
        used |= {u, v}
    with pytest.raises(MatchingError):
        perfect_matching(Graph(3, [(1, 2)]), seed=0)
    with pytest.raises(MatchingError):
        perfect_matching(Graph(4, [(1, 2), (1, 3), (1, 4)]), seed=0)


def assert_perfect_matching(g, matching):
    covered = [v for e in matching for v in e]
    assert sorted(covered) == list(range(1, g.n + 1))
    assert all(u < v and g.has_edge(u, v) for u, v in matching)
    assert matching == sorted(matching)


def test_perfect_matching_without_networkx(monkeypatch, capsys):
    # Seed 0 visits vertex 3 first and pairs it with 2, stranding 1 and 4:
    # the augmenting path 1-2-3-4 finds the matching of the path.  The
    # greedy pass strands vertices on 12 of seeds 0-19 at n = 16 and on 11
    # at n = 32; each is completed in the library, networkx unimportable.
    monkeypatch.setitem(sys.modules, "networkx", None)
    assert perfect_matching(Graph(4, [(1, 2), (2, 3), (3, 4)]), seed=0) == [(1, 2), (3, 4)]
    for n in (16, 32):
        for seed in range(20):
            assert main(["--seed", str(seed), "gen", "gnp-matching", "--n", str(n)]) == 0
            doc = json.loads(capsys.readouterr().out)
            matching = [tuple(e) for e in doc["matching"]]
            assert_perfect_matching(graph_from_json(doc["graph"]), matching)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    return Graph(n, draw(st.sets(st.sampled_from(all_pairs(n)))) if n > 1 else [])


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=2**32))
def test_perfect_matching_exactly_when_one_exists(g, seed):
    if not has_perfect_matching(g):
        with pytest.raises(MatchingError):
            perfect_matching(g, seed)
    else:
        assert_perfect_matching(g, perfect_matching(g, seed))


# sha256 of `gen gnp-matching --n 32` before the augmentation replaced the
# networkx fallback, for the first five seeds whose greedy pass matches
# every vertex: on those seeds the output must not move.
GREEDY_COMPLETE_N32 = {
    0: "47c152f4eba580562467fdcc18b6c5d71e1d494b8c8052185a786ad5aa2f5d29",
    2: "f4e19c9dc76643ee71f720e262de8226fe16b75ae03c1228bd0e736895505dec",
    6: "9e439024eeb3f849d94b43a36ad3805197793096d5cf5bfa2c8f87f193d27f16",
    7: "3d7965015408a9694d408dbdf2ac9038accb49cb15315c272b1da1365ffd1494",
    10: "bf8f773667334191c7630888b9cb34b11e68eac5574e7de0532b8aa1e9498c1d",
}


@pytest.mark.parametrize("seed", sorted(GREEDY_COMPLETE_N32))
def test_gnp_matching_pinned_where_greedy_matches_everyone(seed, capsys):
    assert main(["--seed", str(seed), "gen", "gnp-matching", "--n", "32"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GREEDY_COMPLETE_N32[seed]


def test_admissible_pairs_conditions():
    # x1=1,y1=2 and x2=3,y2=4; 1-3 missing, 1-4 and 3-2 present.
    g = Graph(4, [(1, 2), (3, 4), (1, 4), (2, 3)])
    assert admissible_pairs(g, [(1, 2), (3, 4)]) == [(1, 3)]
    g2 = Graph(4, [(1, 2), (3, 4), (1, 4), (2, 3), (1, 3)])
    assert admissible_pairs(g2, [(1, 2), (3, 4)]) == []


def test_matching_weights_realizes_choices():
    g = gen_gnp(20, Q(1, 2), 5)
    m = perfect_matching(g, 5)
    adm = admissible_pairs(g, m)
    partner = {e[0]: e[1] for e in m}
    rng = random.Random(5)
    choices = {p: rng.choice((partner[p[0]], partner[p[1]])) for p in adm}
    w, system = matching_weights(g, m, choices, 5)
    res = induce_system(w)
    assert res.unique and res.system == system
    for (a, b), mid in choices.items():
        assert res.system.path(a, b) == (min(a, b), mid, max(a, b))


def test_matching_weights_induces_once(monkeypatch):
    # The chosen paths are checked on the system certified unique, so an
    # instance certified on its first noise draw is induced exactly once.
    g = gen_gnp(20, Q(1, 2), 5)
    m = perfect_matching(g, 5)
    partner = {e[0]: e[1] for e in m}
    choices = {p: partner[p[0]] for p in admissible_pairs(g, m)}
    calls = []

    def counted(w):
        calls.append(w)
        return induce_system(w)

    monkeypatch.setattr(generators, "induce_system", counted)
    w, _ = matching_weights(g, m, choices, 5)
    assert calls == [w]


def test_gen_bipartite_distinct_choices_distinct_systems():
    h = 4
    pairs = [(i, j) for i in range(1, h + 1) for j in range(i + 1, h + 1)]
    c1 = {p: p[0] for p in pairs}
    c2 = dict(c1)
    c2[(1, 2)] = 2
    _, w1, _ = gen_bipartite(h, c1, 0)
    _, w2, _ = gen_bipartite(h, c2, 0)
    s1 = induce_system(w1).system
    s2 = induce_system(w2).system
    assert s1 != s2
    assert s1.path(1, 2) == (1, h + 1, 2)
    assert s2.path(1, 2) == (1, h + 2, 2)


def test_join_graphs():
    g = gen_join(3)
    assert g.n == 6
    assert not g.has_edge(1, 2) and g.has_edge(4, 5) and g.has_edge(1, 4)
    assert graph_diameter(g) == 2
    b = gen_join_gamma(10, Q(1, 2))
    assert b.n == 10 and not b.has_edge(1, 2) and b.has_edge(6, 7)
    assert gen_join(1).edges == frozenset({(1, 2)})


def test_gen_join_is_half_join_gamma():
    for n in range(1, 9):
        assert gen_join(n).edges == gen_join_gamma(2 * n, Q(1, 2)).edges


def test_monotone_matrix_validation():
    MonotoneMatrix(3, ((1, 1, 2), (1, 1, 3), (2, 3, 1)))
    with pytest.raises(ValueError):
        MonotoneMatrix(3, ((1, 2, 1), (2, 1, 3), (1, 3, 1)))  # row 1 decreasing
    with pytest.raises(ValueError):
        MonotoneMatrix(3, ((1, 1, 2), (2, 1, 3), (2, 3, 1)))  # not symmetric


def test_monotone_matrix_diagonal_is_unused():
    given = MonotoneMatrix(3, ((3, 1, 2), (1, 0, 3), (2, 3, "x")))
    blank = MonotoneMatrix(3, ((None, 1, 2), (1, None, 3), (2, 3, None)))
    assert given == blank and hash(given) == hash(blank)
    assert monotone_to_json(given) == {
        "n": 3,
        "rows": [[None, 1, 2], [1, None, 3], [2, 3, None]],
    }
    assert all(m.rows[i][i] is None for m in enumerate_monotone(3) for i in range(3))


def test_enumerate_monotone_counts():
    assert sum(1 for _ in enumerate_monotone(2)) == 2
    assert sum(1 for _ in enumerate_monotone(3)) == 10
    assert sum(1 for _ in enumerate_monotone(4)) == 112
    assert sum(1 for _ in enumerate_monotone(5)) == 2772
    with pytest.raises(ValueError):
        next(enumerate_monotone(7))


def test_monotone_system_is_neighborly_diam2():
    for m in enumerate_monotone(3):
        sys = monotone_system(m)
        assert is_consistent(sys)
        assert is_neighborly(sys, gen_join(3))


def test_monotone_system_strict_example():
    m = next(enumerate_monotone(3))
    assert is_strictly_metric(monotone_system(m)).strict

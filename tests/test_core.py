import itertools
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from pathsystems.core import (
    Graph,
    PathSystem,
    Resume,
    ResumeRecoveryError,
    TripleSet,
    all_pairs,
    all_pointed_triples,
    all_resumes,
    colinear_triples,
    diameter,
    extract_resume,
    is_consistent,
    is_neighborly,
    make_path,
    pair,
    path_edges,
    pointed_triple,
    recover_from_resume,
)
from pathsystems.counting import enumerate_consistent

from oracles import graph_diameter, is_consistent_by_concatenation


def line_system(n):
    paths = [tuple(range(a, b + 1)) for a, b in all_pairs(n)]
    return PathSystem(n, paths)


@dataclass(frozen=True)
class Intersection:
    """Classification of the common subgraph of two paths."""

    kind: str  # "empty" | "vertex" | "subpath" | "violation"
    vertex: int | None = None
    path: tuple | None = None


def path_intersection(p, q):
    """Classify the intersection of two simple paths.

    The common vertices and common edges form the intersection subgraph.
    It is a sub-path only if the common edges form a contiguous path
    covering every common vertex.
    """
    pv, qv = set(p), set(q)
    common_v = pv & qv
    if not common_v:
        return Intersection("empty")
    common_e = path_edges(p) & path_edges(q)
    if len(common_v) == 1 and not common_e:
        return Intersection("vertex", vertex=next(iter(common_v)))
    # The common edges must form a simple path spanning all common vertices.
    deg = {}
    for u, v in common_e:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if set(deg) != common_v:
        return Intersection("violation")
    ends = [v for v, d in deg.items() if d == 1]
    if len(ends) != 2 or any(d > 2 for d in deg.values()):
        return Intersection("violation")
    # Walk from one endpoint; check connectivity and coverage.
    adj = {v: [] for v in deg}
    for u, v in common_e:
        adj[u].append(v)
        adj[v].append(u)
    walk = [min(ends)]
    prev = None
    while True:
        nxt = [w for w in adj[walk[-1]] if w != prev]
        if not nxt:
            break
        prev = walk[-1]
        walk.append(nxt[0])
    if len(walk) != len(common_v):
        return Intersection("violation")
    return Intersection("subpath", path=make_path(walk))


def _pairwise_consistent(sys):
    """Oracle: any two paths meet in nothing, a vertex, or a member sub-path."""
    keys = sorted(sys.paths)
    for i, ka in enumerate(keys):
        for kb in keys[i + 1 :]:
            inter = path_intersection(sys.paths[ka], sys.paths[kb])
            if inter.kind == "violation":
                return False
            if inter.kind == "subpath":
                if sys.path(inter.path[0], inter.path[-1]) != inter.path:
                    return False
    return True


def _fails_concatenation(sys, key):
    """P_{u,v} differs from P_{u,a} + P_{a,v} at some interior vertex a."""
    u, v = key
    p = sys.path(u, v)
    if p[0] != u:
        p = p[::-1]
    return any(
        make_path(p[: i + 1]) != sys.path(u, p[i]) or make_path(p[i:]) != sys.path(p[i], v)
        for i in range(1, len(p) - 1)
    )


def _check_against_oracle(sys):
    verdict = is_consistent(sys)
    assert bool(verdict) == _pairwise_consistent(sys)
    if not verdict:
        assert _fails_concatenation(sys, verdict.pair_a)


CONSISTENT_4 = list(enumerate_consistent(4))


@st.composite
def simple_paths(draw, n, u, v):
    others = [x for x in range(1, n + 1) if x not in (u, v)]
    interior = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return (u, *interior, v)


@st.composite
def perturbed_consistent_4(draw):
    sys = draw(st.sampled_from(CONSISTENT_4))
    key = draw(st.sampled_from(sorted(sys.paths)))
    paths = dict(sys.paths)
    paths[key] = draw(simple_paths(4, *key))
    return PathSystem(4, paths)


@st.composite
def random_systems(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    return PathSystem(n, [draw(simple_paths(n, u, v)) for u, v in all_pairs(n)])


def test_pair_canonical():
    assert pair(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        pair(2, 2)


def test_all_pairs_lex():
    assert all_pairs(3) == [(1, 2), (1, 3), (2, 3)]
    assert len(all_pairs(6)) == 15


def test_make_path_canonical_orientation():
    assert make_path((3, 2, 1)) == (1, 2, 3)
    assert make_path((1, 4, 2)) == (1, 4, 2)
    with pytest.raises(ValueError):
        make_path((1, 2, 1))
    with pytest.raises(ValueError):
        make_path((1,))


def test_pointed_triples():
    assert pointed_triple(3, 1, 2) == (1, 3, 2)
    assert len(all_pointed_triples(4)) == 12
    with pytest.raises(ValueError):
        pointed_triple(1, 1, 2)


def test_bool_vertex_refused():
    # bool is an int subclass; a vertex label must be a genuine int.
    with pytest.raises(ValueError, match="vertex True"):
        TripleSet(4, frozenset({(True, 3, 2)}))
    with pytest.raises(ValueError, match="vertex True"):
        Graph(3, [(True, 2)])


def test_graph_basics():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert g.has_edge(2, 1)
    assert g.neighbors(1) == {2, 4}
    assert graph_diameter(g) == 2
    assert sorted(g.non_edges()) == [(1, 3), (2, 4)]
    assert graph_diameter(Graph(2, [])) is None


def test_intersection_empty_and_vertex():
    assert path_intersection((1, 2), (3, 4)).kind == "empty"
    inter = path_intersection((1, 2), (2, 3))
    assert inter.kind == "vertex" and inter.vertex == 2


def test_intersection_subpath():
    inter = path_intersection((1, 2, 3, 4), (2, 3, 4, 5))
    assert inter.kind == "subpath" and inter.path == (2, 3, 4)


def test_intersection_violations():
    # Two shared vertices but no shared edge: disconnected intersection.
    assert path_intersection((1, 2, 3), (1, 4, 3)).kind == "violation"
    # Shared edges in two components.
    assert path_intersection((1, 2, 5, 3, 4), (1, 2, 6, 3, 4)).kind == "violation"


@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
def test_intersection_symmetric(p, q):
    p, q = tuple(p[:4]), tuple(q[:4])
    a, b = path_intersection(p, q), path_intersection(q, p)
    assert (a.kind, a.vertex, a.path) == (b.kind, b.vertex, b.path)


def test_line_system_consistent():
    sys = line_system(4)
    assert is_consistent(sys)
    assert diameter(sys) == 3
    assert colinear_triples(sys).triples == {
        (1, 3, 2),
        (1, 4, 2),
        (1, 4, 3),
        (2, 4, 3),
    }


def test_inconsistent_system_detected():
    # P_{1,3} = 1-2-3 and P_{1,4} = 1-3-4 share {1, 3} but no edge.
    sys = PathSystem(
        4,
        [(1, 2), (1, 2, 3), (1, 3, 4), (2, 3), (2, 3, 4), (3, 4)],
    )
    verdict = is_consistent(sys)
    assert not verdict
    assert verdict.reason
    _check_against_oracle(sys)


def test_consistency_oracle_on_all_consistent_n4():
    for sys in CONSISTENT_4:
        _check_against_oracle(sys)


def _simple_paths_in_k(n, u, v):
    """Every simple uv-path in K_n: shortest first, interiors in permutation order."""
    others = [x for x in range(1, n + 1) if x not in (u, v)]
    return [
        (u, *interior, v)
        for k in range(len(others) + 1)
        for interior in itertools.permutations(others, k)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_consistent_matches_brute_force(n):
    # Every choice of one simple path per pair, filtered by the pairwise
    # intersection oracle: the same systems in the same order.
    candidates = [_simple_paths_in_k(n, u, v) for u, v in all_pairs(n)]
    systems = (PathSystem(n, paths) for paths in itertools.product(*candidates))
    assert [s for s in systems if _pairwise_consistent(s)] == list(enumerate_consistent(n))


@given(st.one_of(perturbed_consistent_4(), random_systems()))
def test_consistency_matches_pairwise_oracle(sys):
    _check_against_oracle(sys)


CONSISTENT = {4: CONSISTENT_4, 5: list(enumerate_consistent(5))}


@st.composite
def perturbed_consistent(draw):
    """A consistent system of [4] or [5] with up to two paths redrawn."""
    n = draw(st.sampled_from(sorted(CONSISTENT)))
    paths = dict(draw(st.sampled_from(CONSISTENT[n])).paths)
    for key in draw(st.lists(st.sampled_from(sorted(paths)), max_size=2)):
        paths[key] = draw(simple_paths(n, *key))
    return PathSystem(n, paths)


@given(st.one_of(perturbed_consistent(), random_systems()))
def test_consistency_matches_concatenation_oracle(sys):
    # The sub-path rule and the concatenation rule give the same verdict,
    # violating pairs and reason.
    assert is_consistent(sys) == is_consistent_by_concatenation(sys)


@given(random_systems(), st.randoms(use_true_random=False))
def test_consistency_verdict_independent_of_path_order(sys, rng):
    paths = list(sys.paths.values())
    rng.shuffle(paths)
    assert is_consistent(PathSystem(sys.n, paths)) == is_consistent(sys)


def test_neighborly():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert is_neighborly(line_system(4), g)
    g2 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert not is_neighborly(line_system(4), g2)


def test_resume_extract_canonical():
    f = extract_resume(line_system(4))
    assert f.as_dict() == {(1, 3): 2, (1, 4): 2, (2, 4): 3}


def test_all_resumes_and_roundtrip():
    sys = line_system(4)
    resumes = all_resumes(sys)
    # 1 * 2 * 1 interior choices.
    assert len(resumes) == 2
    for f in resumes:
        assert recover_from_resume(f) == sys


def test_resume_rejects_endpoint_value():
    with pytest.raises(ValueError):
        Resume(3, (((1, 2), 1),))


@pytest.mark.parametrize("second", [(3, 1), (1, 3)], ids=["reversed", "same_orientation"])
def test_resume_refuses_conflicting_duplicates(second):
    with pytest.raises(ValueError, match=r"two different résumé values for pair \(1, 3\)"):
        Resume(4, (((1, 3), 2), (second, 4)))
    # The same value twice is one entry.
    assert Resume(4, (((1, 3), 2), (second, 2))).entries == (((1, 3), 2),)


def test_recover_cyclic_dependency_errors():
    f = Resume(3, (((1, 2), 3), ((1, 3), 2)))
    with pytest.raises(ResumeRecoveryError) as e:
        recover_from_resume(f)
    assert e.value.kind in ("unresolved_pair", "non_simple_concatenation")


def test_recover_non_simple_errors():
    # P_{1,4} via 2 needs P_{2,4}, itself via 1: the concatenation
    # 1-2 + 2-1-4 repeats vertex 1.
    f = Resume(4, (((1, 4), 2), ((2, 4), 1)))
    with pytest.raises(ResumeRecoveryError):
        recover_from_resume(f)

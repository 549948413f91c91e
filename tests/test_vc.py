import itertools

import pytest

from pathsystems.core import PathSystem
from pathsystems.counting import enumerate_consistent
from pathsystems.generators import gen_gnp
from pathsystems.rational import Q
from pathsystems.vc import (
    NoCompatibleExtension,
    SetSystem,
    SimplicialComplex,
    build_maximum_class,
    compatible_vertices,
    extension_base,
    family_of_system,
    is_maximum_class,
    sample_lm,
    sauer_bound,
    shatters,
    vc_dim,
)

from oracles import is_intersection_closed
from test_core import line_system


def power_set(n):
    sets = []
    for size in range(n + 1):
        sets.extend(frozenset(s) for s in itertools.combinations(range(1, n + 1), size))
    return SetSystem(n, frozenset(sets))


def test_family_of_system_counts():
    k3 = PathSystem(3, [(1, 2), (1, 3), (2, 3)])
    assert len(family_of_system(k3)) == 7
    assert len(family_of_system(line_system(4))) == 11


def test_shatters():
    f = power_set(3)
    assert shatters(f, {1, 2, 3})
    fp = family_of_system(line_system(4))
    for s in itertools.combinations(range(1, 5), 2):
        assert shatters(fp, s)
    for s in itertools.combinations(range(1, 5), 3):
        assert not shatters(fp, s)


def test_vc_dim():
    assert vc_dim(power_set(3)) == 3
    assert vc_dim(SetSystem(3, frozenset({frozenset()}))) == 0
    assert vc_dim(SetSystem(3, frozenset())) == -1
    assert vc_dim(family_of_system(line_system(4))) == 2


def test_is_maximum_class():
    fp = family_of_system(line_system(4))
    assert is_maximum_class(fp, 2)
    assert not is_maximum_class(fp, 3)
    smaller = SetSystem(4, frozenset(set(fp.sets) - {frozenset({1, 2})}))
    assert not is_maximum_class(smaller, 2)
    assert is_maximum_class(power_set(3), 3)


def test_obs61_exhaustive_n4():
    for sys in enumerate_consistent(4):
        fam = family_of_system(sys)
        assert len(fam) == sauer_bound(4, 2) == 11
        assert is_maximum_class(fam, 2)
        assert is_intersection_closed(fam)


def test_sample_lm_extremes_and_determinism():
    assert len(sample_lm(6, 1, 1, 0).faces) == 15
    assert len(sample_lm(6, 1, 0, 0).faces) == 0
    a = sample_lm(7, 2, Q(1, 2), 3)
    b = sample_lm(7, 2, Q(1, 2), 3)
    assert a.faces == b.faces
    assert all(len(f) == 3 for f in a.faces)


@pytest.mark.parametrize("p", [0, Q(1, 3), Q(1, 2), 1])
def test_sample_lm_edges_are_gen_gnp(p):
    for n in range(9):
        for seed in range(4):
            edges = {tuple(sorted(f)) for f in sample_lm(n, 1, p, seed).faces}
            assert edges == gen_gnp(n, p, seed).edges


def test_sample_lm_refuses_negative_dimension():
    with pytest.raises(ValueError, match="dimension k=-1 is negative"):
        sample_lm(4, -1, Q(1, 2), 0)


def test_compatible_vertices_c4():
    y = SimplicialComplex(
        4, 1, frozenset({frozenset(e) for e in [(1, 2), (2, 3), (3, 4), (1, 4)]})
    )
    assert compatible_vertices(y, {1, 3}) == [2, 4]
    path = SimplicialComplex(3, 1, frozenset({frozenset({1, 2}), frozenset({2, 3})}))
    assert compatible_vertices(path, {1, 3}) == [2]
    with pytest.raises(ValueError):
        compatible_vertices(y, {1, 2})


def test_build_maximum_class_p1_no_extensions():
    y = sample_lm(6, 1, 1, 0)
    fam = build_maximum_class(y)
    assert is_maximum_class(fam, 2)
    assert max(len(s) for s in fam.sets) == 2


def test_build_maximum_class_c4():
    y = SimplicialComplex(
        4, 1, frozenset({frozenset(e) for e in [(1, 2), (2, 3), (3, 4), (1, 4)]})
    )
    fam = build_maximum_class(y)
    assert is_maximum_class(fam, 2)
    # The two non-edges {1,3} and {2,4} got extensions through vertex 2 resp. 1.
    assert frozenset({1, 2, 3}) in fam.sets
    assert frozenset({1, 2, 4}) in fam.sets


def test_build_maximum_class_no_extension_error():
    path = SimplicialComplex(4, 1, frozenset({frozenset({1, 2}), frozenset({2, 3})}))
    with pytest.raises(NoCompatibleExtension):
        build_maximum_class(path)


def test_extensions_decode_to_bases():
    y = sample_lm(8, 1, Q(7, 10), 0)
    fam = build_maximum_class(y)
    for s in fam.sets:
        if len(s) == y.k + 2:
            base = extension_base(y, s)
            assert len(base) == y.k + 1 and base not in y.faces


def test_no_shattered_set_contains_extension():
    y = sample_lm(8, 1, Q(7, 10), 1)
    fam = build_maximum_class(y)
    d = y.k + 1
    for s in fam.sets:
        if len(s) == d + 1:
            assert not shatters(fam, s)

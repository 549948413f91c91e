import math
from fractions import Fraction

import pytest

from pathsystems.core import Graph, is_consistent
from pathsystems.counting import boxed_count, count_d2, enumerate_consistent, sym_count

from oracles import (
    asymptotic_check,
    boxed_brute,
    is_boxed_plane_partition,
    signature_separation_experiment,
    sym_brute,
)

LIMIT_5_12 = 4.5 * math.log(3) - 6 * math.log(2)


def test_count_d2_examples():
    c4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert count_d2(c4) == 4
    k4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert count_d2(k4) == 1
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert count_d2(star) == 1


def test_enumerate_consistent_small():
    # Each of the three pairs of [3] is either an edge or routed through
    # the third vertex, but at most one path may be rerouted.
    systems = list(enumerate_consistent(3))
    assert len(systems) == 4
    assert all(is_consistent(s) for s in systems)
    assert len({s for s in systems}) == 4


def test_enumerate_consistent_regression_n4():
    assert sum(1 for _ in enumerate_consistent(4)) == 53


def test_enumerate_consistent_regression_n5():
    assert sum(1 for _ in enumerate_consistent(5)) == 2668


def test_enumerate_consistent_cap():
    with pytest.raises(ValueError):
        next(enumerate_consistent(6))


def test_boxed_formula_vs_brute():
    for r in range(4):
        for s in range(4):
            for t in range(4):
                assert boxed_count(r, s, t) == boxed_brute(r, s, t)
    assert boxed_count(2, 2, 2) == 20


def test_sym_formula_vs_brute():
    for r in range(4):
        for t in range(4):
            assert sym_count(r, t) == sym_brute(r, t)


def test_example_matrix_3x4():
    matrix = [[5, 3, 3, 1], [4, 2, 1, 0], [2, 0, 0, 0]]
    assert is_boxed_plane_partition(matrix, 3, 4, 5)
    assert sum(sum(row) for row in matrix) == 21
    assert not is_boxed_plane_partition([[1, 2]], 1, 2, 5)


def test_asymptotic_check_small_exact():
    # N(1,1,1) = 2, so the check value is ln 2.
    v = asymptotic_check(1)
    assert isinstance(v, Fraction)
    assert abs(float(v) - math.log(2)) < 1e-15


def test_asymptotic_check_converges():
    v = float(asymptotic_check(64))
    assert abs(v - LIMIT_5_12) / LIMIT_5_12 < 0.10


def test_signature_separation():
    report = signature_separation_experiment()
    assert report["collisions"] == 0
    assert report["consistent_systems"] == 53

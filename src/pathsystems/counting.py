"""Exact counting: diameter-2 products, brute-force enumeration of
consistent systems, and the product formulas for boxed and symmetric
plane partitions.

Products are evaluated exactly and checked to reduce to an integer;
MacMahon's product is computed once, by `boxed_count`.  The independent
enumeration oracles, the asymptotics check and the signature-separation
experiment on [4] live in the tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .core import PathSystem, _subpath, all_pairs, is_consistent, pair
from .rational import ensure

__all__ = [
    "count_d2",
    "enumerate_consistent",
    "boxed_count",
    "sym_count",
]


def count_d2(g):
    """Number of neighborly diameter-2 systems: the product, over
    non-adjacent pairs, of the common-neighborhood sizes."""
    total = 1
    for u, v in g.non_edges():
        total *= len(g.neighbors(u) & g.neighbors(v))
        if total == 0:
            return 0
    return total


def _simple_paths(u, v, n):
    """All simple uv-paths in K_n, shortest first (canonical orientation)."""
    others = [x for x in range(1, n + 1) if x not in (u, v)]
    result = [pair(u, v)]
    for k in range(1, len(others) + 1):
        for interior in itertools.permutations(others, k):
            p = (u, *interior, v)
            if p[0] > p[-1]:
                p = p[::-1]
            result.append(p)
    return result


def enumerate_consistent(n):
    """All consistent path systems on [n] by pruned backtracking.

    Pairs are assigned lexicographically, candidate paths shortest first.
    In a consistent system the sub-path of a member path between any two
    of its vertices is the member path of that pair, the rule
    `is_consistent` checks with the same `_subpath`.  A candidate is cut
    when one of its sub-paths differs from a path already placed, or when
    a path already placed runs through both of its endpoints with a
    different sub-path between them.  Each complete system is still
    decided by `is_consistent`.
    """
    if n > 5:
        raise ValueError(f"n={n} exceeds the enumeration cap 5")
    pairs = all_pairs(n)
    candidates = {p: _simple_paths(*p, n) for p in pairs}
    assignment = {}

    def compatible(new_pair, new_path):
        for a, b in itertools.combinations(new_path, 2):
            placed = assignment.get(pair(a, b))
            if placed is not None and placed != _subpath(new_path, a, b):
                return False
        u, v = new_pair
        return all(
            _subpath(old_path, u, v) == new_path
            for old_path in assignment.values()
            if u in old_path and v in old_path
        )

    def backtrack(ix):
        if ix == len(pairs):
            sys = PathSystem(n, dict(assignment))
            if is_consistent(sys):
                yield sys
            return
        key = pairs[ix]
        for cand in candidates[key]:
            if compatible(key, cand):
                assignment[key] = cand
                yield from backtrack(ix + 1)
                del assignment[key]

    yield from backtrack(0)


# ---------------------------------------------------------------------------
# Plane partitions
# ---------------------------------------------------------------------------


def boxed_count(r, s, t):
    """MacMahon's product for (r,s,t)-boxed plane partitions, exactly.

    The product of (i+j+t-1)/(i+j-1) over i <= r and j <= s, with each
    row i in closed form: prod_i C(i+s+t-1, s) / prod_i C(i+s-1, s).
    """
    if min(r, s, t) < 0:
        raise ValueError("dimensions must be non-negative")
    num = den = 1
    for i in range(1, r + 1):
        num *= comb(i + s + t - 1, s)
        den *= comb(i + s - 1, s)
    ensure(num % den == 0, "MacMahon product is an integer")
    return num // den


def sym_count(r, t):
    """Andrews' product for symmetric (r,t) plane partitions, exactly."""
    if r < 0 or t < 0:
        raise ValueError("dimensions must be non-negative")
    total = Fraction(1)
    for i in range(1, r + 1):
        total *= Fraction(2 * i + t - 1, 2 * i - 1)
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            total *= Fraction(i + j + t - 1, i + j - 1)
    ensure(total.denominator == 1, "Andrews product is an integer")
    return total.numerator

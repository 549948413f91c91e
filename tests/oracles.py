"""Test-only oracles, each a second way to decide what `pathsystems` decides.

`boxed_brute` and `sym_brute` count matrices directly, independently of
the product formulas in `pathsystems.counting` that they check;
`is_boxed_plane_partition` validates one matrix.  `closure_per_triple`
decides the closure of a triple set with one LP per triple outside it,
independently of the repeated realizability of `pathsystems.metrize.closure`.
`integral_witness_search_per_candidate` is the integral witness search
with one LP per candidate and per node, and no cut reuse: the same tree
as `pathsystems.metrize.integral_witness_search`, decided without its
stored Farkas rays and solutions.
"""

import time

from pathsystems.core import TripleSet, all_pairs
from pathsystems.metrize import SearchOutcome, _delta_table, is_realizable, triple_signature
from pathsystems.ratlp import LinearSystem, solve_feasibility
from pathsystems.rational import ensure


def _nonincreasing_rows(bounds, t):
    """All non-increasing rows with row[j] <= bounds[j] (entries 0..t)."""
    s = len(bounds)

    def rec(j, prev):
        if j == s:
            yield ()
            return
        for v in range(min(prev, bounds[j]), -1, -1):
            for rest in rec(j + 1, v):
                yield (v, *rest)

    yield from rec(0, t)


def boxed_brute(r, s, t):
    """Independent oracle: enumerate the r x s matrices directly."""
    if min(r, s, t) < 0:
        raise ValueError("dimensions must be non-negative")
    if r == 0 or s == 0:
        return 1
    memo = {}

    def count_below(prev, rows_left):
        if rows_left == 0:
            return 1
        key = (prev, rows_left)
        if key not in memo:
            memo[key] = sum(
                count_below(row, rows_left - 1) for row in _nonincreasing_rows(prev, t)
            )
        return memo[key]

    return count_below((t,) * s, r)


def sym_brute(r, t):
    """Independent oracle: enumerate symmetric matrices cell by cell."""
    if r == 0:
        return 1
    grid = [[None] * r for _ in range(r)]
    cells = [(i, j) for i in range(r) for j in range(i, r)]

    def bound(i, j):
        up = grid[i - 1][j] if i > 0 else t
        left = grid[i][j - 1] if j > 0 else t
        return min(up, left)

    def rec(ix):
        if ix == len(cells):
            return 1
        i, j = cells[ix]
        total = 0
        for v in range(bound(i, j), -1, -1):
            grid[i][j] = v
            grid[j][i] = v
            total += rec(ix + 1)
        grid[i][j] = None
        grid[j][i] = None
        return total

    return rec(0)


def is_boxed_plane_partition(matrix, r, s, t):
    """Validate an r x s array of entries 0..t, non-increasing both ways."""
    if len(matrix) != r or any(len(row) != s for row in matrix):
        return False
    for i in range(r):
        for j in range(s):
            v = matrix[i][j]
            if not 0 <= v <= t:
                return False
            if j + 1 < s and matrix[i][j + 1] > v:
                return False
            if i + 1 < r and matrix[i + 1][j] > v:
                return False
    return True


def closure_per_triple(S):
    """Smallest realizable triple set containing S.

    A triple t joins the closure when no pseudometric vanishes on all of S
    while staying strictly positive on t.
    """
    n = S.n
    npairs = len(all_pairs(n))
    table = _delta_table(n)
    eqs = tuple((table[s], 0) for s in S)
    added = set(S.triples)
    for t in table:
        if t in S.triples:
            continue
        ineqs = [(table[t], 1)]
        for r, vec in table.items():
            if r not in S.triples and r != t:
                ineqs.append((vec, 0))
        system = LinearSystem(num_vars=npairs, equalities=eqs, inequalities=tuple(ineqs))
        if not solve_feasibility(system).feasible:
            added.add(t)
    result = TripleSet(n, frozenset(added))
    ensure(is_realizable(result).realizable, "closure is realizable")
    return result


def _completion_feasible(n, triples, residual):
    """Exists y >= 0 over `triples` with sum y_t Delta_t = residual?"""
    table = _delta_table(n)
    cols = [table[t] for t in triples]
    # Rows from lists, not generators: see `ratlp._exact_vec`.
    eqs = tuple((tuple([col[i] for col in cols]), r) for i, r in enumerate(residual))
    system = LinearSystem(num_vars=len(triples), equalities=eqs, nonnegative_vars=True)
    return solve_feasibility(system).feasible


class _Budget(Exception):
    """The wall-clock budget of an integral witness search ran out."""


def integral_witness_search_per_candidate(S, time_budget=None):
    """Exhaustive search for an integral witness multiset.

    Seeks a multiset T of pointed triples with sum of Delta over T equal
    to the signature of S and support not contained in S.  |T| = |S| is
    forced since every Delta_t has coordinate sum 1.  Branch and bound in
    lexicographic triple order with exact-LP relaxation pruning at every
    node; "not_found" is an exhaustive proof, "inconclusive" means the
    wall-clock budget (seconds) ran out.
    """
    n = S.n
    target = triple_signature(S)
    m = len(S)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    deltas = _delta_table(n)
    universe = list(deltas)
    # A triple can appear in an integral witness only if a fractional
    # solution with its coefficient >= 1 exists.
    candidates = []
    for t in universe:
        if deadline is not None and time.monotonic() > deadline:
            return SearchOutcome("inconclusive")
        d = deltas[t]
        shifted = [target[i] - d[i] for i in range(len(target))]
        if _completion_feasible(n, universe, shifted):
            candidates.append(t)
    nodes = 0

    def recurse(ix, remaining, residual):
        nonlocal nodes
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            raise _Budget
        if remaining == 0:
            if all(r == 0 for r in residual):
                counts = dict(assignment)
                support = {t for t, c in counts.items() if c}
                if not support <= S.triples:
                    multiset = tuple(
                        sorted(t for t, c in counts.items() for _ in range(c))
                    )
                    return multiset
            return None
        if ix == len(candidates):
            return None
        if not _completion_feasible(n, candidates[ix:], residual):
            return None
        t = candidates[ix]
        d = deltas[t]
        for c in range(remaining + 1):
            if c:
                assignment[t] = c
            elif t in assignment:
                del assignment[t]
            new_res = [residual[i] - c * d[i] for i in range(len(residual))]
            found = recurse(ix + 1, remaining - c, new_res)
            if found is not None:
                return found
        assignment.pop(t, None)
        return None

    assignment = {}
    try:
        found = recurse(0, m, list(target))
    except _Budget:
        return SearchOutcome("inconclusive", nodes=nodes)
    finally:
        # recurse holds itself through its closure; dropping the name frees
        # the search state now instead of at the next cyclic collection.
        del recurse
    if found is not None:
        return SearchOutcome("found", multiset=found, nodes=nodes)
    return SearchOutcome("not_found", nodes=nodes)

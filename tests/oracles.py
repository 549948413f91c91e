"""Test-only oracles, each a second way to decide what `pathsystems` decides,
and the acceptance experiments that no verdict of the library needs.

`boxed_brute` and `sym_brute` count matrices directly, independently of
the product formulas in `pathsystems.counting` that they check;
`is_boxed_plane_partition` validates one matrix.  `closure_per_triple`
decides the closure of a triple set with one LP per triple outside it,
independently of the repeated realizability of `pathsystems.metrize.closure`.
`integral_witness_search_per_candidate` is the integral witness search
over `closure_per_triple`, with one LP per node and no cut reuse: the
same tree as `pathsystems.metrize.integral_witness_search`, decided
without its stored Farkas rays and solutions.  `FractionTableau` is the
dense simplex tableau over rationals that the sparse integer
`pathsystems.ratlp._Tableau` replaced, with the same phase-1 pivot rule
and a phase 2 by Bland's rule;
`maximize_two_phase` runs the two-phase simplex on it, a second way to
reach the optimum that `pathsystems.ratlp.maximize` proves by LP duality.
`sparse` turns dense rows into the (variable, coefficient) rows of
`pathsystems.ratlp.LinearSystem`.  `pair_lp_feasible` decides metric
(slack 0) and strict metric (slack 1) by one pair-space LP with bound rows
x_ab >= 1, built from the paths apart from `pathsystems.metrize`, whose
metric verdict comes from the closure and strict one from realizability.
`graph_diameter` measures a graph by breadth-first search, apart from the
Floyd-Warshall table of `pathsystems.metrize.induce_system`, which decides
connectivity there.  `is_intersection_closed` checks every pair of
sets of a family, the closure property of the families of consistent
systems.  `is_consistent_by_concatenation` decides consistency by joining
P_{u,a} and P_{a,v} at each interior vertex a of P_{u,v}, where
`pathsystems.core.is_consistent` compares them with sub-paths of P_{u,v}.
`has_perfect_matching` tries every pairing of the smallest unmatched
vertex, apart from the greedy pass and Edmonds' augmentation of
`pathsystems.generators.perfect_matching`.  `induce_by_enumeration` finds
each pair's geodesics among all its simple paths, apart from the
Floyd-Warshall distances and predecessor counts of
`pathsystems.metrize.induce_system`.

The two experiments: `asymptotic_check` takes the logarithm of
MacMahon's exact product `pathsystems.counting.boxed_count(n, n, n)`
(criterion 3), and `signature_separation_experiment` checks on [4] that
the signatures of each strictly metric system's résumés meet those of no
other partial map (criterion 8).
"""

import itertools
import time
from collections import deque
from decimal import Decimal, localcontext
from fractions import Fraction

from pathsystems.core import (
    Consistency,
    PathSystem,
    Resume,
    TripleSet,
    all_pairs,
    all_pointed_triples,
    all_resumes,
    pair,
)
from pathsystems.counting import boxed_count, enumerate_consistent
from pathsystems.metrize import (
    InduceResult,
    SearchOutcome,
    _delta_table,
    delta,
    is_realizable,
    is_strictly_metric,
    resume_signature,
    triple_signature,
)
from pathsystems.ratlp import LinearSystem, OptimizeResult, solve_feasibility
from pathsystems.rational import ONE, Q, ZERO, ensure


def sparse(rows):
    """Dense (coefficients, rhs) rows as `LinearSystem` rows: each row's
    non-zero coefficients as (variable, coefficient) entries."""
    return tuple((tuple((v, c) for v, c in enumerate(a) if c), b) for a, b in rows)


def pair_lp_feasible(sys, slack):
    """Over one variable per pair: Delta_t = 0 for t colinear on the paths,
    Delta_t >= slack for every other pointed triple, and x_{a,b} >= 1.

    Feasible with slack 0 iff the system is metric, with slack 1 iff it is
    strictly metric (strictness is scale-invariant).
    """
    pairs = all_pairs(sys.n)
    index = {p: i for i, p in enumerate(pairs)}
    colinear = {(a, b, c) for (a, b), path in sys.paths.items() for c in path[1:-1]}
    eqs, ineqs = [], []
    for a, b, c in all_pointed_triples(sys.n):
        row = [0] * len(pairs)
        row[index[pair(a, c)]] += 1
        row[index[pair(c, b)]] += 1
        row[index[(a, b)]] -= 1
        if (a, b, c) in colinear:
            eqs.append((row, 0))
        else:
            ineqs.append((row, slack))
    for i in range(len(pairs)):
        ineqs.append(([1 if j == i else 0 for j in range(len(pairs))], 1))
    system = LinearSystem(len(pairs), equalities=sparse(eqs), inequalities=sparse(ineqs))
    return solve_feasibility(system).feasible


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


def asymptotic_check(n):
    """ln N(n,n,n) / n^2 as an exact-product, fixed-precision logarithm.

    N = boxed_count(n, n, n) is exact; only the final logarithm leaves
    exact arithmetic, at 20 decimal digits.
    """
    if n > 256:
        raise ValueError("n capped at 256")
    if n == 0:
        return Fraction(0)
    with localcontext() as ctx:
        ctx.prec = 35  # the 20 digits above plus 15 guard digits
        value = Decimal(boxed_count(n, n, n)).ln() / (Decimal(n) ** 2)
    return Fraction(value)


def _all_partial_functions(n):
    """Every partial map sending a pair {u,v} to a vertex outside it."""
    pairs = all_pairs(n)
    options = []
    for u, v in pairs:
        opts = [None] + [z for z in range(1, n + 1) if z not in (u, v)]
        options.append(opts)
    for combo in itertools.product(*options):
        entries = tuple(
            (pairs[i], z) for i, z in enumerate(combo) if z is not None
        )
        yield Resume(n, entries)


def signature_separation_experiment():
    """Check that signatures separate resume from non-resume partial maps.

    For every strictly metric consistent system on [4], the signatures of
    its resumes must be disjoint from the signatures of all other partial
    functions.  Returns a report; raises if a collision is found (which
    would contradict the separation lemma).
    """
    n = 4
    partials = list(_all_partial_functions(n))
    signatures = [(g, resume_signature(g)) for g in partials]
    report = {
        "n": n,
        "partial_functions": len(partials),
        "consistent_systems": 0,
        "strictly_metric_systems": 0,
        "collisions": 0,
    }
    for sys in enumerate_consistent(n):
        report["consistent_systems"] += 1
        if not is_strictly_metric(sys).strict:
            continue
        report["strictly_metric_systems"] += 1
        resumes = set(all_resumes(sys))
        resume_sigs = {resume_signature(f) for f in resumes}
        for g, sig in signatures:
            if g not in resumes and sig in resume_sigs:
                report["collisions"] += 1
                raise AssertionError(
                    f"signature collision on system {sys} at partial map {g}"
                )
    return report


def graph_diameter(g):
    """Diameter of a `Graph` in edges, by breadth-first search from every
    vertex; None if the graph is disconnected."""
    worst = 0
    for source in range(1, g.n + 1):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) < g.n:
            return None
        worst = max(worst, max(dist.values()))
    return worst


def has_perfect_matching(g):
    """Does the `Graph` have a perfect matching?  Brute force: the smallest
    unmatched vertex tries each unmatched neighbour (meant for n <= 10)."""

    def match(free):
        if not free:
            return True
        v = min(free)
        return any(match(free - {v, u}) for u in g.neighbors(v) & free)

    return match(frozenset(range(1, g.n + 1)))


def induce_by_enumeration(w):
    """The `InduceResult` of `induce_system`, by enumerating simple paths.

    For each pair u < v in lexicographic order, every simple u-v path is
    weighed; the lightest is P_uv when it is the only one of least weight,
    and otherwise (u, v) is the first tied pair, with the number of
    lightest paths as its tie count.  Meant for n <= 6, on connected graphs.
    """
    g = w.graph

    def simple_paths(path, target):
        if path[-1] == target:
            yield path
            return
        for z in g.neighbors(path[-1]):
            if z not in path:
                yield from simple_paths(path + (z,), target)

    paths = {}
    for u, v in all_pairs(g.n):
        weighed = [
            (sum(w.w[pair(a, b)] for a, b in zip(p, p[1:])), p) for p in simple_paths((u,), v)
        ]
        least = min(weight for weight, _ in weighed)
        lightest = [p for weight, p in weighed if weight == least]
        if len(lightest) != 1:
            return InduceResult(False, tied_pair=(u, v), tie_count=len(lightest))
        paths[(u, v)] = lightest[0]
    return InduceResult(True, system=PathSystem(g.n, paths))


def is_intersection_closed(family):
    """Every pairwise intersection of the family's sets belongs to it."""
    return all(a & b in family.sets for a, b in itertools.combinations(family.sets, 2))


def is_consistent_by_concatenation(sys):
    """The `Consistency` of `is_consistent`, decided by concatenation: each
    P_{u,v} (u < v, walked from u) must equal P_{u,a} joined to P_{a,v} at
    each interior vertex a, pairs and vertices visited in the same order."""
    for u, v in sorted(sys.paths):
        p = sys.paths[(u, v)]
        for a in p[1:-1]:
            left, right = sys.path(u, a), sys.path(a, v)
            if left[0] != u:
                left = left[::-1]
            if right[0] != a:
                right = right[::-1]
            if left + right[1:] != p:
                return Consistency(False, (u, v), pair(u, a), "concatenation check failed")
    return Consistency(True)


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
    """Exists y >= 0 over `triples` with sum y_t Delta_t = residual?

    The rows are the transpose of the dense columns `delta(t, n)`.
    """
    cols = [delta(t, n) for t in triples]
    eqs = sparse(([col[i] for col in cols], r) for i, r in enumerate(residual))
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
    wall-clock budget (seconds) ran out.  The candidates are the triples
    of `closure_per_triple(S)`, in `_delta_table` order.
    """
    n = S.n
    target = triple_signature(S)
    m = len(S)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    within = closure_per_triple(S).triples
    candidates = [t for t in _delta_table(n) if t in within]
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
        d = delta(t, n)
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


class FractionTableau:
    """Dense tableau for min c.z s.t. A z = b, z >= 0 with b >= 0.

    Takes the n columns of A as (row, value) entries and the m entries of
    b, as `pathsystems.ratlp._Tableau` does, and stores A by dense rows.
    m artificial columns are appended and form the initial basis.  Input
    entries (ints or Q) become Q on entry, so every entry is a Q.
    """

    def __init__(self, cols, rhs):
        self.m = len(rhs)
        self.n = len(cols)
        self.width = self.n + self.m  # artificials appended
        self.T = []
        for i in range(self.m):
            art = [ZERO] * self.m
            art[i] = ONE
            self.T.append([ZERO] * self.n + art + [Q(rhs[i])])
        for j, col in enumerate(cols):
            for i, v in col:
                self.T[i][j] = Q(v)
        self.basis = [self.n + i for i in range(self.m)]
        # Phase-1 reduced costs: c = (0..0, 1..1); y = all-ones.
        self.cost = [ZERO] * (self.width + 1)
        for j in range(self.n):
            s = ZERO
            for i in range(self.m):
                s += self.T[i][j]
            self.cost[j] = -s
        self.cost[self.width] = -sum((r[self.width] for r in self.T), ZERO)

    @property
    def objective(self):
        return -self.cost[self.width]

    def pivot(self, r, c):
        T = self.T
        row = T[r]
        piv = row[c]
        if piv != ONE:
            inv = ONE / piv
            T[r] = row = [x * inv for x in row]
        for other in T:
            if other is row:
                continue
            f = other[c]
            if f:
                for j, rv in enumerate(row):
                    if rv:
                        other[j] -= f * rv
        f = self.cost[c]
        if f:
            for j, rv in enumerate(row):
                if rv:
                    self.cost[j] -= f * rv
        self.basis[r] = c

    def run(self, allowed):
        """Bland's rule over columns < allowed (phase 2 of `maximize_two_phase`);
        returns "optimal" or "unbounded"."""
        T, cost = self.T, self.cost
        while True:
            enter = -1
            for j in range(allowed):
                if cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i in range(self.m):
                a = T[i][enter]
                if a > 0:
                    ratio = T[i][self.width] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)

    def phase1(self):
        """Minimize the artificial sum; returns the optimum (>= 0).

        Pricing is cyclic from just after the last entering column; the
        leaving row minimizes the tuple of divided ratios (rhs, then the
        artificial columns, which hold B^-1) among positive pivots.
        """
        T, cost, n, m = self.T, self.cost, self.n, self.m
        order = [self.width, *range(n, n + m)]
        start = 0
        while True:
            scan = [*range(start, n), *range(start)]
            enter = next((j for j in scan if cost[j] < 0), -1)
            if enter < 0:
                return self.objective
            start = enter + 1
            rows = [i for i in range(m) if T[i][enter] > 0]
            assert rows  # phase-1 objective is bounded below by 0
            leave = min(rows, key=lambda i: [T[i][k] / T[i][enter] for k in order])
            self.pivot(leave, enter)

    def duals(self):
        """Phase-1 dual vector y (length m), from artificial reduced costs."""
        return [ONE - self.cost[self.n + i] for i in range(self.m)]

    def solution(self):
        z = [ZERO] * self.n
        for i, bv in enumerate(self.basis):
            if bv < self.n:
                z[bv] = self.T[i][self.width]
        return z

    def drive_out_artificials(self):
        """Pivot artificials out of the basis; drop redundant rows."""
        keep = []
        for i in range(self.m):
            if self.basis[i] < self.n:
                keep.append(i)
                continue
            piv_col = -1
            for j in range(self.n):
                if self.T[i][j]:
                    piv_col = j
                    break
            if piv_col >= 0:
                self.pivot(i, piv_col)
                keep.append(i)
            # else: redundant all-zero row, drop it
        self.T = [self.T[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(self.T)

    def set_objective(self, c):
        """Install reduced costs for a new objective vector (length n)."""
        cost = list(c) + [ZERO] * (self.width - self.n) + [ZERO]
        for i, bv in enumerate(self.basis):
            cb = cost[bv] if bv < self.n else ZERO
            if cb:
                for j, rv in enumerate(self.T[i]):
                    if rv:
                        cost[j] -= cb * rv
        # Zero out reduced costs of basic columns exactly.
        for bv in self.basis:
            cost[bv] = ZERO
        self.cost = cost


def maximize_two_phase(system):
    """Exact maximum of the objective by the two-phase simplex.

    Free variables are split as x = x+ - x-, each inequality gets a
    surplus column, and rows with a negative right-hand side are negated.
    Phase 1 decides feasibility; phase 2 minimizes -c from its basis.
    """
    V = system.num_vars
    n_eq, n_ineq = len(system.equalities), len(system.inequalities)
    nonneg = system.nonnegative_vars
    c = system.objective

    def split(a):
        return list(a) if nonneg else [*a, *(-x for x in a)]

    def dense(entries):
        a = [0] * V
        for v, x in entries:
            a[v] = x
        return a

    rows, rhs = [], []
    for idx, (a, b) in enumerate(system.equalities + system.inequalities):
        surplus = [0] * n_ineq
        if idx >= n_eq:
            surplus[idx - n_eq] = -1
        sign = -1 if b < 0 else 1
        rows.append([sign * x for x in split(dense(a)) + surplus])
        rhs.append(sign * b)
    if not rows:
        # Unconstrained: bounded only if no coordinate can raise c.x.
        if any(cj > 0 if nonneg else cj != 0 for cj in c):
            return OptimizeResult("unbounded")
        return OptimizeResult("optimal", value=ZERO, solution=(ZERO,) * V)
    cols = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*rows)]
    tab = FractionTableau(cols, rhs)
    if tab.phase1() != 0:
        return OptimizeResult("infeasible")
    tab.drive_out_artificials()
    tab.set_objective([-x for x in split(c)] + [0] * n_ineq)
    if tab.run(tab.n) == "unbounded":
        return OptimizeResult("unbounded")
    z = tab.solution()
    x = tuple(z[:V]) if nonneg else tuple(z[v] - z[V + v] for v in range(V))
    value = sum((cj * xj for cj, xj in zip(c, x)), ZERO)
    return OptimizeResult("optimal", value=value, solution=x)

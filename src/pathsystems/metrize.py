"""Metric and strict-metric realizability of path systems and triple sets.

A consistent path system is (strictly) metric when its paths are the
(unique) shortest paths of some positive edge weighting.  One exact LP,
`build_lp(S)`, decides whether a triple set S is exactly the colinear set
of a pseudometric: one variable per vertex pair, one sparse row Delta_t
per pointed triple t from a per-n table, = 0 on S and >= 1 elsewhere.
Infeasibility converts, via the Farkas certificate, into a non-negative
combination of triple vectors witnessing that no pseudometric has.  Strict
metrizability is the realizability of the colinear set.  The closure of a
triple set is reached by betweenness propagation and repeated
realizability: each propagated triple and each witness's support is
forced into the set until the set is realizable.  A system is metric when
the closure of its colinear set forces no distance to 0.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

from .core import (
    Graph,
    PathSystem,
    TripleSet,
    _check_vertex,
    all_pairs,
    all_pointed_triples,
    colinear_triples,
    pair,
    pointed_triple,
)
from .ratlp import LinearSystem, solve_feasibility
from .rational import Q, ZERO, ONE, ensure, scaled_to_integers

__all__ = [
    "Pseudometric",
    "WeightFunction",
    "WitnessAlpha",
    "StrictnessResult",
    "RealizabilityResult",
    "InduceResult",
    "SearchOutcome",
    "delta",
    "triple_signature",
    "resume_signature",
    "build_lp",
    "is_metric",
    "is_strictly_metric",
    "realize_weights",
    "induce_system",
    "triples_of_metric",
    "is_realizable",
    "verify_witness",
    "integral_witness_search",
    "closure",
]


@functools.lru_cache(maxsize=None)
def _pair_index(n):
    """Lexicographic index of each unordered pair of [n]; shared, do not mutate."""
    return {p: i for i, p in enumerate(all_pairs(n))}


@functools.lru_cache(maxsize=None)
def _delta_table(n):
    """Delta_t of every pointed triple t of [n], in lexicographic order of t.

    Delta_{a,b;c} is its three (pair index, coefficient) entries (({a,c}, 1),
    ({c,b}, 1), ({a,b}, -1)), as in `_pair_index(n)`: the sparse row an LP
    keeps as given.  The table, and its one entry per (pair, sign), are
    shared: callers must not mutate them.
    """
    idx = _pair_index(n)
    plus = [(i, 1) for i in range(len(idx))]
    minus = [(i, -1) for i in range(len(idx))]
    return {
        (a, b, c): (plus[idx[pair(a, c)]], plus[idx[pair(c, b)]], minus[idx[(a, b)]])
        for a, b, c in all_pointed_triples(n)
    }


@functools.lru_cache(maxsize=None)
def _triple_keys(n):
    """Each pointed triple of [n] mapped to the equal key of `_delta_table(n)`,
    so a computed triple is replaced by the shared one; do not mutate."""
    return {t: t for t in _delta_table(n)}


def _delta_sum(n, terms):
    """Sum of coeff * Delta_t over (t, coeff) terms with canonical triples t."""
    table = _delta_table(n)
    vec = [0] * (n * (n - 1) // 2)
    for t, coeff in terms:
        for i, v in table[t]:
            vec[i] += v * coeff
    return tuple(vec)


def delta(t, n):
    """The dense vector of pointed triple {a,b;c}: +1 at {a,c} and {c,b}, -1 at {a,b}."""
    return _delta_sum(n, ((pointed_triple(*t), 1),))


def triple_signature(ts):
    """Coordinate-wise sum of the triple vectors of a triple set."""
    return _delta_sum(ts.n, ((t, 1) for t in ts))


def resume_signature(f):
    """Signature of a partial function: sum of vectors over its entries."""
    return _delta_sum(f.n, (((u, v, z), 1) for (u, v), z in f.entries))


class Pseudometric:
    """Symmetric non-negative distance with zero diagonal, exact rationals.

    The distances are stored as one integer tuple `scaled`, in `all_pairs(n)`
    order, over one positive denominator `scale`: the lcm of their
    denominators, so the pair is unique.  `distances` gives them as one
    tuple of rationals, `d` as a new {pair: distance} dict.  `values` maps
    each pair to its distance, or is `scaled` itself when `scale` is given.
    """

    __slots__ = ("n", "scaled", "scale")

    def __init__(self, n, values, scale=None):
        self.n = int(n)
        if scale is None:
            values, scale = scaled_to_integers([Q(values[p]) for p in all_pairs(self.n)])
        # Distances repeat (a strict metric on J_4 has 28 of them but about
        # 7 distinct values); one shared object per value keeps a metric
        # small.  Integers are immutable, so sharing is safe.
        shared = {}
        self.scaled = tuple([shared.setdefault(v, v) for v in values])
        self.scale = scale
        self.validate()

    @property
    def distances(self):
        return tuple([Q(v, self.scale) for v in self.scaled])

    @property
    def d(self):
        return dict(zip(all_pairs(self.n), self.distances))

    def value(self, a, b):
        if a == b:
            return ZERO
        return Q(self.scaled[_pair_index(self.n)[pair(a, b)]], self.scale)

    def validate(self):
        """Non-negative distances and every triangle inequality, checked on
        the stored integers."""
        d = self.scaled
        for p, v in zip(all_pairs(self.n), d):
            if v < 0:
                raise ValueError(f"negative distance at {p}")
        for (a, b, c), ((ac, _), (cb, _), (ab, _)) in _delta_table(self.n).items():
            if d[ac] + d[cb] < d[ab]:
                raise ValueError(f"triangle inequality fails on {{{a},{b};{c}}}")

    def is_metric(self):
        return all(v > 0 for v in self.scaled)

    def __eq__(self, other):
        return (
            isinstance(other, Pseudometric)
            and self.n == other.n
            and self.scale == other.scale
            and self.scaled == other.scaled
        )

    def __repr__(self):
        return f"Pseudometric(n={self.n})"


class WeightFunction:
    """Strictly positive rational weights on the edges of a graph.

    `w` is a dict or a sequence of (edge, weight) items; two different
    weights for one edge are refused.
    """

    def __init__(self, graph, w):
        self.graph = graph
        self.w = {}
        for (u, v), val in w.items() if isinstance(w, dict) else w:
            _check_vertex(u, graph.n)
            _check_vertex(v, graph.n)
            e = pair(u, v)
            if e not in graph.edges:
                raise ValueError(f"weight on non-edge {e}")
            val = Q(val)
            if val <= 0:
                raise ValueError(f"non-positive weight on {e}")
            if self.w.setdefault(e, val) != val:
                raise ValueError(f"two different weights on edge {e}")
        if set(self.w) != set(graph.edges):
            raise ValueError("weights must cover exactly the graph's edges")

    def __repr__(self):
        return f"WeightFunction(n={self.graph.n}, edges={len(self.w)})"


class WitnessAlpha(dict):
    """Non-negative coefficients on pointed triples (finite support).

    Two different coefficients for one canonical triple are refused, a
    zero among them; zeros are not stored.  Equal coefficients share one
    object (1 is `ONE`): a witness has few distinct values, and no __dict__.
    """

    __slots__ = ()

    def __init__(self, items=()):
        super().__init__()
        given = {}
        shared = {ONE: ONE}
        source = items.items() if isinstance(items, dict) else items
        for t, v in source:
            v = Q(v)
            if v < 0:
                raise ValueError("witness coefficients must be non-negative")
            key = pointed_triple(*t)
            if given.setdefault(key, v) != v:
                raise ValueError(f"two different coefficients for triple {key}")
            if v:
                # A canonical triple is kept as given, so the witnesses of
                # `is_realizable` share the triples of `_delta_table`.
                self[t if t == key else key] = shared.setdefault(v, v)


@dataclass(frozen=True, slots=True)
class StrictnessResult:
    strict: bool
    metric: Pseudometric | None = None
    witness: WitnessAlpha | None = None


@dataclass(frozen=True, slots=True)
class RealizabilityResult:
    realizable: bool
    metric: Pseudometric | None = None
    witness: WitnessAlpha | None = None


@dataclass(frozen=True)
class InduceResult:
    unique: bool
    system: PathSystem | None = None
    tied_pair: tuple | None = None
    tie_count: int = 0


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    status: str  # "found" | "not_found" | "inconclusive"
    multiset: tuple | None = None
    nodes: int = 0


# ---------------------------------------------------------------------------
# LP construction and the realizability tests
# ---------------------------------------------------------------------------


def build_lp(S):
    """Realizability LP of a triple set S: one variable per vertex pair,
    Delta_t = 0 on S and Delta_t >= 1 on every other pointed triple, with
    rows in `_delta_table` order."""
    table = _delta_table(S.n)
    return LinearSystem(
        num_vars=len(_pair_index(S.n)),
        equalities=tuple([(row, 0) for t, row in table.items() if t in S.triples]),
        inequalities=tuple([(row, 1) for t, row in table.items() if t not in S.triples]),
    )


def _farkas_to_alpha(S, cert):
    """Rescale a Farkas certificate of `build_lp(S)` into a
    triple-combination witness.

    From sum(lam_t Delta_t) + sum(beta_s Delta_s) = 0 with lam >= 0 and
    positive combined rhs, rescale so every -beta_s <= 1 and set
    alpha_s = 1 + theta*beta_s on S, alpha_t = theta*lam_t elsewhere.
    """
    table = _delta_table(S.n)
    beta_neg = [-b for b in cert.beta]  # multipliers on sum over S
    top = max([b for b in beta_neg if b > 0], default=ZERO)
    theta = ONE / top if top > 1 else ONE
    alpha = {}
    for t, lam in zip([t for t in table if t not in S.triples], cert.lam):
        if lam:
            alpha[t] = theta * lam
    for s, b in zip([t for t in table if t in S.triples], beta_neg):
        val = ONE - theta * b
        if val:
            alpha[s] = val
    witness = WitnessAlpha(alpha)
    ensure(verify_witness(S, witness), "triple-combination witness")
    return witness


def is_metric(sys):
    """A metric under which every path is a shortest path, or None.

    The closure's last pseudometric rho is tight exactly on cl(C), C the
    colinear set.  A positive rho is a metric tight on C: the answer.  A
    zero rho(a, b) puts {a,x;b} and {b,x;a} in cl(C); every pseudometric
    tight on C is tight on both, so it has d(a, b) = 0, as Delta_{a,x;b} +
    Delta_{b,x;a} = 2 e_{a,b}.  With n < 3 there is no third vertex, and
    every distance is 1.  Raises ValueError on an inconsistent system.
    """
    if sys.n < 3:
        return Pseudometric(sys.n, dict.fromkeys(all_pairs(sys.n), 1))
    _, rho = _closure(colinear_triples(sys), math.inf)
    return rho if rho.is_metric() else None


def is_strictly_metric(sys):
    """Unique-shortest-path realizability, with witness either way.

    This is the realizability of the system's colinear triple set; the
    realizing pseudometric or the witness is that of `is_realizable`.
    """
    res = is_realizable(colinear_triples(sys))
    return StrictnessResult(res.realizable, metric=res.metric, witness=res.witness)


def _tight(rho):
    """The `_delta_table` keys where rho is tight, compared in integers."""
    d, table = rho.scaled, _delta_table(rho.n)
    tight = [t for t, ((ac, _), (cb, _), (ab, _)) in table.items() if d[ac] + d[cb] == d[ab]]
    return frozenset(tight)


def triples_of_metric(rho):
    """T(rho), the tight triples, as a TripleSet."""
    return TripleSet(rho.n, _tight(rho))


def realize_weights(sys, rho):
    """Positive edge weights inducing the system from a realizing metric.

    The support consists of the pairs that are their own path; other pairs
    get no edge (a forbidden edge stands in for an infinite weight).  When
    rho is only a pseudometric, a uniform 1/(n+1) is added to every edge:
    competing paths differ by fewer than n edges while every strict row has
    slack >= 1, so strict inequalities survive the shift.
    """
    if triples_of_metric(rho).triples != colinear_triples(sys).triples:
        raise ValueError("metric does not realize the system's colinear triples")
    support = [p for p in all_pairs(sys.n) if sys.paths[p] == p]
    eps = ZERO if rho.is_metric() else Q(1, sys.n + 1)
    g = Graph(sys.n, support)
    return WeightFunction(g, {e: rho.value(*e) + eps for e in support})


def induce_system(w):
    """All-pairs unique-geodesic extraction with exact tie counting.

    Distances come from Floyd-Warshall over exact rationals, and a pair it
    leaves unreachable raises ValueError: the graph is disconnected.  Per
    source, geodesic counts are accumulated over tight predecessor edges in
    order of increasing distance, and a vertex with one geodesic records its
    one tight predecessor, so its path follows those links back.
    """
    g = w.graph
    n = g.n
    verts = range(1, n + 1)
    dist = {u: {v: (ZERO if u == v else None) for v in verts} for u in verts}
    for (u, v), wt in w.w.items():
        dist[u][v] = wt
        dist[v][u] = wt
    for k in verts:
        dk = dist[k]
        for i in verts:
            dik = dist[i][k]
            if dik is None:
                continue
            di = dist[i]
            for j in verts:
                dkj = dk[j]
                if dkj is None:
                    continue
                alt = dik + dkj
                if di[j] is None or alt < di[j]:
                    di[j] = alt
    # An unreachable pair keeps None, which the count pass cannot sort.
    if any(d is None for du in dist.values() for d in du.values()):
        raise ValueError("weight function's graph is disconnected")
    paths = {}
    for u in verts:
        du = dist[u]
        order = sorted(verts, key=lambda v: du[v])
        count = {u: 1}
        pred = {}
        for v in order:
            if v == u:
                continue
            c = 0
            for z in g.neighbors(v):
                if du[z] + w.w[pair(z, v)] == du[v]:
                    c += count[z]
                    pred[v] = z
            count[v] = c
        for v in verts:
            if v <= u:
                continue
            if count[v] != 1:
                return InduceResult(False, tied_pair=(u, v), tie_count=count[v])
            walk = [v]
            while walk[-1] != u:
                walk.append(pred[walk[-1]])
            paths[(u, v)] = tuple(reversed(walk))
    return InduceResult(True, system=PathSystem(n, paths))


def is_realizable(S):
    """Is S exactly the colinear triple set of some pseudometric?  Not if
    betweenness changes S: its first derivation Delta_p + Delta_q = Delta_t
    + Delta_u (p, q in S) makes S - {p, q} + {t, u} the witness, with no LP.
    """
    first = _betweenness_closure(S)[1]
    if first is None:
        return _realize(S)
    (p, q), derived = first
    coeffs = dict.fromkeys(S.triples - {p, q}, 1)
    coeffs.update({t: 1 + coeffs.get(t, 0) for t in derived})
    witness = WitnessAlpha(coeffs)
    ensure(verify_witness(S, witness), "two-term witness")
    return RealizabilityResult(False, witness=witness)


def _realize(S):
    """`is_realizable(S)` by the LP `build_lp(S)`; a Yes's tight set is S."""
    res = solve_feasibility(build_lp(S))
    if res.feasible:
        rho = Pseudometric(S.n, res.scaled, res.scale)
        ensure(_tight(rho) == S.triples, "pseudometric realizes the triple set")
        return RealizabilityResult(True, metric=rho)
    return RealizabilityResult(False, witness=_farkas_to_alpha(S, res.certificate))


def verify_witness(S, alpha):
    """Exact check of sum over S of Delta = sum alpha_t Delta_t, alpha >= 0,
    with support not contained in S.  Both sides are multiplied by the lcm
    L of the coefficients' denominators, so the sums are over integers."""
    n = S.n
    if any(v < 0 for v in alpha.values()):
        return False
    coeffs, L = scaled_to_integers(list(alpha.values()))
    if _delta_sum(n, zip(alpha, coeffs)) != tuple([L * x for x in triple_signature(S)]):
        return False
    support = {t for t, v in alpha.items() if v}
    return not support <= S.triples


def _completion(n, triples, residual, rays, ix):
    """A verified y >= 0 over `triples` with sum y_t Delta_t = residual, or None.

    `triples` are the candidates[ix:] of a search node.  A stored
    (tag, ray) with tag <= ix and ray . residual > 0 answers No without an
    LP.  Otherwise one LP over the pair variables beta asks the Farkas
    alternative: -Delta_t . beta >= 0 for each t, and residual . beta >= 1.
    A verified certificate lam combines the right-hand sides to exactly 1
    (see `solve_feasibility`), so lam = 1 on the residual row, and lam on
    the other rows is y.  A verified solution is a ray, beta . Delta_u <= 0
    on every column u and beta . residual >= 1, stored as sparse integers
    (scaling keeps every sign) with tag ix: beta . r > 0 rules r out over
    these columns.
    """
    if any(tag <= ix and sum(b * residual[i] for i, b in ray) > 0 for tag, ray in rays):
        return None
    table = _delta_table(n)
    # Tuples built from lists, kept as given by `LinearSystem` (see `ratlp._row`).
    rows = [(tuple([(i, -v) for i, v in table[t]]), 0) for t in triples]
    rows.append((tuple([(i, r) for i, r in enumerate(residual) if r]), 1))
    res = solve_feasibility(LinearSystem(len(residual), inequalities=tuple(rows)))
    if res.feasible:
        rays.append((ix, tuple((i, b) for i, b in enumerate(res.scaled) if b)))
        return None
    *y, last = res.certificate.lam
    ensure(last == 1, "completion certificate has lam = 1 on the residual row")
    return y


class _Budget(Exception):
    """The wall-clock budget of an integral witness search ran out."""


def integral_witness_search(S, time_budget=None):
    """Exhaustive search for an integral witness multiset.

    Seeks a multiset T of pointed triples with sum of Delta over T equal
    to the signature of S and support not contained in S.  |T| = |S| is
    forced since every Delta_t has coordinate sum 1.  Branch and bound in
    lexicographic triple order with exact-LP relaxation pruning at every
    node; "not_found" is an exhaustive proof, "inconclusive" means the
    wall-clock budget (seconds) ran out; the budget is checked before
    each realizability round of the search's closure and at every node.
    A NaN or negative budget raises ValueError before any of them.

    The candidates are cl(S), in `_delta_table` order.  The closure's last
    pseudometric rho is tight exactly on cl(S), and any y >= 0 with
    sum y_u Delta_u = sum over S of Delta_s gives sum y_u (Delta_u . rho)
    = 0, so y_u = 0 off cl(S): no witness, integral or fractional, leaves
    cl(S), and a realizable S, its own closure, has none: no node is
    explored.  A candidate that no fractional completion uses with y_t >= 1
    stays in the tree; its branches with c >= 1 die at their first LP or
    stored ray.

    Every verified LP answer is reused (Benders feasibility cuts):

    - a Farkas ray found over the columns candidates[ix:] excludes, by
      one exact dot product, any residual at a node ix' >= ix, whose
      columns are a subset of those;
    - a node's solution y, less its entry for t = candidates[ix], solves
      the child that takes t exactly y_t times.

    A reused answer only skips an LP whose verdict it proves, so the tree
    and `nodes` are those of one LP per node.
    """
    # Every comparison with a NaN deadline is false, so NaN must not pass.
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time_budget must be non-negative, got {time_budget}")
    n = S.n
    target = triple_signature(S)
    m = len(S)
    deadline = math.inf if time_budget is None else time.monotonic() + time_budget
    deltas = _delta_table(n)
    rays = []  # (ix, ray): the ray holds over candidates[ix:]
    nodes = 0

    def recurse(ix, remaining, residual, chosen, solution=None):
        # `chosen`: the multiset so far, sorted since candidates are.
        # `solution`: a known completion of residual over candidates[ix:].
        nonlocal nodes
        nodes += 1
        if time.monotonic() >= deadline:
            raise _Budget
        if remaining == 0:
            if not any(residual) and not set(chosen) <= S.triples:
                return chosen
            return None
        if ix == len(candidates):
            return None
        if solution is None:
            solution = _completion(n, candidates[ix:], residual, rays, ix)
            if solution is None:
                return None
        t = candidates[ix]
        for c in range(remaining + 1):
            new_res = residual[:]
            for i, v in deltas[t]:
                new_res[i] -= c * v
            child = solution[1:] if solution[0] == c else None
            found = recurse(ix + 1, remaining - c, new_res, chosen + (t,) * c, child)
            if found is not None:
                return found
        return None

    try:
        within = _closure(S, deadline)[0]
        candidates = [t for t in deltas if t in within.triples]
        found = None if within is S else recurse(0, m, list(target), ())
    except _Budget:
        return SearchOutcome("inconclusive", nodes=nodes)
    finally:
        # recurse holds itself through its closure; dropping the name frees
        # the search state now instead of at the next cyclic collection.
        del recurse
    if found is not None:
        return SearchOutcome("found", multiset=found, nodes=nodes)
    return SearchOutcome("not_found", nodes=nodes)


def _betweenness_closure(S):
    """S closed under betweenness transitivity, and its first derivation.

    If c lies between a and b, and x between a and c, then x lies between
    a and b, and c between x and b: Delta_{a,b;c} + Delta_{a,c;x} =
    Delta_{a,b;x} + Delta_{x,b;c}, and all four are >= 0 at a pseudometric,
    so a pseudometric tight on the left pair is tight on the right pair.
    A worklist registers each triple in two indexes, the interior points
    of a pair and the far endpoints of a pair, then combines it with every
    registered triple in both roles.  Derived triples are the keys of
    `_delta_table`.  Returns (S, None) when S is closed, else the closure
    and the first derivation ((p, q), (t, u)) that adds a triple, whose
    parents are then in S.
    """
    n = S.n
    keys = _triple_keys(n)
    triples = set(S.triples)
    interior = {}  # (a, b), a < b -> the c with {a,b;c} in the set
    far = {}  # (a, c) -> the b with c between a and b
    work = list(S.triples)
    first = None

    def key(a, b, c):
        return keys[(a, b, c) if a < b else (b, a, c)]

    def add(a, b, c):
        t = keys[(a, b, c) if a < b else (b, a, c)]
        if t in triples:
            return False
        triples.add(t)
        work.append(t)
        return True

    while work:
        p = work.pop()
        a0, b0, c = p
        interior.setdefault((a0, b0), []).append(c)
        far.setdefault((a0, c), []).append(b0)
        far.setdefault((b0, c), []).append(a0)
        for a, b in ((a0, b0), (b0, a0)):
            # As the outer triple: c between a and b, x between a and c.
            for x in interior.get((a, c) if a < c else (c, a), ()):
                if x != b and (add(a, b, x) | add(x, b, c)) and first is None:
                    first = (p, key(a, c, x)), (key(a, b, x), key(x, b, c))
            # As the inner triple: c between a and b, b between a and y.
            for y in far.get((a, b), ()):
                if y != c and (add(a, y, c) | add(c, y, b)) and first is None:
                    first = (p, key(a, y, b)), (key(a, y, c), key(c, y, b))
    if first is None:
        return S, None
    return TripleSet(n, frozenset(triples)), first


def closure(S):
    """Smallest realizable triple set containing S: betweenness
    propagation, then repeated realizability.

    Before each realizability round the set is closed under betweenness
    transitivity (`_betweenness_closure`), which forces triples without
    an LP.  A No from the realizability LP carries a verified witness alpha,
    and every pseudometric tight on the set is tight on supp(alpha), which
    joins it.  The first Yes ends the loop: its pseudometric has slack on
    every other triple, so none is forced.  A closed S is returned itself.
    """
    return _closure(S, math.inf)[0]


def _closure(S, deadline):
    """`closure(S)` and the pseudometric of its last round, tight exactly
    on it; a round of propagation and realizability that would start at
    the monotonic time `deadline` or later raises `_Budget`."""
    current = S
    while True:
        if time.monotonic() >= deadline:
            raise _Budget
        current = _betweenness_closure(current)[0]
        res = _realize(current)
        if res.realizable:
            return current, res.metric
        current = TripleSet(S.n, current.triples.union(res.witness))

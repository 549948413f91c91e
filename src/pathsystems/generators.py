"""Constructive families of consistent path systems.

Diameter-2 systems on arbitrary graphs, matching-based systems in random
graphs, bipartite half-and-half systems, joins of a clique with an
anti-clique, and the monotone systems they host.  Every randomized
construction is seeded and certified through one path: `matching_weights`
(the bipartite family is its instance on K_{h,h}) redraws weight noise
until the induced geodesics are provably unique, checks the chosen paths
on the very system it certified, and returns the weights with that
system, so each accepted draw is induced once.  `gen_join` is
`gen_join_gamma` at gamma = 1/2.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass

from .core import Graph, PathSystem, pair
from .metrize import WeightFunction, induce_system
from .rational import Q, ensure

__all__ = [
    "MonotoneMatrix",
    "MatchingError",
    "gen_gnp",
    "enumerate_diam2",
    "perfect_matching",
    "admissible_pairs",
    "matching_weights",
    "gen_bipartite",
    "gen_join",
    "gen_join_gamma",
    "monotone_system",
    "enumerate_monotone",
]

# Weight classes of the matching constructions, verbatim as rationals.
W_MATCHED = Q(1)
W_CHOSEN = Q(11, 10)
W_OTHER = Q(12, 10)

# Noise is drawn from the grid {k/10^6 : 0 <= k <= 10^4}, i.e. [0, 1/100].
NOISE_DEN = 10**6
NOISE_MAX = 10**4
# Noise draws before a construction gives up on unique geodesics.
MAX_ATTEMPTS = 64


def _noise(rng):
    return Q(rng.randrange(NOISE_MAX + 1), NOISE_DEN)


def _sample_subsets(n, size, p, seed):
    """The `size`-subsets of [n] in lexicographic order, each kept with
    probability p by one exact draw from the stream of random.Random(seed).
    p is checked before any subset is drawn, so also when none is."""
    p = Q(p)
    if not 0 <= p <= 1:
        raise ValueError("probability must lie in [0, 1]")
    rng = random.Random(seed)
    subsets = itertools.combinations(range(1, n + 1), size)
    return [s for s in subsets if rng.randrange(p.denominator) < p.numerator]


def gen_gnp(n, p, seed):
    """Erdos-Renyi G(n, p): each pair is an edge independently with probability
    p, drawn by `_sample_subsets`, the sampler `vc.sample_lm` shares."""
    return Graph(n, _sample_subsets(n, 2, p, seed))


def enumerate_diam2(g):
    """All neighborly diameter-2 path systems of a graph.

    Edges are their own paths; every non-adjacent pair gets one common
    neighbor as midpoint.  Such a system is automatically consistent, so
    the total count is the product of the common-neighborhood sizes.
    Yields nothing when the graph is disconnected or its diameter exceeds
    2: some non-adjacent pair then has no common neighbor.
    """
    non_edges = sorted(g.non_edges())
    midpoint_sets = [sorted(g.neighbors(u) & g.neighbors(v)) for u, v in non_edges]
    if any(not s for s in midpoint_sets):
        return
    base = {e: e for e in g.edges}
    for combo in itertools.product(*midpoint_sets):
        paths = dict(base)
        for (u, v), z in zip(non_edges, combo):
            paths[(u, v)] = (u, z, v)
        yield PathSystem(g.n, paths)


class MatchingError(ValueError):
    pass


def perfect_matching(g, seed=0):
    """A perfect matching, or a loud failure.

    Greedy seeded pairing first; then Edmonds' blossom search grows an
    augmenting path from each vertex the greedy pass left exposed, in
    increasing order, so the result is exact and depends only on g and
    the seed.  Returns edges (x_i, y_i) with x_i < y_i, sorted by x_i.
    """
    if g.n % 2:
        raise MatchingError("odd number of vertices")
    rng = random.Random(seed)
    order = list(range(1, g.n + 1))
    rng.shuffle(order)
    matched = {}
    for v in order:
        if v in matched:
            continue
        for u in sorted(g.neighbors(v)):
            if u not in matched:
                matched[v] = u
                matched[u] = v
                break
    for v in range(1, g.n + 1):
        if v not in matched and not _augment(g, matched, v):
            raise MatchingError("graph has no perfect matching")
    return sorted(pair(v, matched[v]) for v in matched if v < matched[v])


def _augment(g, mate, root):
    """Edmonds' blossom search from the exposed vertex `root`.

    Grows an alternating tree from root breadth first, visiting neighbours
    in sorted order, and contracts each odd cycle it closes (a blossom)
    onto its base.  On reaching an exposed vertex it flips that augmenting
    path in `mate` and returns True.  False means no augmenting path
    starts at root, so some maximum matching leaves root exposed
    (J. Edmonds, Paths, trees, and flowers, Canad. J. Math. 17, 1965).
    """
    base = {v: v for v in range(1, g.n + 1)}
    parent = {}  # inner vertex -> the outer vertex that reached it
    outer = {root}
    queue = deque([root])

    def common_base(a, b):
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if a == root:
                break
            a = parent[mate[a]]
        while base[b] not in seen:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v, b, child, blossom):
        while base[v] != b:
            blossom |= {base[v], base[mate[v]]}
            parent[v] = child
            child = mate[v]
            v = parent[child]

    while queue:
        v = queue.popleft()
        for u in sorted(g.neighbors(v)):
            if base[u] == base[v] or mate.get(v) == u:
                continue
            if u == root or (u in mate and mate[u] in parent):
                b = common_base(v, u)
                blossom = set()
                mark(v, b, u, blossom)
                mark(u, b, v, blossom)
                for w in base:
                    if base[w] in blossom:
                        base[w] = b
                        if w not in outer:
                            outer.add(w)
                            queue.append(w)
            elif u not in parent:
                parent[u] = v
                if u not in mate:
                    while u is not None:
                        v = parent[u]
                        nxt = mate.get(v)
                        mate[u], mate[v] = v, u
                        u = nxt
                    return True
                outer.add(mate[u])
                queue.append(mate[u])
    return False


def admissible_pairs(g, matching):
    """Pairs {x_i, x_j} that are non-adjacent but cross-linked through M.

    Requires x_i x_j not an edge while both x_i y_j and x_j y_i are.
    """
    edge_set = set(matching)
    verts = set()
    for e in matching:
        if verts & set(e):
            raise MatchingError("matching edges are not disjoint")
        verts |= set(e)
    if not edge_set <= g.edges:
        raise MatchingError("matching uses non-edges")
    return [
        pair(xi, xj)
        for (xi, yi), (xj, yj) in itertools.combinations(matching, 2)
        if not g.has_edge(xi, xj) and g.has_edge(xi, yj) and g.has_edge(xj, yi)
    ]


def _certified_weights(g, classes, rng):
    """Add grid noise to per-edge base weights until geodesics are unique.

    Returns the weight function and the path system it induces.
    """
    for _ in range(MAX_ATTEMPTS):
        w = {e: classes[e] + _noise(rng) for e in sorted(g.edges)}
        wf = WeightFunction(g, w)
        res = induce_system(wf)
        if res.unique:
            return wf, res.system
    raise RuntimeError("could not certify unique geodesics within attempt budget")


def matching_weights(g, matching, choices, noise_seed):
    """Weights realizing one chosen 2-step M-path per admissible pair.

    `choices` maps each admissible pair {x_i, x_j} to its chosen midpoint,
    which must be y_i or y_j.  Matching edges weigh 1, non-matching edges
    on a chosen path 11/10, all others 12/10, each plus grid noise; fresh
    noise is drawn until the induced geodesics are certified unique, and
    every chosen path is checked to appear in that certified system.
    Returns the weight function and the certified system it induces.
    """
    adm = admissible_pairs(g, matching)
    if sorted(choices) != sorted(adm):
        raise ValueError("choices must cover exactly the admissible pairs")
    y_of = dict(matching)
    chosen_paths = []
    for (xi, xj), mid in choices.items():
        if mid not in (y_of[xi], y_of[xj]):
            raise ValueError(f"midpoint {mid} is not an M-partner of {xi} or {xj}")
        chosen_paths.append((xi, mid, xj))
    chosen_edges = set()
    for xi, mid, xj in chosen_paths:
        chosen_edges |= {pair(xi, mid), pair(mid, xj)}
    m_edges = set(matching)
    classes = {}
    for e in g.edges:
        if e in m_edges:
            classes[e] = W_MATCHED
        elif e in chosen_edges:
            classes[e] = W_CHOSEN
        else:
            classes[e] = W_OTHER
    wf, induced = _certified_weights(g, classes, random.Random(noise_seed))
    for xi, mid, xj in chosen_paths:
        path = (min(xi, xj), mid, max(xi, xj))
        ensure(induced.path(xi, xj) == path, "chosen path is the geodesic")
    return wf, induced


def gen_bipartite(half_n, choices, noise_seed):
    """Certified neighborly system on the balanced complete bipartite graph.

    Vertices x_i = i and y_i = half_n + i; the matching is x_i y_i, and
    every pair i < j is admissible.  `choices[(i, j)]`, either i or j,
    names the midpoint y_k of the chosen path x_i y_k x_j, which
    `matching_weights` makes the unique geodesic.  Returns the graph, the
    weights and the path system they induce, certified unique.
    """
    h = int(half_n)
    if h < 0:
        raise ValueError(f"half_n={half_n} is negative")
    g = Graph(2 * h, [(i, h + j) for i in range(1, h + 1) for j in range(1, h + 1)])
    matching = [(i, h + i) for i in range(1, h + 1)]
    midpoints = {p: h + k for p, k in choices.items()}
    return (g, *matching_weights(g, matching, midpoints, noise_seed))


def gen_join(n):
    """J_n = gen_join_gamma(2n, 1/2): anti-clique 1..n joined to a clique n+1..2n."""
    if n < 0:
        raise ValueError(f"n={n} is negative")
    return gen_join_gamma(2 * n, Q(1, 2))


def gen_join_gamma(n, gamma):
    """Join of an anti-clique of size floor(gamma*n) with a clique of the rest."""
    gamma = Q(gamma)
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie strictly between 0 and 1")
    a = int(gamma * n)  # floor for non-negative rationals
    edges = []
    for i in range(1, a + 1):
        for j in range(a + 1, n + 1):
            edges.append((i, j))
    for i in range(a + 1, n + 1):
        for j in range(i + 1, n + 1):
            edges.append((i, j))
    return Graph(n, edges)


@dataclass(frozen=True)
class MonotoneMatrix:
    """Symmetric midpoint matrix of a monotone system in the join graph.

    Entry (i, j), i != j, is the index k of the midpoint y_k on the path
    between x_i and x_j.  Rows are non-decreasing when the diagonal entry
    is skipped.  The diagonal is unused and stored as None, whatever was
    given there, so two matrices that differ only there are equal.
    """

    n: int
    rows: tuple

    def __post_init__(self):
        rows = [tuple(r) for r in self.rows]
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError("matrix must be n x n")
        rows = tuple(r[:i] + (None,) + r[i + 1 :] for i, r in enumerate(rows))
        object.__setattr__(self, "rows", rows)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if i != j and not (isinstance(v, int) and 1 <= v <= self.n):
                    raise ValueError(f"entry ({i+1},{j+1}) out of range 1..{self.n}")
        if rows != tuple(zip(*rows)):
            raise ValueError("matrix must be symmetric")
        for i, row in enumerate(rows):
            off = row[:i] + row[i + 1 :]
            if any(a > b for a, b in zip(off, off[1:])):
                raise ValueError(f"row {i+1} is not non-decreasing off the diagonal")

    def midpoint(self, i, j):
        return self.rows[i - 1][j - 1]


def monotone_system(m):
    """The neighborly diameter-2 system in J_n encoded by a monotone matrix."""
    n = m.n
    g = gen_join(n)
    paths = {e: e for e in g.edges}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            paths[(i, j)] = (i, n + m.midpoint(i, j), j)
    return PathSystem(2 * n, paths)


def enumerate_monotone(n):
    """All monotone midpoint matrices for J_n, lexicographic in the upper triangle.

    The upper triangle is filled row by row, so the entries before (i, j)
    in row i and before (j, i) in row j are already set; rows are
    non-decreasing, so the last of each bounds the entry from below.
    """
    if n < 0:
        raise ValueError(f"n={n} is negative")
    if n > 6:
        raise ValueError(f"n={n} exceeds the enumeration cap 6")
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    grid = [[None] * n for _ in range(n)]

    def fill(ix):
        if ix == len(cells):
            yield MonotoneMatrix(n, grid)
            return
        i, j = cells[ix]
        if i:
            lo = max(grid[i][j - 1 if j - 1 != i else i - 1], grid[j][i - 1])
        else:
            lo = grid[0][j - 1] if j > 1 else 1
        for v in range(lo, n + 1):
            grid[i][j] = grid[j][i] = v
            yield from fill(ix + 1)

    yield from fill(0)

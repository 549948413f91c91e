"""Graphs, simple paths, path systems, résumés and pointed triples.

Vertices are 1-based integers 1..n.  A path system designates exactly one
simple path per unordered vertex pair; consistency means the sub-path of
every path between two of its vertices is the member path of that pair,
so any two paths meet in at most a vertex or in a shared member path.  A
résumé losslessly encodes a consistent system by recording, for each
non-edge pair, one interior vertex of its path.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

__all__ = [
    "Graph",
    "PathSystem",
    "Resume",
    "TripleSet",
    "Consistency",
    "InconsistentSystemError",
    "ResumeRecoveryError",
    "pair",
    "all_pairs",
    "make_path",
    "path_edges",
    "path_interior",
    "pointed_triple",
    "all_pointed_triples",
    "is_consistent",
    "require_consistent",
    "is_neighborly",
    "diameter",
    "extract_resume",
    "all_resumes",
    "recover_from_resume",
    "colinear_triples",
]


def pair(u, v):
    """Canonical unordered pair (min, max)."""
    if u == v:
        raise ValueError(f"pair endpoints must differ, got {u},{v}")
    return (u, v) if u < v else (v, u)


@functools.lru_cache(maxsize=None)
def _pairs(n):
    return tuple((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1))


def all_pairs(n):
    """All unordered pairs of [n] in lexicographic order.

    The pair tuples are shared by every call with the same n, so the keys
    of every pseudometric on [n] are one set of objects.
    """
    return list(_pairs(n))


def _check_n(n):
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"vertex count {n!r} is not a non-negative integer")
    return n


def _check_vertex(v, n):
    if isinstance(v, bool) or not (isinstance(v, int) and 1 <= v <= n):
        raise ValueError(f"vertex {v!r} not in 1..{n}")


class Graph:
    """Simple undirected graph on vertices 1..n."""

    def __init__(self, n, edges):
        self.n = _check_n(n)
        canon = set()
        for u, v in edges:
            _check_vertex(u, self.n)
            _check_vertex(v, self.n)
            canon.add(pair(u, v))
        self.edges = frozenset(canon)
        self._adj = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            self._adj[u].add(v)
            self._adj[v].add(u)

    def has_edge(self, u, v):
        return pair(u, v) in self.edges

    def neighbors(self, v):
        return self._adj[v]

    def non_edges(self):
        return [p for p in all_pairs(self.n) if p not in self.edges]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def make_path(vertices, n=None):
    """Validated simple path as a canonical tuple.

    Orientation is normalized so the first endpoint is the smaller one;
    a path and its reversal are thereby equal as values.
    """
    p = tuple(vertices)
    if len(p) < 2:
        raise ValueError("a path has at least two vertices")
    if len(set(p)) != len(p):
        raise ValueError(f"path {p} is not simple")
    if n is not None:
        for v in p:
            _check_vertex(v, n)
    if p[0] > p[-1]:
        p = p[::-1]
    return p


def path_edges(p):
    """Set of unordered edges traversed by the path."""
    return {pair(p[i], p[i + 1]) for i in range(len(p) - 1)}


def path_interior(p):
    """Interior vertices of the path, in traversal order."""
    return p[1:-1]


def pointed_triple(a, b, c):
    """Pointed triple {a,b;c}: unordered pair {a,b} with point c."""
    if len({a, b, c}) != 3:
        raise ValueError(f"pointed triple needs three distinct vertices: {a},{b},{c}")
    a, b = pair(a, b)
    return (a, b, c)


def all_pointed_triples(n):
    """All 3*C(n,3) pointed triples over [n], lexicographic."""
    return [
        (a, b, c)
        for a, b in all_pairs(n)
        for c in range(1, n + 1)
        if c != a and c != b
    ]


class PathSystem:
    """One simple path per unordered pair of [n]."""

    def __init__(self, n, paths):
        self.n = _check_n(n)
        canon = {}
        if isinstance(paths, dict):
            items = paths.values()
        else:
            items = paths
        for p in items:
            p = make_path(p, self.n)
            key = pair(p[0], p[-1])
            if key in canon and canon[key] != p:
                raise ValueError(f"two different paths for pair {key}")
            canon[key] = p
        missing = self.n * (self.n - 1) // 2 - len(canon)
        if missing:  # name a few: listing every missing pair is an n^2 error
            pairs = itertools.combinations(range(1, self.n + 1), 2)
            shown = ", ".join(map(str, itertools.islice((p for p in pairs if p not in canon), 3)))
            more = ", ..." if missing > 3 else ""
            raise ValueError(f"no path for pairs {shown}{more} ({missing} missing)")
        self.paths = canon

    def path(self, u, v):
        return self.paths[pair(u, v)]

    def __eq__(self, other):
        return (
            isinstance(other, PathSystem)
            and self.n == other.n
            and self.paths == other.paths
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.paths.items()))))

    def __repr__(self):
        return f"PathSystem(n={self.n}, paths={[self.paths[p] for p in sorted(self.paths)]})"


@dataclass(frozen=True)
class Resume:
    """Partial map {u,v} -> interior vertex; encodes a path system.

    `entries` is a dict or a sequence of ((u, v), z) items; two different
    values for one unordered pair are refused.
    """

    n: int
    entries: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _check_n(self.n)
        canon = {}
        items = self.entries.items() if isinstance(self.entries, dict) else self.entries
        for (u, v), z in items:
            _check_vertex(u, self.n)
            _check_vertex(v, self.n)
            key = pair(u, v)
            _check_vertex(z, self.n)
            if z in key:
                raise ValueError(f"résumé value {z} coincides with an endpoint of {key}")
            if canon.setdefault(key, z) != z:
                raise ValueError(f"two different résumé values for pair {key}")
        object.__setattr__(self, "entries", tuple(sorted(canon.items())))

    def as_dict(self):
        return dict(self.entries)


@dataclass(frozen=True, slots=True)
class TripleSet:
    """Set of pointed triples over [n]."""

    n: int
    triples: frozenset = frozenset()

    def __post_init__(self):
        _check_n(self.n)
        canon = frozenset(pointed_triple(*t) for t in self.triples)
        for a, b, c in canon:
            _check_vertex(a, self.n)
            _check_vertex(b, self.n)
            _check_vertex(c, self.n)
        # A frozenset of canonical triples is kept as given, so a triple set
        # built from shared triples (a closure, say) does not copy them.
        if type(self.triples) is not frozenset or canon != self.triples:
            object.__setattr__(self, "triples", canon)

    def __contains__(self, t):
        return pointed_triple(*t) in self.triples

    def __len__(self):
        return len(self.triples)

    def __iter__(self):
        return iter(sorted(self.triples))


@dataclass(frozen=True)
class Consistency:
    ok: bool
    pair_a: tuple | None = None
    pair_b: tuple | None = None
    reason: str = ""

    def __bool__(self):
        return self.ok


def _subpath(p, a, b):
    """The sub-path of p between two of its vertices, canonically oriented."""
    i, j = sorted((p.index(a), p.index(b)))
    sub = p[i : j + 1]
    return sub if sub[0] < sub[-1] else sub[::-1]


def _concat(p, q, via):
    """Concatenate two paths sharing endpoint `via`; None if not simple."""
    if p[-1] != via:
        p = p[::-1]
    if q[0] != via:
        q = q[::-1]
    if p[-1] != via or q[0] != via:
        raise ValueError("paths do not share the given endpoint")
    joined = p + q[1:]
    if len(set(joined)) != len(joined):
        return None
    return make_path(joined)


def is_consistent(sys):
    """Decide consistency of a path system.

    The system is consistent when, at each interior vertex a of every path
    P_{u,v}, the paths P_{u,a} and P_{a,v} are its sub-paths on either side
    of a, that is, P_{u,v} is the concatenation P_{u,a} P_{a,v}.  Then every
    sub-path of a member path is a member path, so the paths are closed
    under intersection.  Pairs are walked in sorted order, so the reported
    violation does not depend on the order in which the paths were given.
    """
    for u, v in sorted(sys.paths):
        p = sys.paths[(u, v)]
        for a in path_interior(p):
            if sys.path(u, a) != _subpath(p, u, a) or sys.path(a, v) != _subpath(p, a, v):
                return Consistency(False, (u, v), pair(u, a), "concatenation check failed")
    return Consistency(True)


class InconsistentSystemError(ValueError):
    """Raised when an operation that needs a consistent system gets another.

    `verdict` is the failing `Consistency`, with the violating pairs.
    """

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(f"inconsistent path system: {verdict.reason}")


def require_consistent(sys):
    """Raise InconsistentSystemError unless the system is consistent."""
    verdict = is_consistent(sys)
    if not verdict:
        raise InconsistentSystemError(verdict)


def is_neighborly(sys, g):
    """True iff every edge of g is its own path and sys only uses g's edges."""
    if sys.n != g.n:
        raise ValueError("path system and graph have different vertex counts")
    for e in g.edges:
        if sys.paths[e] != e:
            return False
    for p in sys.paths.values():
        if not path_edges(p) <= g.edges:
            return False
    return True


def diameter(sys):
    """Largest path length (in edges) in the system; 0 when n <= 1."""
    return max((len(p) - 1 for p in sys.paths.values()), default=0)


def extract_resume(sys):
    """Canonical résumé: immediate successor of the smaller endpoint."""
    require_consistent(sys)
    entries = {}
    for (u, v), p in sys.paths.items():
        if len(p) > 2:
            # p is canonically oriented from min(u,v).
            entries[(u, v)] = p[1]
    return Resume(sys.n, tuple(entries.items()))


def all_resumes(sys):
    """The full set of résumés: one interior choice per long path."""
    require_consistent(sys)
    long_pairs = [k for k in sorted(sys.paths) if len(sys.paths[k]) > 2]
    total = 1
    for k in long_pairs:
        total *= len(sys.paths[k]) - 2
        if total > 10**6:
            raise ValueError("résumé count exceeds cap 1000000")
    choices = [path_interior(sys.paths[k]) for k in long_pairs]
    result = []
    for combo in itertools.product(*choices):
        result.append(Resume(sys.n, tuple(zip(long_pairs, combo))))
    return result


class ResumeRecoveryError(ValueError):
    """Raised when a résumé does not decode to a consistent system.

    kind is one of "unresolved_pair", "non_simple_concatenation",
    "inconsistent_result".
    """

    def __init__(self, kind, detail=""):
        self.kind = kind
        super().__init__(f"{kind}: {detail}" if detail else kind)


def recover_from_resume(f):
    """Decode a résumé into its path system.

    Pairs outside dom(f) become single edges, then exactly n rounds of
    concatenation P_{u,v} := P_{u,z} P_{z,v} with z = f(u,v) whenever
    both halves are already defined.
    """
    n = f.n
    dom = f.as_dict()
    paths = {}
    for p in all_pairs(n):
        if p not in dom:
            paths[p] = p
    for _ in range(n):
        for key in sorted(dom):
            if key in paths:
                continue
            u, v = key
            z = dom[key]
            left = paths.get(pair(u, z))
            right = paths.get(pair(z, v))
            if left is None or right is None:
                continue
            joined = _concat(left, right, z)
            if joined is None:
                raise ResumeRecoveryError(
                    "non_simple_concatenation", f"pair {key} via {z}"
                )
            paths[key] = joined
    unresolved = [p for p in all_pairs(n) if p not in paths]
    if unresolved:
        raise ResumeRecoveryError("unresolved_pair", f"pairs {unresolved}")
    sys = PathSystem(n, paths)
    check = is_consistent(sys)
    if not check:
        raise ResumeRecoveryError("inconsistent_result", check.reason)
    return sys


def colinear_triples(sys):
    """T(P): pointed triples {a,b;c} with c interior on P_{a,b}."""
    require_consistent(sys)
    triples = set()
    for (a, b), p in sys.paths.items():
        for c in path_interior(p):
            triples.add(pointed_triple(a, b, c))
    return TripleSet(sys.n, frozenset(triples))

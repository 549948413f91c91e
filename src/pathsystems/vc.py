"""Set systems, shattering, VC dimension, and maximum classes.

The vertex-set family of a consistent path system is an intersection-closed
maximum class of VC dimension 2; the same bound-meeting structure arises in
any dimension from random simplicial complexes by adjoining one compatible
extension per missing top face.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from .core import _check_n, _check_vertex, require_consistent
from .generators import _sample_subsets
from .rational import ensure

__all__ = [
    "SetSystem",
    "SimplicialComplex",
    "NoCompatibleExtension",
    "family_of_system",
    "shatters",
    "vc_dim",
    "is_maximum_class",
    "sauer_bound",
    "sample_lm",
    "compatible_vertices",
    "build_maximum_class",
]


def _check_subset(s, n):
    s = frozenset(s)
    for v in s:
        _check_vertex(v, n)
    return s


@dataclass(frozen=True)
class SetSystem:
    """A family of distinct subsets of [n]."""

    n: int
    sets: frozenset = frozenset()

    def __post_init__(self):
        _check_n(self.n)
        canon = frozenset(_check_subset(s, self.n) for s in self.sets)
        object.__setattr__(self, "sets", canon)

    def __contains__(self, s):
        return frozenset(s) in self.sets

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(sorted(self.sets, key=lambda s: (len(s), sorted(s))))


@dataclass(frozen=True)
class SimplicialComplex:
    """Full (k-1)-skeleton plus an explicit set of (k+1)-element top faces."""

    n: int
    k: int
    faces: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        _check_n(self.n)
        if self.k < 0:
            raise ValueError("dimension k must be non-negative")
        canon = set()
        for f in self.faces:
            f = _check_subset(f, self.n)
            if len(f) != self.k + 1:
                raise ValueError(f"explicit face {sorted(f)} has size != {self.k + 1}")
            canon.add(f)
        object.__setattr__(self, "faces", frozenset(canon))

    def all_faces(self):
        """Every face: all subsets of size <= k plus the explicit top faces."""
        verts = range(1, self.n + 1)
        for size in range(self.k + 1):
            for s in itertools.combinations(verts, size):
                yield frozenset(s)
        for f in sorted(self.faces, key=sorted):
            yield f


def family_of_system(sys):
    """The vertex sets of all paths, plus the singletons and the empty set."""
    require_consistent(sys)
    sets = {frozenset(p) for p in sys.paths.values()}
    sets |= {frozenset({v}) for v in range(1, sys.n + 1)}
    sets.add(frozenset())
    return SetSystem(sys.n, frozenset(sets))


def shatters(family, s):
    """Does the family trace the full power set on s?"""
    s = frozenset(s)
    traces = {s & f for f in family.sets}
    return len(traces) == 2 ** len(s)


def sauer_bound(n, d):
    """sum_{i=0}^{d} C(n, i)."""
    return sum(comb(n, i) for i in range(d + 1))


def vc_dim(family):
    """Largest size of a shattered subset, by ascending layers.

    If no s-set is shattered then no larger set is (shattering is closed
    under subsets), so the first empty layer is exact.  Shattering an
    s-set needs 2^s distinct traces, so layers beyond log2 |F| are moot.
    """
    if not family.sets:
        return -1
    n = family.n
    cap = min(n, len(family.sets).bit_length() - 1)
    dim = 0
    for size in range(1, cap + 1):
        if any(shatters(family, s) for s in itertools.combinations(range(1, n + 1), size)):
            dim = size
        else:
            break
    return dim


def is_maximum_class(family, d):
    """VC dimension exactly d and cardinality meeting the Sauer bound."""
    return len(family.sets) == sauer_bound(family.n, d) and vc_dim(family) == d


def sample_lm(n, k, p, seed):
    """A Linial-Meshulam complex Y_k(n, p).

    Each (k+1)-subset is kept independently with probability p by
    `generators._sample_subsets`, the sampler of `gen_gnp`; for k = 1 the
    faces are the G(n, p) edges of the same seed.
    """
    if k < 0:
        raise ValueError(f"dimension k={k} is negative")
    faces = frozenset(frozenset(s) for s in _sample_subsets(n, k + 1, p, seed))
    return SimplicialComplex(n, k, faces)


class NoCompatibleExtension(ValueError):
    """A non-face admits no compatible vertex; retry with a new seed."""

    def __init__(self, s):
        self.s = frozenset(s)
        super().__init__(f"no compatible vertex for non-face {sorted(self.s)}")


def compatible_vertices(y, s):
    """Vertices a with S u {a} \\ {x} a face of Y for every x in S.

    S must be a (k+1)-set missing from E(Y); for k = 1 these are the
    common neighbors of the two endpoints.
    """
    s = _check_subset(s, y.n)
    if len(s) != y.k + 1:
        raise ValueError(f"S must have {y.k + 1} elements")
    if s in y.faces:
        raise ValueError(f"{sorted(s)} is a face, not a candidate base")
    result = []
    for a in range(1, y.n + 1):
        if a in s:
            continue
        if all((s | {a}) - {x} in y.faces for x in s):
            result.append(a)
    return result


def extension_base(y, e):
    """The base of an extension: its unique (k+1)-subset missing from E(Y)."""
    e = frozenset(e)
    non_faces = [e - {a} for a in e if e - {a} not in y.faces]
    if len(non_faces) != 1:
        raise ValueError("extension does not decode to a unique base")
    return non_faces[0]


def build_maximum_class(y):
    """Faces of Y plus one compatible extension per missing top face.

    Each missing (k+1)-set s is extended by its smallest compatible vertex.
    The result has exactly sum_{i<=d} C(n, i) members with d = k+1 and VC
    dimension d, hence is a maximum class.  d > n raises ValueError: no
    family of subsets of [n] has VC dimension above n.
    """
    d = y.k + 1
    if d > y.n:
        raise ValueError(f"VC dimension d={d} exceeds n={y.n}")
    sets = set(y.all_faces())
    for s in itertools.combinations(range(1, y.n + 1), y.k + 1):
        s = frozenset(s)
        if s in y.faces:
            continue
        cands = compatible_vertices(y, s)
        if not cands:
            raise NoCompatibleExtension(s)
        ext = s | {cands[0]}
        ensure(extension_base(y, ext) == s, "extension base")
        sets.add(ext)
    family = SetSystem(y.n, frozenset(sets))
    ensure(len(family.sets) == sauer_bound(y.n, d), "family meets the Sauer bound")
    ensure(vc_dim(family) == d, "VC dimension")
    return family

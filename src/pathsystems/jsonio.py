"""Canonical JSON documents: a writer for every document the CLI prints,
and a loader for each one it reads (graphs, systems, résumés, triple
sets, witnesses, weights and set systems).

All arrays are emitted in a fixed sorted order so identical inputs yield
byte-identical documents.  Rationals travel as {"num", "den"} decimal
strings; TSV output renders them "num/den".  Triple sets and witnesses
accept an optional "label_base", 0 or 1 (default 1), on load: documents
with 0-based vertex labels are shifted to the internal 1-based convention.
Documents are always written 1-based.
"""

from __future__ import annotations

import json

from .core import Graph, PathSystem, Resume, TripleSet, pointed_triple
from .metrize import WeightFunction, WitnessAlpha
from .rational import parse_rational, rational_to_json
from .vc import SetSystem

__all__ = [
    "dumps",
    "graph_to_json",
    "graph_from_json",
    "system_to_json",
    "system_from_json",
    "resume_to_json",
    "resume_from_json",
    "tripleset_to_json",
    "tripleset_from_json",
    "witness_to_json",
    "witness_from_json",
    "pseudometric_to_json",
    "weights_to_json",
    "weights_from_json",
    "monotone_to_json",
    "setsystem_to_json",
    "setsystem_from_json",
    "complex_to_json",
]


def dumps(doc):
    """Byte-stable rendering: sorted keys, fixed separators, one newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def graph_to_json(g):
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json(doc):
    return Graph(doc["n"], [tuple(e) for e in doc["edges"]])


def system_to_json(sys):
    return {
        "n": sys.n,
        "paths": [{"vertices": list(sys.paths[k])} for k in sorted(sys.paths)],
    }


def system_from_json(doc):
    return PathSystem(doc["n"], [tuple(p["vertices"]) for p in doc["paths"]])


def resume_to_json(f):
    return {
        "n": f.n,
        "entries": [{"pair": list(p), "via": z} for p, z in f.entries],
    }


def resume_from_json(doc):
    return Resume(
        doc["n"], tuple((tuple(e["pair"]), e["via"]) for e in doc["entries"])
    )


def _label_offset(doc):
    """The shift from the document's "label_base" (0 or 1) to 1-based labels."""
    base = doc.get("label_base", 1)
    if type(base) is not int or base not in (0, 1):
        raise ValueError(f"label_base {base!r} is not 0 or 1")
    return 1 - base


def _triple_to_json(t):
    a, b, c = t
    return {"pair": [a, b], "point": c}


def _triple_from_json(doc, offset):
    """The pointed triple {"pair": [a, b], "point": c}, shifted by `offset`."""
    p = doc["pair"]
    if type(p) is not list or len(p) != 2:
        raise ValueError(f"pair {p!r} is not a list of two vertices")
    (a, b), c = p, doc["point"]
    # A bool plus an int offset is an int: refuse bools before the shift.
    for v in (a, b, c):
        if isinstance(v, bool):
            raise ValueError(f"vertex {v!r} is not an integer")
    return pointed_triple(a + offset, b + offset, c + offset)


def tripleset_to_json(ts):
    return {"n": ts.n, "triples": [_triple_to_json(t) for t in ts]}


def tripleset_from_json(doc):
    offset = _label_offset(doc)
    triples = frozenset(_triple_from_json(t, offset) for t in doc["triples"])
    return TripleSet(doc["n"], triples)


def witness_to_json(alpha):
    return {
        "alpha": [
            {"triple": _triple_to_json(t), **rational_to_json(alpha[t])}
            for t in sorted(alpha)
        ]
    }


def witness_from_json(doc):
    offset = _label_offset(doc)
    items = [
        (
            _triple_from_json(e["triple"], offset),
            parse_rational({"num": e["num"], "den": e["den"]}),
        )
        for e in doc["alpha"]
    ]
    return WitnessAlpha(items)


def pseudometric_to_json(rho):
    n = rho.n
    return {
        "n": n,
        "d": [
            [rational_to_json(rho.value(i, j)) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ],
    }


def weights_to_json(w):
    return {
        "graph": graph_to_json(w.graph),
        "weights": [
            {"edge": list(e), **rational_to_json(w.w[e])} for e in sorted(w.w)
        ],
    }


def weights_from_json(doc):
    g = graph_from_json(doc["graph"])
    # A list, not a dict: WeightFunction refuses two different weights for
    # one edge, which a dict would drop silently.
    w = [
        (tuple(e["edge"]), parse_rational({"num": e["num"], "den": e["den"]}))
        for e in doc["weights"]
    ]
    return WeightFunction(g, w)


def monotone_to_json(m):
    return {"n": m.n, "rows": [list(r) for r in m.rows]}


def setsystem_to_json(f):
    return {"n": f.n, "sets": [sorted(s) for s in f]}


def setsystem_from_json(doc):
    return SetSystem(doc["n"], frozenset(frozenset(s) for s in doc["sets"]))


def complex_to_json(y):
    return {"n": y.n, "k": y.k, "faces": sorted(sorted(f) for f in y.faces)}

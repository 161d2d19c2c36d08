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

The paper's surgery is kept as an independent route to the same class:
surgery_trace() (in `surgery`; imported here on first lookup, where the
benchmark's tracer wraps it) resolves the fundamental edges of a
spanning tree down to a loose tree whose class is known in closed form,
subtracting each edge's resolution difference.  The difference of xy
needs three neighborhood pieces only: with m common neighbors,
Delta = (L-1)*L^m + (L-1)^2*([glx] + [gly] - [g]) (see
resolution_difference()).  Each piece is a chart class *as embedded*,
which matters when two of its loose edges point at the same outside
vertex.
"""

from __future__ import annotations

from collections import Counter
from typing import AbstractSet, Iterable, Mapping

from . import _lazy
from .loosegraph import LooseGraph, LooseGraphError, _adjacency_sets, _components, is_loose_tree
from .polyring import L, Poly

# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def tree_class(t: LooseGraph) -> Poly:
    """Class of a connected loose tree from its degree spectrum.

    With n_i vertices of degree d_i > 1, I = (number of such vertices) - 1
    and E endpoints of degree 1, the class is sum n_i L^d_i - I*L + I + E.
    An isolated vertex is a single closed point and returns 1 (the formula
    itself is only meaningful for trees with at least one edge).
    """
    if not is_loose_tree(t):
        raise LooseGraphError(
            "tree_class(): not a loose tree (empty, disconnected, has a cycle or has free edges)"
        )
    nbrs, lm = t._neighbor_map, t._loose_counts
    return _tree_form([len(nbrs[v]) + lm.get(v, 0) for v in t.vertices])


def _tree_form(degrees: list[int]) -> Poly:
    """tree_class() from the full degrees of a loose tree's vertices."""
    if degrees == [0]:
        return Poly.one()
    inner = [d for d in degrees if d > 1]
    i = len(inner) - 1
    coeffs = [0] * (max(degrees) + 2)
    coeffs[0] = i + degrees.count(1)
    coeffs[1] = -i
    for d in inner:
        coeffs[d] += 1
    return Poly(coeffs)


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
    total = Poly.zero()
    for (size, c), n in census.items():
        total = total + n * (1 - L) ** (size - 1) * L**c
    return total


# ---------------------------------------------------------------------------
# Resolution differences
# ---------------------------------------------------------------------------


_Charts = dict[str, frozenset[str]]


def _edge_charts(
    adj: Mapping[str, Iterable[str]], x: str, y: str
) -> tuple[_Charts, _Charts, _Charts]:
    """Charts of the common neighbors of the edge xy, read from the two
    unit balls only; ``adj`` may hold neighbor sets or tuples.

    Returns ``(gl, glx, gly)``: each chart maps a common neighbor to its
    neighbors in the punctured union of the balls, in the x-ball minus y
    and in the y-ball minus x.
    """
    nx, ny = set(adj[x]), set(adj[y])
    ball_x = nx - {y}
    ball_y = ny - {x}
    ball = ball_x | ball_y
    common = sorted(nx & ny)
    gl: _Charts = {}
    glx: _Charts = {}
    gly: _Charts = {}
    for v in common:
        nv = adj[v]
        gl[v] = frozenset(ball.intersection(nv))
        glx[v] = frozenset(ball_x.intersection(nv))
        gly[v] = frozenset(ball_y.intersection(nv))
    return gl, glx, gly


_L_MINUS_1 = L - 1
_L_MINUS_1_SQUARED = _L_MINUS_1**2


def _difference(adj: Mapping[str, Iterable[str]], x: str, y: str) -> Poly:
    """The resolution difference of the edge xy of the reduced graph held
    in ``adj``; reads the two unit balls of the edge only."""
    gl, glx, gly = _edge_charts(adj, x, y)
    common = frozenset(gl)
    g = {v: s & common for v, s in gl.items()}
    brackets = chart_class(glx) + chart_class(gly) - chart_class(g)
    return _L_MINUS_1 * L ** len(common) + _L_MINUS_1_SQUARED * brackets


def resolution_difference(g: LooseGraph, edge: tuple[str, str]) -> Poly:
    """class(resolve(g, edge)) - class(g), from the edge neighborhood only.

    The paper writes it with eight embedded chart classes, L^2*[gl]
    - (L-1)*[glx] - (L-1)*[gly] - [C(gl,xy)] + [C(glx,xy)] - [C(glx,y)]
    + [C(gly,xy)] - [C(gly,x)], the first three summed over the components
    of gl.  With m common neighbors and [g] the chart class of the plain
    graph on them, this is

        (L-1)*L^m + (L-1)^2 * ([glx] + [gly] - [g]).

    Why: every clique of a cone is a clique S of the common neighbors plus
    a set T of tips.  The tips are tokens of every base chart, so the
    terms with T empty give L^2*[gl] in [C(gl,xy)], which cancels the
    first bracket, and L^2*[glx] - L*[glx] in the glx cones (likewise for
    gly).  A tip's chart holds the common neighbors and the other tip, so
    with T nonempty the tokens S shares are those of the plain graph g;
    over the five cones these terms sum to -(L-1)^2*[g].  The cliques of
    tips alone (S empty) leave (L-1)*L^m.  Chart classes add over
    components, so the per-component sums are the classes of the whole.
    """
    if not g.is_reduced():
        raise LooseGraphError("resolution_difference(): graph must be reduced first")
    x, y = edge
    if y not in g._neighbor_map.get(x, ()):
        raise LooseGraphError(f"resolution_difference(): {x!r}-{y!r} is not an edge")
    return _difference(g._neighbor_map, x, y)


# ---------------------------------------------------------------------------
# The class polynomial
# ---------------------------------------------------------------------------

# shared across callers and looked up once per call, on the input graph;
# inserts are idempotent (same key, same value), so concurrent use under
# the GIL is safe
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
    if g.is_empty():
        return Poly.zero()
    key = canonical_key(g)
    result = _memo.get(key)
    if result is None:
        result = _memo[key] = _census_class(g)
    return result


def _census_class(g: LooseGraph) -> Poly:
    """The clique census of the charts, added over connected pieces, with
    loose and free edges in closed form and every apex peeled first."""
    adj = _adjacency_sets(g)
    total = g.free * _L_MINUS_1  # each free edge is a multiplicative group
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


__getattr__ = _lazy(globals(), {"surgery": "SurgeryStep SurgeryTrace surgery_trace"})

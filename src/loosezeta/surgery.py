"""The paper's surgery, the independent route to class_polynomial(), and
the structural operations that only the tests and the benchmark's tracer
reach: induced subgraphs, vertex deletion, reduction, edge resolution,
components as graphs, spanning trees and edge neighborhoods.

surgery_trace() resolves the fundamental edges of a spanning tree down
to a loose tree of known class (tree_class()), subtracting each edge's
resolution difference.  With m common neighbors of the edge xy, that is
Delta = (L-1)*L^m + (L-1)^2*([glx] + [gly] - [g]) (resolution_difference()),
each piece a chart class *as embedded*, which matters when two of its
loose edges point at the same outside vertex.  chart_class() is looked
up on `grothendieck` at each call, where the benchmark's tracer wraps it.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from . import grothendieck
from .loosegraph import LooseGraph, LooseGraphError, _components, _norm_edge, is_loose_tree, value_class
from .polyring import L, Poly

# ---------------------------------------------------------------------------
# Loose trees
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
    return _tree_form(t)


def _tree_form(g: LooseGraph) -> Poly:
    """tree_class() of a loose tree with the full degrees of ``g``'s vertices,
    unchecked: resolving an edge keeps every full degree, so surgery_trace()
    reads its final tree's class off its input."""
    nbrs, lm = g._neighbor_map, g._loose_counts
    degrees = [len(nbrs[v]) + lm.get(v, 0) for v in g.vertices]
    if degrees == [0]:
        return Poly((1,))
    inner = [d for d in degrees if d > 1]
    i = len(inner) - 1
    coeffs = [0] * (max(degrees) + 2)
    coeffs[0] = i + degrees.count(1)
    coeffs[1] = -i
    for d in inner:
        coeffs[d] += 1
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def induced(g: LooseGraph, keep: Iterable[str]) -> LooseGraph:
    """Induced subgraph on a vertex subset; loose counts of kept vertices
    are retained, edges leaving the subset are dropped entirely."""
    ks = set(keep)
    if not ks.issubset(g._neighbor_map):
        raise LooseGraphError("induced(): unknown vertex in subset")
    return LooseGraph.build(
        [v for v in g.vertices if v in ks],
        [e for e in g.edges if e[0] in ks and e[1] in ks],
        {v: k for v, k in g.loose if v in ks},
        0,
    )


def delete_vertex(g: LooseGraph, v: str) -> LooseGraph:
    """Remove a vertex together with all incident (and loose) edges."""
    if v not in g._neighbor_map:
        raise LooseGraphError(f"no vertex {v!r}")
    rest = [w for w in g.vertices if w != v]
    return LooseGraph.build(rest, [e for e in g.edges if v not in e], [(w, k) for w, k in g.loose if w != v], g.free)


def reduce(g: LooseGraph) -> tuple[LooseGraph, Poly]:
    """Strip loose and free edges; return the reduced graph and the class
    correction sum(L^deg(v) - L^deg_reduced(v)) + free*(L - 1)."""
    corr = Poly(())
    for v, k in g.loose:
        d = g.degree(v)
        corr = corr + L**d - L ** (d - k)
    corr = corr + g.free * (L - 1)
    return LooseGraph.build(g.vertices, g.edges, (), 0), corr


def resolve(g: LooseGraph, edge: tuple[str, str]) -> LooseGraph:
    """Replace a 2-vertex edge by one loose edge at each former endpoint."""
    a, b = edge
    if b not in g._neighbor_map.get(a, ()):
        raise LooseGraphError(f"resolve(): {a!r}-{b!r} is not a 2-vertex edge of the graph")
    e = _norm_edge(a, b)
    lm = dict(g.loose)
    lm[a] = lm.get(a, 0) + 1
    lm[b] = lm.get(b, 0) + 1
    return LooseGraph.build(g.vertices, [f for f in g.edges if f != e], lm, g.free)


def connected_components(g: LooseGraph) -> list[LooseGraph]:
    """Partition into connected pieces, in one pass over the graph; each free
    edge is its own component.  A piece keeps the graph's vertex order."""
    parts = _components(g._neighbor_map, g.vertices)
    label = {v: i for i, part in enumerate(parts) for v in part}
    pieces: list[tuple[list, list, list]] = [([], [], []) for _ in parts]
    for v in g.vertices:
        pieces[label[v]][0].append(v)
    for a, b in g.edges:
        pieces[label[a]][1].append((a, b))
    for v, k in g.loose:
        pieces[label[v]][2].append((v, k))
    comps = [LooseGraph.build(*piece) for piece in pieces]
    comps.extend(LooseGraph.build((), (), (), 1) for _ in range(g.free))
    return comps


def _bfs_tree(g: LooseGraph) -> tuple[tuple[tuple[str, str], ...], list[tuple[str, str]]] | None:
    """The edges of the BFS tree of ``g`` and its fundamental edges, each in
    the order of ``g.edges``; None if ``g`` is empty, has a free edge or has a
    vertex the walk misses.  The root is the smallest label and neighbors are
    visited in label order, so the tree is a function of the labels."""
    if not g.vertices or g.free:
        return None
    adj, order = g._neighbor_map, [min(g.vertices)]
    seen, tree_edges = set(order), set()
    for v in order:  # grows while it is walked
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                tree_edges.add(_norm_edge(v, u))
                order.append(u)
    if len(order) < len(g.vertices):
        return None
    return tuple(e for e in g.edges if e in tree_edges), [e for e in g.edges if e not in tree_edges]


def spanning_tree(g: LooseGraph) -> tuple[LooseGraph, tuple[tuple[str, str], ...]]:
    """Spanning tree keeping all loose edges, plus the sorted fundamental
    edges.  The tree is the BFS tree from the smallest label with neighbors
    visited in label order, which is also the connectivity check;
    relabelling the input gives another tree."""
    walk = _bfs_tree(g)
    if walk is None:
        raise LooseGraphError("spanning_tree(): disconnected input" if g.vertices else "spanning_tree(): empty input")
    return LooseGraph(g.vertices, walk[0], g.loose, g.free), tuple(walk[1])


# ---------------------------------------------------------------------------
# Edge neighborhoods and resolution differences
# ---------------------------------------------------------------------------


def _reduced_edge(g: LooseGraph, edge: tuple[str, str], caller: str) -> tuple[str, str]:
    """The edge xy, checked to be an edge of the reduced graph g."""
    if g.loose or g.free:
        raise LooseGraphError(f"{caller}(): graph must be reduced first")
    x, y = edge
    if y not in g._neighbor_map.get(x, ()):
        raise LooseGraphError(f"{caller}(): {x!r}-{y!r} is not an edge")
    return x, y


_Charts = dict[str, frozenset[str]]


def _edge_charts(adj: Mapping[str, Iterable[str]], x: str, y: str) -> tuple[_Charts, _Charts]:
    """Charts of the common neighbors of the edge xy, read from the two
    unit balls only; ``adj`` may hold neighbor sets or tuples.

    Returns ``(glx, gly)``: each maps a common neighbor, in no set order,
    to its neighbors in the x-ball minus y and in the y-ball minus x.  The
    chart of gl, the punctured union of the balls, is ``glx[v] | gly[v]``.
    """
    nx, ny = set(adj[x]), set(adj[y])
    ball_x = nx - {y}
    ball_y = ny - {x}
    glx: _Charts = {}
    gly: _Charts = {}
    for v in nx & ny:
        nv = adj[v]
        glx[v] = frozenset(ball_x.intersection(nv))
        gly[v] = frozenset(ball_y.intersection(nv))
    return glx, gly


_L_MINUS_1 = L - 1
_L_MINUS_1_SQUARED = _L_MINUS_1**2


def _difference(adj: Mapping[str, Iterable[str]], x: str, y: str) -> Poly:
    """The resolution difference of the edge xy of the reduced graph held
    in ``adj``, from the two edge charts only: a common neighbor's chart in
    the plain graph g is the tokens its two charts share, and m counts them."""
    if set(adj[x]).isdisjoint(adj[y]):  # m = 0: each bracket is the class of no chart
        return _L_MINUS_1
    glx, gly = _edge_charts(adj, x, y)
    g = {v: s & gly[v] for v, s in glx.items()}
    brackets = grothendieck.chart_class(glx) + grothendieck.chart_class(gly) - grothendieck.chart_class(g)
    return _L_MINUS_1 * L ** len(glx) + _L_MINUS_1_SQUARED * brackets


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
    x, y = _reduced_edge(g, edge, "resolution_difference")
    return _difference(g._neighbor_map, x, y)


@value_class
class NeighborhoodData:
    """The auxiliary loose graphs around an edge xy of a reduced graph.

    ``g`` is the plain graph on the common neighbors.  ``gl``, ``glx``,
    ``gly`` are the loose graphs on the common neighbors whose loose edges
    stand for edges leaving the common-neighbor set into the punctured
    union of unit balls, the x-ball, the y-ball respectively; the
    ``charts_*`` mappings record where each such edge actually points,
    which the class computations need.  ``components`` partitions the
    common neighbors into the connected components of ``gl``.
    """

    x: str
    y: str
    g: LooseGraph
    gl: LooseGraph
    glx: LooseGraph
    gly: LooseGraph
    components: tuple[tuple[str, ...], ...]
    charts_gl: tuple[tuple[str, frozenset[str]], ...]
    charts_glx: tuple[tuple[str, frozenset[str]], ...]
    charts_gly: tuple[tuple[str, frozenset[str]], ...]


def _loose_view(common: list[str], charts: dict[str, frozenset[str]]) -> LooseGraph:
    cset = set(common)
    edges = [(u, v) for u in common for v in charts[u] if v in cset and u < v]
    loose = {v: len(charts[v] - cset) for v in common}
    return LooseGraph.build(sorted(common), edges, loose)


def neighborhood(g: LooseGraph, edge: tuple[str, str]) -> NeighborhoodData:
    """Extract the surgery neighborhood of a 2-vertex edge.

    The input must be reduced; the computation that uses this data
    reduces first, so loose edges of the ambient graph never appear here.
    """
    x, y = _reduced_edge(g, edge, "neighborhood")
    charts_glx, charts_gly = _edge_charts(g._neighbor_map, x, y)
    charts_gl = {v: s | charts_gly[v] for v, s in charts_glx.items()}
    common = sorted(charts_gl)
    cset = set(common)
    inner = {v: charts_gl[v] & cset for v in common}
    comps = _components(inner, common)
    return NeighborhoodData(
        x=x,
        y=y,
        g=_loose_view(common, inner),
        gl=_loose_view(common, charts_gl),
        glx=_loose_view(common, charts_glx),
        gly=_loose_view(common, charts_gly),
        components=tuple(tuple(sorted(c)) for c in comps),
        charts_gl=tuple(sorted(charts_gl.items())),
        charts_glx=tuple(sorted(charts_glx.items())),
        charts_gly=tuple(sorted(charts_gly.items())),
    )


# ---------------------------------------------------------------------------
# Surgery traces
# ---------------------------------------------------------------------------


@value_class
class SurgeryStep:
    """One unresolve step: the edge whose resolution leads a stage back
    toward the tree, the difference delta = class(resolved) - class(graph
    before), and the running class."""

    resolved_edge: tuple[str, str]
    delta: Poly
    running_class: Poly


@value_class
class SurgeryTrace:
    """Full surgery bookkeeping from the loose spanning tree back to the
    input graph; running classes satisfy running_i = running_{i-1} - delta_i
    with running_0 the tree class and the last running the graph's class."""

    steps: tuple[SurgeryStep, ...]
    final_tree: LooseGraph
    final_tree_class: Poly

    @property
    def result_class(self) -> Poly:
        return self.steps[-1].running_class if self.steps else self.final_tree_class

    def graph_before(self, i: int) -> LooseGraph:
        """The final tree with the edges of steps 0..i restored, built on each call, for 0 <= i < len(steps)."""
        if i not in range(len(self.steps)):
            raise IndexError(f"graph_before(): no step {i} in a trace of {len(self.steps)} steps")
        t, restored = self.final_tree, [step.resolved_edge for step in self.steps[: i + 1]]
        loose = Counter(t._loose_counts) - Counter(v for e in restored for v in e)
        return LooseGraph.build(t.vertices, t.edges + tuple(restored), loose, t.free)


def surgery_trace(g: LooseGraph) -> SurgeryTrace:
    """The paper's surgery on the fundamental edges of the spanning tree
    of spanning_tree(), in unresolve order like a worked table.  Its BFS is
    the connectivity check, and a vertex gets its own neighbor set to delete
    from at its first deletion.  Its one graph, the final tree, takes its
    fields unchecked from the input, which was checked when it was built.
    Relabelling the input gives another tree."""
    walk = _bfs_tree(g)
    if walk is None:
        raise LooseGraphError("surgery_trace(): connected input required")
    tree_edges, fundamental = walk
    tree_value = _tree_form(g)
    adj = dict(g._neighbor_map)
    deltas = []
    for x, y in fundamental:  # resolve each edge: Delta, then delete it
        deltas.append(_difference(adj, x, y))
        for a, b in ((x, y), (y, x)):
            adj[a] = ends = adj[a] if adj[a].__class__ is set else set(adj[a])
            ends.discard(b)
    del adj  # lowers the peak: the tree is built without the neighbor sets
    loose = Counter(g._loose_counts) + Counter(v for e in fundamental for v in e)
    steps: list[SurgeryStep] = []
    running = tree_value
    for e, delta in zip(reversed(fundamental), reversed(deltas)):
        running = running - delta
        steps.append(SurgeryStep(e, delta, running))
    tree = LooseGraph(g.vertices, tree_edges, tuple(sorted(loose.items())), g.free)
    return SurgeryTrace(tuple(steps), tree, tree_value)

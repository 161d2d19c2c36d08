"""Loose graphs: data model, text format, generators and structural algorithms.

A loose graph is an undirected loopless graph whose edges may have two,
one ("loose edge") or zero ("free edge") endpoints.  Loose edges are
interchangeable and stored as per-vertex counts; free edges as a single
count.  All values are immutable; every operation returns a new graph.  A
graph derives its neighbor map and loose counts once, on first use.
"""

from __future__ import annotations

import re
from bisect import bisect
from collections import Counter
from functools import cached_property
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .polyring import L, Poly

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class LooseGraphError(ValueError):
    """Structural error: loops, duplicate edges, undeclared vertices, ..."""


class ParseError(LooseGraphError):
    """Malformed `.lg` text; carries a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class GenerateError(LooseGraphError):
    """Unknown family or invalid parameters passed to generate()."""


def _norm_edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def value_class(cls: type) -> type:
    """Make ``cls`` an immutable value whose fields are its annotated names,
    with class attributes as defaults.  It gets a positional and keyword
    ``__init__``, ``__eq__`` and ``__hash__`` over the fields (same class only)
    and ``__repr__``; setting or deleting an attribute raises AttributeError.
    Instances keep a ``__dict__``, where ``cached_property`` stores values."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    key = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args) :]):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)} once each")
        if len(values) < len(names):
            raise TypeError(f"{cls.__name__}() missing {', '.join(n for n in names if n not in values)}")
        self.__dict__.update(values)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


@value_class
class LooseGraph:
    """Immutable loose graph.

    vertices: labels in declaration order (first-mention order for parsed
    graphs).  edges: canonical sorted pairs.  loose: (vertex, count) pairs
    sorted by vertex with positive counts.  free: number of free edges.
    """

    vertices: tuple[str, ...] = ()
    edges: tuple[tuple[str, str], ...] = ()
    loose: tuple[tuple[str, int], ...] = ()
    free: int = 0

    @classmethod
    def build(
        cls,
        vertices: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
        loose: Mapping[str, int] | Iterable[tuple[str, int]] = (),
        free: int = 0,
    ) -> "LooseGraph":
        """Validate and normalize; the only sanctioned constructor."""
        vs = list(vertices)
        vset = set(vs)
        if len(vs) != len(vset):
            raise LooseGraphError("duplicate vertex label")
        for v in vs:
            if not _NAME_RE.match(v):
                raise LooseGraphError(f"invalid vertex name {v!r}")
        eset: set[tuple[str, str]] = set()
        for a, b in edges:
            if a == b:
                raise LooseGraphError(f"loop at vertex {a!r}")
            if a not in vset or b not in vset:
                raise LooseGraphError(f"edge {a!r}-{b!r} uses an undeclared vertex")
            e = _norm_edge(a, b)
            if e in eset:
                raise LooseGraphError(f"duplicate edge {a!r}-{b!r}")
            eset.add(e)
        loose_items = loose.items() if isinstance(loose, Mapping) else loose
        lmap: dict[str, int] = {}
        for v, k in loose_items:
            if v not in vset:
                raise LooseGraphError(f"loose edge at undeclared vertex {v!r}")
            if k < 0:
                raise LooseGraphError("negative loose-edge count")
            if k:
                lmap[v] = lmap.get(v, 0) + k
        if free < 0:
            raise LooseGraphError("negative free-edge count")
        return cls(tuple(vs), tuple(sorted(eset)), tuple(sorted(lmap.items())), free)

    # -- queries -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    @cached_property
    def _neighbor_map(self) -> dict[str, tuple[str, ...]]:
        """Sorted neighbor tuples, derived once on first use; never mutated."""
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @cached_property
    def _loose_counts(self) -> dict[str, int]:
        """Loose-edge count per vertex that has any; never mutated."""
        return dict(self.loose)

    def adjacency(self) -> dict[str, list[str]]:
        """Neighbor lists in sorted order."""
        return {v: list(ns) for v, ns in self._neighbor_map.items()}

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return self._neighbor_map[v]
        except KeyError:
            raise LooseGraphError(f"no vertex {v!r}") from None

    def graph_degree(self, v: str) -> int:
        """Number of incident 2-vertex edges."""
        return len(self.neighbors(v))

    def loose_count(self, v: str) -> int:
        return self._loose_counts.get(v, 0)

    def degree(self, v: str) -> int:
        """Full degree: 2-vertex edges plus loose edges at v."""
        return self.graph_degree(v) + self.loose_count(v)

    def is_reduced(self) -> bool:
        return not self.loose and self.free == 0

    def is_empty(self) -> bool:
        return not self.vertices and self.free == 0


# ---------------------------------------------------------------------------
# `.lg` text format
# ---------------------------------------------------------------------------


def parse(text: str, strict: bool = False) -> LooseGraph:
    """Parse the line-based `.lg` format.

    Lines: ``# comment``, ``vertex NAME``, ``edge A B``, ``loose A``,
    ``free``.  Vertex order is first-mention order.  In strict mode a
    vertex must be declared before use in an edge/loose line.
    """
    vertices: list[str] = []
    vset: set[str] = set()
    implicit: set[str] = set()  # first met in an edge or loose line
    edges: list[tuple[str, str]] = []
    eset: set[tuple[str, str]] = set()
    loose: dict[str, int] = {}
    free = 0

    def mention(name: str, lineno: int) -> None:
        if name not in vset:  # a name already in vset has passed the check
            if not _NAME_RE.match(name):
                raise ParseError(lineno, f"invalid name {name!r}")
            if strict:
                raise ParseError(lineno, f"undeclared vertex {name!r} (strict mode)")
            vset.add(name)
            implicit.add(name)
            vertices.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "vertex":
            if len(args) != 1:
                raise ParseError(lineno, "vertex takes exactly one name")
            name = args[0]
            if not _NAME_RE.match(name):
                raise ParseError(lineno, f"invalid name {name!r}")
            if name in vset:
                again = "after its first use" if name in implicit else "twice"
                raise ParseError(lineno, f"vertex {name!r} declared {again}")
            vset.add(name)
            vertices.append(name)
        elif kind == "edge":
            if len(args) != 2:
                raise ParseError(lineno, "edge takes exactly two names")
            a, b = args
            if a == b:
                raise ParseError(lineno, f"loop at vertex {a!r}")
            mention(a, lineno)
            mention(b, lineno)
            e = _norm_edge(a, b)
            if e in eset:
                raise ParseError(lineno, f"duplicate edge {a} {b}")
            eset.add(e)
            edges.append(e)
        elif kind == "loose":
            if len(args) != 1:
                raise ParseError(lineno, "loose takes exactly one name")
            mention(args[0], lineno)
            loose[args[0]] = loose.get(args[0], 0) + 1
        elif kind == "free":
            if args:
                raise ParseError(lineno, "free takes no arguments")
            free += 1
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    return LooseGraph.build(vertices, edges, loose, free)


def serialize(g: LooseGraph) -> str:
    """Canonical `.lg` text: vertices sorted, then edges sorted."""
    return next(serialize_restoring(g, ()))


def serialize_restoring(g: LooseGraph, restored: Iterable[tuple[str, str]]) -> Iterator[str]:
    """Yield serialize() of ``g``, then of ``g`` with each edge of ``restored``
    put back in turn and one loose edge taken from each of its endpoints;
    each text is updated from the one before, with no graph built.  Every
    restored edge must be new and have a loose edge at each endpoint."""
    head, tail = "".join(f"vertex {v}\n" for v in sorted(g.vertices)), "free\n" * g.free
    edges = sorted(g.edges)
    edge_lines = [f"edge {a} {b}\n" for a, b in edges]
    loose = dict(g._loose_counts)  # sorted by vertex, as build() keeps it
    loose_lines = {v: f"loose {v}\n" * k for v, k in loose.items()}
    yield head + "".join(edge_lines) + "".join(loose_lines.values()) + tail
    for a, b in restored:
        e = _norm_edge(a, b)
        i = bisect(edges, e)
        edges.insert(i, e)
        edge_lines.insert(i, f"edge {e[0]} {e[1]}\n")
        for v in e:
            loose[v] -= 1
            loose_lines[v] = f"loose {v}\n" * loose[v]
        yield head + "".join(edge_lines) + "".join(loose_lines.values()) + tail


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _labels(n: int) -> list[str]:
    return [f"v{i}" for i in range(1, n + 1)]


def generate(family: str, *params: int) -> LooseGraph:
    """Built-in families: complete n, star n k, path n, cycle n, affine n,
    projective n, johnson n k, hexahedron."""

    def need(k: int) -> None:
        if len(params) != k:
            raise GenerateError(f"{family} takes {k} parameter(s), got {len(params)}")

    if family == "complete":
        need(1)
        (n,) = params
        if n < 1:
            raise GenerateError("complete needs n >= 1")
        vs = _labels(n)
        return LooseGraph.build(vs, list(combinations(vs, 2)))
    if family == "projective":
        need(1)
        (n,) = params
        if n < 0:
            raise GenerateError("projective needs n >= 0")
        return generate("complete", n + 1)
    if family == "star":
        need(2)
        n, k = params
        if n < 1:
            raise GenerateError("star needs n >= 1")
        if not 0 <= k <= n:
            raise GenerateError("star needs 0 <= k <= n")
        center = "v0"
        ends = _labels(k)
        return LooseGraph.build([center] + ends, [(center, e) for e in ends], {center: n - k})
    if family == "affine":
        need(1)
        (n,) = params
        if n < 0:
            raise GenerateError("affine needs n >= 0")
        return LooseGraph.build(["o"], (), {"o": n})
    if family == "path":
        need(1)
        (n,) = params
        if n < 1:
            raise GenerateError("path needs n >= 1")
        vs = _labels(n)
        return LooseGraph.build(vs, list(zip(vs, vs[1:])))
    if family == "cycle":
        need(1)
        (n,) = params
        if n < 3:
            raise GenerateError("cycle needs n >= 3")
        vs = _labels(n)
        return LooseGraph.build(vs, list(zip(vs, vs[1:])) + [(vs[-1], vs[0])])
    if family == "johnson":
        need(2)
        n, k = params
        if not 1 <= k <= n:
            raise GenerateError("johnson needs 1 <= k <= n")
        width = len(str(n))  # zero-padded elements keep the labels distinct
        subsets = list(combinations(range(1, n + 1), k))
        label = {s: "s" + "".join(f"{i:0{width}}" for i in s) for s in subsets}
        swaps = ((s, i, j) for s in subsets for i in s for j in range(i + 1, n + 1) if j not in s)
        edges = [(label[s], label[tuple(sorted({*s, j} - {i}))]) for s, i, j in swaps]
        return LooseGraph.build([label[s] for s in subsets], edges)
    if family == "hexahedron":
        need(0)
        vs = [format(i, "03b") for i in range(8)]
        edges = [(a, b) for a, b in combinations(vs, 2) if sum(x != y for x, y in zip(a, b)) == 1]
        return LooseGraph.build(vs, edges)
    raise GenerateError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Structural algorithms
# ---------------------------------------------------------------------------


def induced(g: LooseGraph, keep: Iterable[str]) -> LooseGraph:
    """Induced subgraph on a vertex subset; loose counts of kept vertices
    are retained, edges leaving the subset are dropped entirely."""
    ks = set(keep)
    if not ks <= g.vertex_set():
        raise LooseGraphError("induced(): unknown vertex in subset")
    return LooseGraph.build(
        [v for v in g.vertices if v in ks],
        [e for e in g.edges if e[0] in ks and e[1] in ks],
        {v: k for v, k in g.loose if v in ks},
        0,
    )


def delete_vertex(g: LooseGraph, v: str) -> LooseGraph:
    """Remove a vertex together with all incident (and loose) edges."""
    if v not in g.vertex_set():
        raise LooseGraphError(f"no vertex {v!r}")
    rest = [w for w in g.vertices if w != v]
    sub = induced(g, rest)
    return LooseGraph.build(sub.vertices, sub.edges, sub.loose, g.free)


def reduce(g: LooseGraph) -> tuple[LooseGraph, Poly]:
    """Strip loose and free edges; return the reduced graph and the class
    correction sum(L^deg(v) - L^deg_reduced(v)) + free*(L - 1)."""
    corr = Poly.zero()
    for v, k in g.loose:
        d = g.degree(v)
        corr = corr + L**d - L ** (d - k)
    corr = corr + g.free * (L - 1)
    return LooseGraph.build(g.vertices, g.edges, (), 0), corr


def resolve(g: LooseGraph, edge: tuple[str, str]) -> LooseGraph:
    """Replace a 2-vertex edge by one loose edge at each former endpoint."""
    a, b = edge
    e = _norm_edge(a, b)
    if e not in g.edge_set():
        raise LooseGraphError(f"resolve(): {a!r}-{b!r} is not a 2-vertex edge of the graph")
    lm = dict(g.loose)
    lm[a] = lm.get(a, 0) + 1
    lm[b] = lm.get(b, 0) + 1
    return LooseGraph.build(g.vertices, [f for f in g.edges if f != e], lm, g.free)


def _components(adj: Mapping[str, Iterable[str]], vertices: Iterable[str]) -> list[list[str]]:
    """Vertex lists of the connected pieces of ``vertices``, in the order
    their first vertex appears; ``adj`` must reach no other vertex."""
    seen: set[str] = set()
    parts: list[list[str]] = []
    for v in vertices:
        if v in seen:
            continue
        seen.add(v)
        part = [v]
        for w in part:  # grows while it is walked
            for u in adj[w]:
                if u not in seen:
                    seen.add(u)
                    part.append(u)
        parts.append(part)
    return parts


def _adjacency_sets(g: LooseGraph) -> dict[str, set[str]]:
    """Mutable neighbor sets: the class census peels apexes off them and
    the surgery trace deletes its resolved edges from them."""
    return {v: set(ns) for v, ns in g._neighbor_map.items()}


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


def is_connected(g: LooseGraph) -> bool:
    return len(_components(g._neighbor_map, g.vertices)) + g.free == 1


def is_loose_tree(g: LooseGraph) -> bool:
    """Connected loose graph whose reduced graph is acyclic; no free edges."""
    if g.free or not g.vertices:
        return False
    return is_connected(g) and g.n_edges == g.n_vertices - 1


@value_class
class TreeProfile:
    """Degree bookkeeping of a loose tree: counts of degrees > 1, the inner
    count I = (#inner vertices) - 1 and the number E of degree-1 vertices."""

    degree_counts: tuple[tuple[int, int], ...]
    inner_minus_one: int
    endpoints: int


def tree_profile(t: LooseGraph) -> TreeProfile:
    if not is_loose_tree(t):
        raise LooseGraphError("tree_profile() needs a connected loose tree")
    degrees = [t.degree(v) for v in t.vertices]
    counts = Counter(d for d in degrees if d > 1)
    inner = sum(counts.values())
    return TreeProfile(tuple(sorted(counts.items())), inner - 1, degrees.count(1))


def _bfs_tree(
    adj: Mapping[str, Iterable[str]], vertices: tuple[str, ...]
) -> tuple[set[tuple[str, str]], list[tuple[str, str]]]:
    """Tree edges and sorted fundamental edges of the BFS tree of a
    connected piece: the root is the smallest label and neighbors are
    visited in label order, so the tree is a function of the labels."""
    root = min(vertices)
    tree_edges: set[tuple[str, str]] = set()
    seen = {root}
    order = [root]
    for v in order:  # grows while it is walked
        for u in sorted(adj[v]):
            if u not in seen:
                seen.add(u)
                tree_edges.add(_norm_edge(v, u))
                order.append(u)
    edges = ((v, u) for v in vertices for u in adj[v] if v < u)
    return tree_edges, sorted(e for e in edges if e not in tree_edges)


def spanning_tree(g: LooseGraph) -> tuple[LooseGraph, tuple[tuple[str, str], ...]]:
    """Spanning tree keeping all loose edges, plus the sorted fundamental
    edges.  The tree is the BFS tree from the smallest label with neighbors
    visited in label order; relabelling the input gives another tree."""
    if not g.vertices:
        raise LooseGraphError("spanning_tree(): empty input")
    if not is_connected(g):
        raise LooseGraphError("spanning_tree(): disconnected input")
    tree_edges, fundamental = _bfs_tree(g._neighbor_map, g.vertices)
    tree = LooseGraph.build(g.vertices, sorted(tree_edges), g.loose, g.free)
    return tree, tuple(fundamental)


# ---------------------------------------------------------------------------
# Edge neighborhoods for surgery
# ---------------------------------------------------------------------------


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


def neighborhood(g: LooseGraph, edge: tuple[str, str]) -> NeighborhoodData:
    """Extract the surgery neighborhood of a 2-vertex edge.

    The input must be reduced; the computation that uses this data
    reduces first, so loose edges of the ambient graph never appear here.
    """
    if not g.is_reduced():
        raise LooseGraphError("neighborhood(): graph must be reduced first")
    x, y = edge
    if y not in g._neighbor_map.get(x, ()):
        raise LooseGraphError(f"neighborhood(): {x!r}-{y!r} is not an edge")
    charts_gl, charts_glx, charts_gly = _edge_charts(g._neighbor_map, x, y)
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


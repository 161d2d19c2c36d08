"""Input graphs for the benchmark, and the independent checks on outputs.

Everything here is standard library only and shares no code with
loosezeta: the generators write `.lg` text, the point counter and the
integer determinants re-derive the engine's answers by other routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from random import Random


@dataclass
class Graph:
    """A loose graph as plain data: labelled vertices, 2-vertex edges,
    loose-edge counts per vertex and a number of free edges."""

    vertices: list[str]
    edges: list[tuple[str, str]]
    loose: dict[str, int] = field(default_factory=dict)
    free: int = 0

    def neighbors(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def grid(a: int, b: int) -> Graph:
    """The a x b lattice graph."""
    name = {(i, j): f"g{i}_{j}" for i in range(a) for j in range(b)}
    edges = [(name[i, j], name[i + 1, j]) for i in range(a - 1) for j in range(b)]
    edges += [(name[i, j], name[i, j + 1]) for i in range(a) for j in range(b - 1)]
    return Graph(list(name.values()), edges)


def complete(n: int) -> Graph:
    vs = [f"k{i}" for i in range(n)]
    return Graph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]])


def cocktail(k: int) -> Graph:
    """K_{2k} minus a perfect matching."""
    vs = [f"c{i}" for i in range(2 * k)]
    return Graph(vs, [(vs[i], vs[j]) for i in range(2 * k) for j in range(i + 1, 2 * k) if j != i + k])


def johnson(n: int, k: int) -> Graph:
    """k-subsets of n points, adjacent when they share k - 1 points."""
    subsets = [s for s in product(range(2), repeat=n) if sum(s) == k]
    label = {s: "j" + "".join(map(str, s)) for s in subsets}
    edges = [
        (label[s], label[t])
        for i, s in enumerate(subsets)
        for t in subsets[i + 1 :]
        if sum(x & y for x, y in zip(s, t)) == k - 1
    ]
    return Graph([label[s] for s in subsets], edges)


def circulant(n: int, *jumps: int) -> Graph:
    """Vertices 0..n-1, i adjacent to i +- j (mod n) for each jump j."""
    vs = [f"z{i}" for i in range(n)]
    edges = sorted({tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})
    return Graph(vs, [(vs[a], vs[b]) for a, b in edges])


def multipartite(*parts: int) -> Graph:
    """Complete multipartite graph with parts of the given sizes."""
    vs = [(p, i) for p, size in enumerate(parts) for i in range(size)]
    name = {v: f"m{v[0]}_{v[1]}" for v in vs}
    return Graph(list(name.values()), [(name[a], name[b]) for i, a in enumerate(vs) for b in vs[i + 1 :] if a[0] != b[0]])


def hexahedron() -> Graph:
    vs = [format(i, "03b") for i in range(8)]
    vs = ["h" + v for v in vs]
    return Graph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :] if sum(x != y for x, y in zip(a, b)) == 1])


def gnm(rng: Random, n: int, m: int) -> Graph:
    """Uniform random graph with n vertices and m edges, possibly
    disconnected.  A fixed edge count keeps the engine's cost steadier
    across seeds than G(n, p) at the same density."""
    vs = [f"r{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]
    return Graph(vs, sorted(rng.sample(pairs, m)))


def with_loose(rng: Random, g: Graph, loose: int, free: int) -> Graph:
    """Add loose edges at random vertices and some free edges."""
    lm = dict(g.loose)
    for _ in range(loose):
        v = rng.choice(g.vertices)
        lm[v] = lm.get(v, 0) + 1
    return Graph(list(g.vertices), list(g.edges), lm, g.free + free)


def tree_plus(rng: Random, n: int, extra: int, loose: int) -> Graph:
    """Connected sparse loose graph: a random recursive tree on n vertices,
    `extra` random chords and `loose` loose edges, no free edges."""
    vs = [f"t{i}" for i in range(n)]
    edges = {(vs[rng.randrange(i)], vs[i]) for i in range(1, n)}
    while len(edges) < n - 1 + extra:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((vs[i], vs[j]))
    return with_loose(rng, Graph(vs, sorted(edges)), loose, 0)


def two_core(rng: Random, n: int, m: int) -> Graph:
    """Largest component of the 2-core of G(n, m), redrawn until its
    cycle rank is at least 2 (inside the Ihara domain)."""
    while True:
        g = gnm(rng, n, m)
        adj = g.neighbors()
        low = [v for v in adj if len(adj[v]) < 2]
        while low:
            v = low.pop()
            if v not in adj:
                continue
            for u in adj.pop(v):
                adj[u].discard(v)
                if len(adj[u]) < 2:
                    low.append(u)
        best: set[str] = set()
        seen: set[str] = set()
        for v in sorted(adj):
            if v in seen:
                continue
            part, stack = {v}, [v]
            while stack:
                for u in adj[stack.pop()]:
                    if u not in part:
                        part.add(u)
                        stack.append(u)
            seen |= part
            if len(part) > len(best):
                best = part
        edges = [(a, b) for a, b in g.edges if a in best and b in best]
        if len(edges) - len(best) + 1 >= 2:
            return Graph([v for v in g.vertices if v in best], edges)


def regular_loose(rng: Random, n: int, degree: int) -> Graph:
    """Random loose graph on n vertices where every vertex has full degree
    `degree`: random 2-vertex edges up to that cap, loose edges for the
    rest, and one free edge.  Fixing the degrees fixes the point-count
    work at n * p^degree while the structure varies with the seed."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    vs = [f"w{i}" for i in range(n)]
    edges = []
    for i, j in pairs:
        if deg[i] < degree - 1 and deg[j] < degree - 1 and rng.random() < 0.6:
            edges.append((vs[i], vs[j]))
            deg[i] += 1
            deg[j] += 1
    return Graph(vs, edges, {vs[i]: degree - deg[i] for i in range(n) if deg[i] < degree}, 1)


def relabel(rng: Random, g: Graph) -> Graph:
    """Rename vertices through a seeded permutation and shuffle edge order.
    Classes and Ihara polynomials are invariant; the engine's traversal
    order is not, so every seed exercises another surgery order."""
    perm = list(range(len(g.vertices)))
    rng.shuffle(perm)
    name = {v: f"v{perm[i]}" for i, v in enumerate(g.vertices)}
    vertices = [name[v] for v in g.vertices]
    rng.shuffle(vertices)
    edges = [(name[a], name[b]) if rng.random() < 0.5 else (name[b], name[a]) for a, b in g.edges]
    rng.shuffle(edges)
    return Graph(vertices, edges, {name[v]: k for v, k in g.loose.items()}, g.free)


def to_lg(g: Graph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {a} {b}" for a, b in g.edges]
    for v in g.vertices:
        lines += [f"loose {v}"] * g.loose.get(v, 0)
    lines += ["free"] * g.free
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Independent checks
# ---------------------------------------------------------------------------


def chart_work(g: Graph, p: int) -> int:
    """Number of chart points the brute-force count enumerates."""
    adj = g.neighbors()
    return sum(p ** (len(adj[v]) + g.loose.get(v, 0)) for v in g.vertices)


def count_points(g: Graph, p: int) -> int:
    """F_p-points of the loose graph's scheme: the union over vertices v of
    the projective points with x_v != 0 and support in v's closed star
    (neighbours plus one phantom coordinate per loose edge), plus p - 1
    points per free edge.  Points are deduplicated by scaling the first
    nonzero coordinate to 1."""
    adj = g.neighbors()
    if p == 2:
        return _count_points_f2(g, adj)
    coord = {v: i for i, v in enumerate(g.vertices)}
    nxt = len(coord)
    phantoms: dict[str, list[int]] = {}
    for v in g.vertices:
        k = g.loose.get(v, 0)
        phantoms[v] = list(range(nxt, nxt + k))
        nxt += k
    inverse = [0] + [pow(a, p - 2, p) for a in range(1, p)]
    points: set[tuple[tuple[int, int], ...]] = set()
    for v in g.vertices:
        dirs = sorted([coord[u] for u in adj[v]] + phantoms[v])
        for values in product(range(p), repeat=len(dirs)):
            vec = sorted([(coord[v], 1)] + [(c, x) for c, x in zip(dirs, values) if x])
            s = inverse[vec[0][1]]
            points.add(tuple((c, x * s % p) for c, x in vec))
    return len(points) + g.free * (p - 1)


def _count_points_f2(g: Graph, adj: dict[str, set[str]]) -> int:
    """count_points at p = 2, where a projective point is its support:
    the union over v of the sets {v} | S with S inside v's open star."""
    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    nxt = len(bit)
    points: set[int] = set()
    for v in g.vertices:
        k = g.loose.get(v, 0)
        star = sum(bit[u] for u in adj[v]) | (((1 << k) - 1) << nxt)
        nxt += k
        sub = star
        while True:
            points.add(sub | bit[v])
            if not sub:
                break
            sub = (sub - 1) & star
    return len(points) + g.free


def int_det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def ihara_vertex_route(g: Graph, u: int) -> int:
    """(1 - u^2)^(r-1) det(I - A u + Q u^2) at an integer u."""
    adj = g.neighbors()
    pos = {v: i for i, v in enumerate(g.vertices)}
    n = len(pos)
    m = [[0] * n for _ in range(n)]
    for v, i in pos.items():
        m[i][i] = 1 + (len(adj[v]) - 1) * u * u
        for w in adj[v]:
            m[i][pos[w]] = -u
    rank = len(g.edges) - n + 1
    return (1 - u * u) ** (rank - 1) * int_det(m)


def ihara_edge_route(g: Graph, u: int) -> int:
    """det(I - u E) over oriented edges at an integer u (Hashimoto)."""
    darts = [(a, b) for a, b in g.edges] + [(b, a) for a, b in g.edges]
    size = len(darts)
    m = [[0] * size for _ in range(size)]
    for i, (a, b) in enumerate(darts):
        m[i][i] = 1
        for j, (c, d) in enumerate(darts):
            if c == b and d != a:
                m[i][j] -= u
    return int_det(m)


def evaluate(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc

"""The paper's cone and local-class objects, kept for the tests, the
coordinates of the ambient projective space and the point-count oracle as
one set.

The engine computes a resolution difference from three chart classes of
the edge neighborhood and never builds a cone or a local restriction.
These objects state the paper's own formulas, so the tests check the
engine against them.  The engine numbers its coordinates as it counts and
never names them; the named list here is what the definitional counts
enumerate.  The oracle counts one lead's keys in parts; the one-set
enumeration here holds every key at once, so the tests check the split
against it.
"""

from __future__ import annotations

from loosezeta.grothendieck import class_polynomial
from loosezeta.loosegraph import LooseGraph, LooseGraphError
from loosezeta.polyring import L, Poly
from loosezeta.surgery import induced, reduce, resolve


def cone(base: LooseGraph, vertex_part: LooseGraph) -> LooseGraph:
    """Join every base vertex to every vertex-part vertex; loose edges of
    both parts are retained.  Label sets must be disjoint."""
    overlap = set(base.vertices) & set(vertex_part.vertices)
    if overlap:
        raise LooseGraphError(f"cone(): overlapping labels {sorted(overlap)}")
    join = [(a, b) for a in base.vertices for b in vertex_part.vertices]
    return LooseGraph.build(
        base.vertices + vertex_part.vertices,
        list(base.edges) + list(vertex_part.edges) + join,
        base.loose + vertex_part.loose,
        base.free + vertex_part.free,
    )


def cone_class(g1: LooseGraph, g2: LooseGraph) -> Poly:
    """Class of the cone joining every vertex of g1 to every vertex of g2.

    Computed from the classes of the reduced parts plus one degree
    correction per vertex carrying loose edges; collapses to the plain
    product formula when both parts are graphs.
    """
    if g1.free or g2.free:
        raise LooseGraphError("cone_class(): parts must not have free edges")
    overlap = set(g1.vertices) & set(g2.vertices)
    if overlap:
        raise LooseGraphError(f"cone_class(): overlapping labels {sorted(overlap)}")
    m1, m2 = g1.n_vertices, g2.n_vertices
    (r1, corr1), (r2, corr2) = reduce(g1), reduce(g2)
    p1, p2 = class_polynomial(r1), class_polynomial(r2)
    return p1 * L**m2 + p2 * L**m1 - p1 * p2 * (L - 1) + L**m2 * corr1 + L**m1 * corr2


def _restricted(g: LooseGraph, edge: tuple[str, str]) -> LooseGraph:
    """Induced subgraph on the union of unit balls around the edge's ends."""
    x, y = edge
    keep = {x, y} | set(g.neighbors(x)) | set(g.neighbors(y))
    return induced(g, keep)


def local_before(g: LooseGraph, edge: tuple[str, str]) -> Poly:
    """Class of g restricted to the projective span of the edge's unit balls."""
    if g.loose or g.free:
        raise LooseGraphError("local_before(): graph must be reduced")
    return class_polynomial(_restricted(g, edge))


def local_after(g: LooseGraph, edge: tuple[str, str]) -> Poly:
    """Class of the same restriction after resolving the edge."""
    if g.loose or g.free:
        raise LooseGraphError("local_after(): graph must be reduced")
    return class_polynomial(resolve(_restricted(g, edge), edge))


def ambient_coordinates(g: LooseGraph) -> list[str]:
    """Coordinates of the ambient projective space: one per vertex, one per
    loose edge (its phantom direction ``v#loose<i>``) and two per free edge
    (``#free<j>a`` and ``#free<j>b``)."""
    coords = list(g.vertices)
    for v, k in g.loose:
        coords.extend(f"{v}#loose{i}" for i in range(k))
    for j in range(g.free):
        coords.extend((f"#free{j}a", f"#free{j}b"))
    return coords


def count_points_one_set(g: LooseGraph, p: int) -> int:
    """F_p-points of g as one set of keys sum x_i p^i, first nonzero x_i
    scaled to 1: p^v + T(after v) where v leads, and s p^v + p^d + T(dirs
    after d) for each s in 1..p-1 where an earlier direction d leads, T(D)
    being all sums sum w_i p^i over w in F_p^D."""
    index = {name: i for i, name in enumerate(ambient_coordinates(g))}
    ppow = [p**i for i in range(len(index))]
    phantoms = {v: [index[f"{v}#loose{i}"] for i in range(k)] for v, k in g.loose}

    def grow(table: list[int], step: int) -> list[int]:
        return [x + w * step for w in range(p) for x in table]

    points: set[int] = set()
    for v in g.vertices:
        base = ppow[index[v]]
        dirs = sorted([index[u] for u in g.neighbors(v)] + phantoms.get(v, []))
        before = [i for i in dirs if i < index[v]]
        table = [0]
        for i in dirs[len(before) :]:
            table = grow(table, ppow[i])
        points.update(base + x for x in table)
        for j in reversed(range(len(before))):
            lead = ppow[before[j]]
            points.update(s * base + lead + x for s in range(1, p) for x in table)
            table = grow(table, lead)
    # free edges live on their own pair of coordinates, disjoint from all charts
    return len(points) + g.free * (p - 1)

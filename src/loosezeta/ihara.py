"""Inverse Ihara zeta functions by two independent determinant routes.

Both take a finite connected graph with no degree-1 vertices and rank
|E| - |V| + 1 >= 1 and produce the same degree-2|E| polynomial in u with
constant term 1: once as (1 - u^2)^(r-1) det(1 - A u + Q u^2) over the
vertices, once as det(1 - u E) over the 2|E| oriented edges.  The
shared ingredient is only the exact determinant kernel of `polymatrix`,
which reads both as reversed characteristic polynomials: of the companion
[[A, -Q], [I, 0]] for the vertex route and of Hashimoto's non-backtracking
matrix E for the edge route.  Neither route uses the Ihara-Bass identity
that equates them, so their agreement is a check.
"""

from __future__ import annotations

from collections import Counter
from math import prod

from .loosegraph import LooseGraph, is_connected
from .polymatrix import PolyMatrix, modulus
from .polyring import Poly


class IharaDomainError(ValueError):
    """Input outside the Ihara domain (tree, degree-1 vertex, loose edges...)."""


def _validate(g: LooseGraph) -> tuple[int, Counter[int]]:
    """Check the domain; return the rank |E| - |V| + 1 and the number of
    vertices of each degree."""
    if g.loose or g.free:
        raise IharaDomainError("Ihara zeta is defined for graphs only (no loose or free edges)")
    if not g.vertices:
        raise IharaDomainError("empty graph")
    if not is_connected(g):
        raise IharaDomainError("graph must be connected")
    if g.n_edges == g.n_vertices - 1:
        raise IharaDomainError("input is a tree; its Ihara zeta function is trivial")
    degrees = Counter(map(len, g._neighbor_map.values()))
    if min(degrees) < 2:
        raise IharaDomainError("vertices of degree 1 are not allowed")
    return g.n_edges - g.n_vertices + 1, degrees


def ihara_inverse(g: LooseGraph) -> Poly:
    """(1 - u^2)^(rank-1) * det(1 - A u + Q u^2) with Q = diag(degree - 1)."""
    rank, degrees = _validate(g)
    # modulus refuses H^2 before the matrix is built: row v holds 1 + (d-1)u^2 and d entries -u
    modulus(prod((d * d + d) ** k for d, k in degrees.items()))
    nbrs = g._neighbor_map
    pos = {v: i for i, v in enumerate(nbrs)}
    minus_u = Poly((0, -1))
    rows: list[list[Poly]] = [[Poly(())] * len(pos) for _ in pos]
    for (v, ns), row in zip(nbrs.items(), rows):
        row[pos[v]] = Poly((1, 0, len(ns) - 1))
        for w in ns:
            row[pos[w]] = minus_u
    return Poly((1, 0, -1)) ** (rank - 1) * PolyMatrix(rows).det()


def edge_matrix_inverse(g: LooseGraph) -> Poly:
    """det(1 - u E) over oriented edges; E takes (tail, head) to (head, w)
    for every neighbour w != tail of head, so it never backtracks."""
    _, degrees = _validate(g)
    # modulus refuses H^2 before the matrix is built: d rows end at v, each holding 1 and d - 1 entries -u
    modulus(prod(d ** (d * k) for d, k in degrees.items()))
    nbrs = g._neighbor_map
    oriented = [*g.edges, *((b, a) for a, b in g.edges)]
    index = {e: i for i, e in enumerate(oriented)}
    one, minus_u = Poly((1,)), Poly((0, -1))
    rows: list[list[Poly]] = [[Poly(())] * len(oriented) for _ in oriented]
    for i, (tail, head) in enumerate(oriented):
        rows[i][i] = one
        for w in nbrs[head]:
            if w != tail:
                rows[i][index[head, w]] = minus_u
    return PolyMatrix(rows).det()

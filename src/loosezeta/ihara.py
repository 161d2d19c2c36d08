"""Inverse Ihara zeta functions by two independent determinant routes.

Both take a finite connected graph with no degree-1 vertices and rank
|E| - |V| + 1 >= 1 and produce the same degree-2|E| polynomial in u with
constant term 1: once as (1 - u^2)^(r-1) det(1 - A u + Q u^2) over the
vertices, once as det(1 - u E) over the 2|E| oriented edges.  The
shared ingredient is only the exact determinant kernel of `polyring`,
which reads both as reversed characteristic polynomials: of the companion
[[A, -Q], [I, 0]] for the vertex route and of Hashimoto's non-backtracking
matrix E for the edge route.  Neither route uses the Ihara-Bass identity
that equates them, so their agreement is a check.
"""

from __future__ import annotations

from collections import Counter
from math import prod

from .loosegraph import LooseGraph, is_connected
from .polyring import Poly, PolyMatrix, check_bound


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
    degrees = Counter(g.graph_degree(v) for v in g.vertices)
    if min(degrees) < 2:
        raise IharaDomainError("vertices of degree 1 are not allowed")
    return g.n_edges - g.n_vertices + 1, degrees


def ihara_inverse(g: LooseGraph) -> Poly:
    """(1 - u^2)^(rank-1) * det(1 - A u + Q u^2) with Q = diag(degree - 1)."""
    rank, degrees = _validate(g)
    # H^2 of the matrix before it is built: row v holds 1 + (d-1)u^2 and d entries -u
    check_bound(prod((d * d + d) ** k for d, k in degrees.items()))
    vs = list(g.vertices)
    pos = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    rows: list[list[Poly]] = [[Poly.zero()] * n for _ in range(n)]
    for i, v in enumerate(vs):
        rows[i][i] = Poly((1, 0, g.graph_degree(v) - 1))
    for a, b in g.edges:
        rows[pos[a]][pos[b]] = Poly((0, -1))
        rows[pos[b]][pos[a]] = Poly((0, -1))
    det = PolyMatrix(rows).det()
    return Poly((1, 0, -1)) ** (rank - 1) * det


def edge_matrix_inverse(g: LooseGraph) -> Poly:
    """det(1 - u E) over oriented edges; E_ij = 1 iff edge i feeds edge j
    without backtracking.  Orientations i and i + |E| are inverses."""
    _, degrees = _validate(g)
    # H^2 of the matrix before it is built: d rows end at v, each holding 1 and d - 1 entries -u
    check_bound(prod(d ** (d * k) for d, k in degrees.items()))
    m = g.n_edges
    oriented = [(a, b) for a, b in g.edges] + [(b, a) for a, b in g.edges]
    leaving: dict[str, list[int]] = {}
    for j, (tail, _) in enumerate(oriented):
        leaving.setdefault(tail, []).append(j)
    size = 2 * m
    one, minus_u = Poly.one(), Poly((0, -1))
    rows: list[list[Poly]] = [[Poly.zero()] * size for _ in range(size)]
    for i, (_, head) in enumerate(oriented):
        rows[i][i] = one
        for j in leaving[head]:
            if j != (i + m) % size:  # not the inverse orientation
                rows[i][j] = minus_u
    return PolyMatrix(rows).det()

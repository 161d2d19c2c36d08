"""`.lg` text of loose graphs and the built-in families: what `gen` and
`trace` print, kept out of the modules every command imports."""

from __future__ import annotations

from bisect import bisect
from itertools import combinations
from typing import Iterable, Iterator

from .loosegraph import GenerateError, LooseGraph, _norm_edge


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



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


def _complete(n: int) -> tuple:
    vs = _labels(n)
    return vs, list(combinations(vs, 2))


def _path(n: int) -> tuple:
    vs = _labels(n)
    return vs, list(zip(vs, vs[1:]))


def _cycle(n: int) -> tuple:
    vs, edges = _path(n)
    return vs, edges + [(vs[-1], vs[0])]


def _star(n: int, k: int) -> tuple:
    ends = _labels(k)
    return ["v0"] + ends, [("v0", e) for e in ends], {"v0": n - k}


def _johnson(n: int, k: int) -> tuple:
    width = len(str(n))  # zero-padded elements keep the labels distinct
    subsets = list(combinations(range(1, n + 1), k))
    label = {s: "s" + "".join(f"{i:0{width}}" for i in s) for s in subsets}
    swaps = ((s, i, j) for s in subsets for i in s for j in range(i + 1, n + 1) if j not in s)
    return [label[s] for s in subsets], [(label[s], label[tuple(sorted({*s, j} - {i}))]) for s, i, j in swaps]


def _hexahedron() -> tuple:
    vs = [format(i, "03b") for i in range(8)]
    return vs, [(a, b) for a, b in combinations(vs, 2) if sum(x != y for x, y in zip(a, b)) == 1]


# family -> builder of LooseGraph.build()'s arguments, then the domain's
# (text, test) conditions in the order they are checked
_FAMILIES = {
    "complete": (_complete, ("n >= 1", lambda n: n >= 1)),
    "star": (_star, ("n >= 1", lambda n, k: n >= 1), ("0 <= k <= n", lambda n, k: 0 <= k <= n)),
    "path": (_path, ("n >= 1", lambda n: n >= 1)),
    "cycle": (_cycle, ("n >= 3", lambda n: n >= 3)),
    "affine": (lambda n: (["o"], (), {"o": n}), ("n >= 0", lambda n: n >= 0)),
    "projective": (lambda n: _complete(n + 1), ("n >= 0", lambda n: n >= 0)),
    "johnson": (_johnson, ("1 <= k <= n", lambda n, k: 1 <= k <= n)),
    "hexahedron": (_hexahedron,),
}


def generate(family: str, *params: int) -> LooseGraph:
    """Built-in families: complete n, star n k, path n, cycle n, affine n,
    projective n, johnson n k, hexahedron."""
    if not isinstance(family, str) or family not in _FAMILIES:
        raise GenerateError(f"unknown family {family!r}")
    make, *conditions = _FAMILIES[family]
    arity = make.__code__.co_argcount
    if len(params) != arity:
        raise GenerateError(f"{family} takes {arity} parameter(s), got {len(params)}")
    for text, test in conditions:
        if not test(*params):
            raise GenerateError(f"{family} needs {text}")
    return LooseGraph.build(*make(*params))

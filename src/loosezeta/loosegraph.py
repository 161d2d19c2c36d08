"""Loose graphs: data model, `.lg` parser and the structural passes of the class.

A loose graph is an undirected loopless graph whose edges may have two,
one ("loose edge") or zero ("free edge") endpoints.  Loose edges are
interchangeable and stored as per-vertex counts; free edges as a single
count.  All values are immutable; every operation returns a new graph.  A
graph derives its neighbor map and loose counts once, on first use.

Serialization and the built-in families live in `families`, the surgery's
structural operations in `surgery` and the tree profile in `zeta`.  The
benchmark's tracer still looks the structural operations and
`tree_profile` up here, so each of those is imported on first lookup.
"""

from __future__ import annotations

import io
import re
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping

from . import _lazy

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
        """Validate and normalize library input; parse() makes the same checks
        per line and constructs its value directly."""
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


# ---------------------------------------------------------------------------
# `.lg` text format
# ---------------------------------------------------------------------------


def parse(text: str, strict: bool = False) -> LooseGraph:
    """Parse the line-based `.lg` format.

    Lines: ``# comment``, ``vertex NAME``, ``edge A B``, ``loose A``,
    ``free``.  Vertex order is first-mention order.  In strict mode a
    vertex must be declared before use in an edge/loose line.  Every
    check of LooseGraph.build() is made here, with the line number, so
    the returned graph has passed them all.
    """
    vertices: list[str] = []
    vset: set[str] = set()
    implicit: set[str] = set()  # first met in an edge or loose line
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

    # one leading U+FEFF is a byte order mark, as some editors save UTF-8; lines
    # end at \n, \r\n or \r only, not at the other breaks of splitlines()
    for lineno, raw in enumerate(io.StringIO(text.removeprefix("\ufeff"), newline=None), start=1):
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
    return LooseGraph(tuple(vertices), tuple(sorted(eset)), tuple(sorted(loose.items())), free)


# ---------------------------------------------------------------------------
# Structural algorithms
# ---------------------------------------------------------------------------


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


def is_connected(g: LooseGraph) -> bool:
    return len(_components(g._neighbor_map, g.vertices)) + g.free == 1


def is_loose_tree(g: LooseGraph) -> bool:
    """Connected loose graph whose reduced graph is acyclic; no free edges."""
    return is_connected(g) and g.n_edges == g.n_vertices - 1


_MOVED = {
    "surgery": "connected_components delete_vertex induced neighborhood reduce resolve spanning_tree",
    "zeta": "tree_profile",
}
__getattr__ = _lazy(globals(), _MOVED)

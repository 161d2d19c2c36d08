"""Loose graphs: data model, `.lg` parser and the structural passes of the class.

A loose graph is an undirected loopless graph whose edges may have two,
one ("loose edge") or zero ("free edge") endpoints.  Loose edges are
interchangeable and stored as per-vertex counts; free edges as a single
count.  All values are immutable; every operation returns a new graph.  A
graph derives its neighbor map and loose counts once, on first use.  parse()
and LooseGraph.build() check their input by one set of rules, in _Reader.

Serialization and the built-in families live in `families`, the surgery's
structural operations in `surgery` and the tree profile in `zeta`.  The benchmark's
tracer still looks those and `tree_profile` up here, so each is imported on first lookup.
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


def _count(k: int, what: str) -> int:
    """build()'s loose or free count, an int by Poly's rule for a coefficient and not negative."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise LooseGraphError(f"{what} count {k!r} is not an integer")
    if k < 0:
        raise LooseGraphError(f"negative {what} count")
    return k


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
        """Validate and normalize library input by parse()'s strict rules and messages, with no
        line number; vertices come first, then edges, loose (vertex, count) pairs and free count."""
        r = _Reader(strict=True)
        for v in vertices:
            r.vertex(v)
        for a, b in edges:
            r.edge(a, b)
        for v, k in loose.items() if isinstance(loose, Mapping) else loose:
            r.add_loose(v, _count(k, "loose-edge"))
        return r.graph(cls, _count(free, "free-edge"))

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
        if v not in self._neighbor_map:
            raise LooseGraphError(f"no vertex {v!r}")
        return self._loose_counts.get(v, 0)

    def degree(self, v: str) -> int:
        """Full degree: 2-vertex edges plus loose edges at v."""
        return self.graph_degree(v) + self._loose_counts.get(v, 0)


# ---------------------------------------------------------------------------
# `.lg` text format
# ---------------------------------------------------------------------------


class _Reader:
    """The rules of loose-graph input, one copy for parse() and LooseGraph.build(): an
    error is a ParseError at line ``lineno``, or a LooseGraphError while that is None."""

    def __init__(self, strict: bool):
        self.strict = strict
        self.lineno: int | None = None
        self.names: dict[str, bool] = {}  # name -> first met in an edge or loose line
        self.edges: dict[tuple[str, str], None] = {}  # input order: sorted() is linear on sorted input
        self.loose: dict[str, int] = {}

    def error(self, message: str) -> LooseGraphError:
        return LooseGraphError(message) if self.lineno is None else ParseError(self.lineno, message)

    def vertex(self, name: str, implicit: bool = False) -> None:
        # the name is tested before the lookup, which an unhashable name fails;
        # self.names holds only valid names, so the order changes no message
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise self.error(f"invalid name {name!r}")
        if name in self.names:
            raise self.error(f"vertex {name!r} declared {'after its first use' if self.names[name] else 'twice'}")
        if implicit and self.strict:
            raise self.error(f"undeclared vertex {name!r} (strict mode)")
        self.names[name] = implicit

    def edge(self, a: str, b: str) -> None:
        if a == b:
            raise self.error(f"loop at vertex {a!r}")
        if not isinstance(a, str) or a not in self.names:  # as in vertex(): the type first
            self.vertex(a, True)
        if not isinstance(b, str) or b not in self.names:
            self.vertex(b, True)
        e = _norm_edge(a, b)
        if e in self.edges:
            raise self.error(f"duplicate edge {a} {b}")
        self.edges[e] = None

    def add_loose(self, name: str, k: int) -> None:
        if not isinstance(name, str) or name not in self.names:
            self.vertex(name, True)
        if k:
            self.loose[name] = self.loose.get(name, 0) + k

    def graph(self, cls: type, free: int) -> LooseGraph:
        return cls(tuple(self.names), tuple(sorted(self.edges)), tuple(sorted(self.loose.items())), free)


def parse(text: str, strict: bool = False) -> LooseGraph:
    """Parse the line-based `.lg` format: ``# comment``, ``vertex NAME``,
    ``edge A B``, ``loose A`` and ``free`` lines.  Vertex order is first-mention
    order.  In strict mode a vertex must be declared before use in an edge or
    loose line.  The checks are LooseGraph.build()'s; each error names its line."""
    r = _Reader(strict)
    free = 0
    # one leading U+FEFF is a byte order mark, as some editors save UTF-8; lines
    # end at \n, \r\n or \r only, not at the other breaks of splitlines()
    for lineno, raw in enumerate(io.StringIO(text.removeprefix("\ufeff"), newline=None), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        r.lineno = lineno
        kind, *args = fields
        if kind == "edge" and len(args) == 2:
            r.edge(*args)
        elif kind == "vertex" and len(args) == 1:
            r.vertex(args[0])
        elif kind == "loose" and len(args) == 1:
            r.add_loose(args[0], 1)
        elif kind == "free" and not args:
            free += 1
        else:
            takes = {"vertex": "exactly one name", "edge": "exactly two names", "loose": "exactly one name", "free": "no arguments"}
            raise ParseError(lineno, f"{kind} takes {takes[kind]}" if kind in takes else f"unknown directive {kind!r}")
    return r.graph(LooseGraph, free)


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

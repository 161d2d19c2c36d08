"""Shared corpus data and random generators for the test suite.

Golden polynomial values are frozen as little-endian coefficient tuples.
"""

from __future__ import annotations

from random import Random

from hypothesis import settings
from hypothesis import strategies as st

from loosezeta import LooseGraph, generate, parse
from loosezeta.polyring import Poly

# Property tests draw the same examples on every run, so the suite stays
# deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

# ---------------------------------------------------------------------------
# Corpus graphs
# ---------------------------------------------------------------------------

K4_STAR_LG = """\
vertex a
vertex b
vertex c
vertex d
edge a b
edge a c
edge a d
edge b c
edge b d
"""


def corpus_graphs() -> dict[str, LooseGraph]:
    return {
        "K4": generate("complete", 4),
        "K4_minus_edge": parse(K4_STAR_LG),
        "K5": generate("complete", 5),
        "J42": generate("johnson", 4, 2),
        "hexahedron": generate("hexahedron"),
    }


# class polynomials (little-endian coefficients)
CLASS_COEFFS = {
    "K4": (1, 1, 1, 1),
    "K4_minus_edge": (2, 0, 1, 1),
    "K5": (1, 1, 1, 1, 1),
    "J42": (8, -16, 20, -12, 6),
    "hexahedron": (12, -12, 0, 8),
}

# inverse zeta display strings
ZETA_INVERSE = {
    "K4": "t*(t-1)*(t-2)*(t-3)",
    "K4_minus_edge": "t^2*(t-2)*(t-3)",
    "K5": "t*(t-1)*(t-2)*(t-3)*(t-4)",
    "J42": "t^8*(t-2)^20*(t-4)^6/((t-1)^16*(t-3)^12)",
    "hexahedron": "t^12*(t-3)^8/(t-1)^12",
}

# inverse Ihara zeta polynomials (little-endian coefficients)
IHARA_COEFFS = {
    "K4": (1, 0, 0, -8, -6, 0, 16, 24, -3, -16, -24, 0, 16),
    "K4_minus_edge": (1, 0, 0, -4, -2, 0, 4, 4, 1, 0, -4),
    "K5": (
        1, 0, 0, -20, -30, -24, 70, 240, 165, -140, -708,
        -660, 505, 1200, 870, -776, -1710, 180, 1080, 0, -243,
    ),
    "J42": (
        1, 0, 0, -16, -30, -48, 16, 192, 327, 320, -384, -1248, -1412,
        96, 2976, 3008, 639, -4032, -6912, 2160, 7938, -432, -3888, 0, 729,
    ),
    "hexahedron": (
        1, 0, 0, 0, -12, 0, -32, 0, 30, 0, 144, 0, 68,
        0, -384, 0, -183, 0, 400, 0, 480, 0, -768, 0, 256,
    ),
}

# the full worked surgery table for K5: loose-spanning-tree class, then one
# (delta, running class) pair per restored fundamental edge
K5_TREE_CLASS = (4, -4, 0, 0, 5)
K5_TRACE = (
    ((1, -3, 2), (3, -1, -2, 0, 5)),
    ((0, 0, -1, 1), (3, -1, -1, -1, 5)),
    ((1, -1, -2, 2), (2, 0, 1, -3, 5)),
    ((0, -1, 2, -2, 1), (2, 1, -1, -1, 4)),
    ((0, 1, -2, 0, 1), (2, 0, 1, -1, 3)),
    ((1, -1, 0, -2, 2), (1, 1, 1, 1, 1)),
)

# worked local classes for one surgery step of K5 (resolving an edge of the
# complete graph minus one non-incident edge)
STEP5_GRAPH_LG = """\
edge x y
edge x b
edge x c
edge y b
edge y c
edge y e
edge b c
edge b e
edge c e
"""
STEP5_EDGE = ("x", "y")
STEP5_BEFORE = (2, 0, 1, 1, 1)
STEP5_AFTER = (2, 1, -1, 1, 2)
STEP5_DELTA = (0, 1, -2, 0, 1)


def hexloose() -> LooseGraph:
    """The cube with loose edges at three corners and one free edge."""
    cube = generate("hexahedron")
    return LooseGraph.build(cube.vertices, cube.edges, {"000": 2, "011": 1, "111": 2}, 1)


def poly(coeffs) -> Poly:
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# Random generators (seeded by callers for reproducibility)
# ---------------------------------------------------------------------------


def random_loose_graph(
    rng: Random,
    max_vertices: int = 8,
    max_edges: int = 12,
    max_loose: int = 3,
    max_degree: int = 6,
) -> LooseGraph:
    """Random loose graph within the oracle-sweep bounds; may be disconnected."""
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(1, n + 1)]
    possible = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]
    rng.shuffle(possible)
    # bias a third of the samples toward the dense end of the constraint box
    target = max_edges if rng.random() < 0.34 else rng.randint(0, max_edges)
    edges = []
    deg = {v: 0 for v in vs}
    for a, b in possible:
        if len(edges) >= target:
            break
        if deg[a] < max_degree and deg[b] < max_degree:
            edges.append((a, b))
            deg[a] += 1
            deg[b] += 1
    loose: dict[str, int] = {}
    for _ in range(rng.randint(0, max_loose)):
        v = rng.choice(vs)
        if deg[v] < max_degree:
            loose[v] = loose.get(v, 0) + 1
            deg[v] += 1
    return LooseGraph.build(vs, edges, loose)


def random_loose_tree(rng: Random, max_vertices: int = 10, max_loose: int = 3) -> LooseGraph:
    """Random connected loose tree built by random attachment."""
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(1, n + 1)]
    edges = [(vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    loose: dict[str, int] = {}
    for _ in range(rng.randint(0, max_loose)):
        v = rng.choice(vs)
        loose[v] = loose.get(v, 0) + 1
    return LooseGraph.build(vs, edges, loose)


@st.composite
def loose_graphs(draw, max_vertices: int = 6) -> LooseGraph:
    """Random loose graph with loose and free edges; may be disconnected."""
    n = draw(st.integers(0, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    loose = draw(st.dictionaries(st.sampled_from(vs), st.integers(1, 2))) if vs else {}
    free = draw(st.integers(0, 2))
    return LooseGraph.build(vs, edges, loose, free)


def relabelled(g: LooseGraph, rng: Random) -> tuple[LooseGraph, dict[str, str]]:
    """``g`` with its labels permuted at random and its vertices declared in
    a random order, plus the map from old labels to new.  The spanning tree
    of the surgery is a function of the labels, so this is how a test draws
    another tree."""
    names = list(g.vertices)
    rng.shuffle(names)
    new = dict(zip(g.vertices, names))
    rng.shuffle(names)
    edges = [(new[a], new[b]) for a, b in g.edges]
    return LooseGraph.build(names, edges, {new[v]: k for v, k in g.loose}, g.free), new


def random_ihara_graph(rng: Random, max_vertices: int = 8, max_edges: int = 12) -> LooseGraph:
    """Random connected graph with minimum degree 2 and rank >= 1."""
    n = rng.randint(3, max_vertices)
    vs = [f"v{i}" for i in range(1, n + 1)]
    order = vs[:]
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    possible = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :] if tuple(sorted((a, b))) not in edges]
    rng.shuffle(possible)
    for e in possible[: rng.randint(0, max_edges - n)]:
        edges.add(tuple(sorted(e)))
    return LooseGraph.build(vs, sorted(edges))

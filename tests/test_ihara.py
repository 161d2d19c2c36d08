"""Inverse Ihara zeta functions via both determinant routes."""

from __future__ import annotations

import importlib
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import IHARA_COEFFS, corpus_graphs, random_ihara_graph
from loosezeta import (
    IharaDomainError,
    LooseGraph,
    edge_matrix_inverse,
    generate,
    ihara_inverse,
    parse,
)
from loosezeta import ihara, polymatrix
from loosezeta.polymatrix import PolyMatrix, _bound_squared
from loosezeta.polyring import Poly


def test_corpus_values():
    for name, g in corpus_graphs().items():
        assert ihara_inverse(g) == Poly(IHARA_COEFFS[name]), name


def test_edge_matrix_route_matches_on_corpus():
    for name, g in corpus_graphs().items():
        assert edge_matrix_inverse(g) == Poly(IHARA_COEFFS[name]), name


def test_cycles_have_two_prime_classes():
    # a cycle of length n carries one prime class per direction
    u = Poly.monomial(1)
    for n in range(3, 7):
        expected = (Poly((1,)) - u**n) ** 2
        g = generate("cycle", n)
        assert ihara_inverse(g) == expected
        assert edge_matrix_inverse(g) == expected


def test_routes_agree_on_random_graphs():
    rng = Random(424242)
    for _ in range(20):
        g = random_ihara_graph(rng)
        assert ihara_inverse(g) == edge_matrix_inverse(g), g


def test_degree_and_constant_term():
    rng = Random(31337)
    for _ in range(10):
        g = random_ihara_graph(rng)
        p = ihara_inverse(g)
        assert p.degree == 2 * g.n_edges
        assert p.coeffs[0] == 1


def test_domain_errors():
    with pytest.raises(IharaDomainError, match="tree"):
        ihara_inverse(generate("path", 2))
    with pytest.raises(IharaDomainError, match="tree"):
        edge_matrix_inverse(generate("path", 5))
    with pytest.raises(IharaDomainError, match="degree 1"):
        ihara_inverse(parse("edge a b\nedge b c\nedge c a\nedge a d\n"))
    with pytest.raises(IharaDomainError, match="loose"):
        ihara_inverse(generate("star", 3, 2))
    with pytest.raises(IharaDomainError, match="connected"):
        ihara_inverse(
            parse("edge a b\nedge b c\nedge c a\nedge x y\nedge y z\nedge z x\n")
        )
    with pytest.raises(IharaDomainError):
        ihara_inverse(LooseGraph.build())


@pytest.mark.parametrize("route", [ihara_inverse, edge_matrix_inverse])
def test_degree_bound_is_the_bound_of_the_built_matrix(monkeypatch, route):
    # each route refuses a bound past the moduli table before it builds its
    # matrix; the bound it checks must be the one det() finds in the matrix
    checked, built = [], []
    det = PolyMatrix.det
    monkeypatch.setattr(ihara, "modulus", lambda h2: checked.append(h2) or polymatrix.modulus(h2))
    monkeypatch.setattr(PolyMatrix, "det", lambda m: built.append(_bound_squared(m)) or det(m))
    rng = Random(2718)
    graphs = [corpus_graphs()[name] for name in IHARA_COEFFS]
    graphs += [random_ihara_graph(rng) for _ in range(20)]
    for g in graphs:
        route(g)
    assert len(built) == len(graphs)
    assert checked == built


def _bass_spectral_product(g: LooseGraph, spectrum: dict[int, int]) -> Poly:
    """(1 - u^2)^(r-1) * prod over adjacency eigenvalues l of (1 - l u + (k-1) u^2)
    for a k-regular graph, with eigenvalue multiplicities."""
    k = g.graph_degree(next(iter(g.vertices)))
    assert sum(spectrum.values()) == g.n_vertices
    p = Poly((1, 0, -1)) ** (g.n_edges - g.n_vertices)
    for eigenvalue, multiplicity in spectrum.items():
        p = p * Poly((1, -eigenvalue, k - 1)) ** multiplicity
    return p


@pytest.mark.parametrize(
    "family, params, spectrum",
    [
        ("johnson", (5, 2), {6: 1, 1: 4, -2: 5}),  # edge route: a 60x60 determinant
        ("hexahedron", (), {3: 1, 1: 3, -1: 3, -3: 1}),
    ],
)
def test_both_routes_match_the_adjacency_spectrum(family, params, spectrum):
    g = generate(family, *params)
    expected = _bass_spectral_product(g, spectrum)
    start = time.monotonic()
    assert ihara_inverse(g) == expected
    assert edge_matrix_inverse(g) == expected
    elapsed = time.monotonic() - start
    # generous: on a 2-core x86 machine johnson 5 2 takes well under a second
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@st.composite
def ihara_domain_graphs(draw) -> LooseGraph:
    """Connected, minimum degree 2, rank >= 1, up to 8 vertices: the 2-core
    of a random graph, restricted to the component of its first vertex."""
    n = draw(st.integers(min_value=3, max_value=8))
    pairs = [(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=12))
    adjacency: dict[str, set[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    low = [v for v, ns in adjacency.items() if len(ns) < 2]
    while low:
        v = low.pop()
        for w in adjacency.pop(v, ()):
            adjacency[w].discard(v)
            if len(adjacency[w]) == 1:
                low.append(w)
    assume(adjacency)
    component, frontier = set(), [min(adjacency)]
    while frontier:
        v = frontier.pop()
        if v not in component:
            component.add(v)
            frontier.extend(adjacency[v])
    kept_edges = sorted((a, b) for a, b in edges if a in component and b in component)
    return LooseGraph.build(sorted(component), kept_edges)


@given(ihara_domain_graphs())
def test_routes_agree_in_the_ihara_domain(g):
    p = ihara_inverse(g)
    assert p == edge_matrix_inverse(g)
    assert p.degree == 2 * g.n_edges
    assert p.coeffs[0] == 1


BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_both_routes_match_the_benchmark_references(monkeypatch):
    # the benchmark's own integer determinants cross-checked these when
    # they were made, with no code shared with the engine
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    graphs = importlib.import_module("graphs")
    fixed = workloads.load_references()["fixed"]
    references = {spec: entry["ihara"] for spec, entry in fixed.items() if "ihara" in entry}
    assert len(references) == 16
    for spec, coeffs in references.items():
        g = parse(graphs.to_lg(workloads.build(spec, workloads.COMMITTED_SEED)))
        expected = Poly([int(c) for c in coeffs])
        assert ihara_inverse(g) == expected, spec
        assert edge_matrix_inverse(g) == expected, spec

"""Brute-force oracle: chart enumeration and class verification."""

from __future__ import annotations

from itertools import product
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import K4_STAR_LG, STEP5_GRAPH_LG, corpus_graphs, hexloose, loose_graphs, random_loose_graph
from paper_objects import ambient_coordinates, count_points_one_set
from loosezeta import (
    LooseGraph,
    class_polynomial,
    connected_components,
    count_points,
    generate,
    parse,
    verify,
)
from loosezeta import pointcount
from loosezeta.pointcount import BudgetError, estimated_work, is_prime


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def by_trial_division(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) == by_trial_division(n) for n in range(-3, 20_000))
    # the least strong pseudoprimes to the first 8, 11 and 12 prime bases
    for n in (341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1) and is_prime(10**18 + 3)
    assert not is_prime((10**9 + 7) * (10**9 + 9))


def test_q_past_the_primality_limit_is_refused_by_the_bound():
    g = parse("vertex a\n")
    for q in (pointcount.PRIMALITY_LIMIT, pointcount.PRIMALITY_LIMIT + 1, 10**30):
        with pytest.raises(ValueError, match=f"prime {q} exceeds the bound 13"):
            count_points(g, q)


def test_count_projective_line():
    assert count_points(parse("edge a b\n"), 5) == 6


def test_count_k4_minus_edge():
    assert count_points(parse(K4_STAR_LG), 2) == 14


def test_count_path_three():
    # y - x - z: the union of an affine plane and two coordinate axes
    g = parse("edge y x\nedge x z\n")
    assert count_points(g, 3) == 11


def test_count_affine_space():
    assert count_points(generate("affine", 3), 3) == 27


def test_count_free_edge():
    assert count_points(LooseGraph.build((), (), (), 1), 5) == 4


def test_count_disjoint_union_is_additive():
    rng = Random(404)
    for _ in range(10):
        g = random_loose_graph(rng, max_vertices=6, max_edges=8)
        total = sum(count_points(c, 3) for c in connected_components(g))
        assert count_points(g, 3) == total


def test_count_errors():
    g = generate("complete", 3)
    with pytest.raises(ValueError, match="not prime"):
        count_points(g, 4)
    with pytest.raises(ValueError, match="bound"):
        count_points(g, 17)
    with pytest.raises(BudgetError):
        count_points(g, 5, budget=10)
    assert estimated_work(g, 5) == 3 * 25


def test_verify_checks_budget_before_the_class(monkeypatch):
    def no_class(g):
        raise AssertionError("class computed before the budget check")

    monkeypatch.setattr(pointcount, "class_polynomial", no_class)
    with pytest.raises(BudgetError, match="estimated work 75 exceeds budget 20"):
        verify(generate("complete", 3), [2, 5], budget=20)
    with pytest.raises(ValueError, match="prime 17 exceeds the bound 13"):
        verify(generate("complete", 3), [2, 17])


def count_from_definition(g: LooseGraph, p: int) -> int:
    """Points of P^(N-1)(F_p), first nonzero coordinate 1, whose support
    contains a vertex v and lies in v's closed star and phantoms, or is a
    free edge's coordinate pair."""
    coords = ambient_coordinates(g)
    bit = {c: 1 << i for i, c in enumerate(coords)}
    adj = g.adjacency()
    charts = []
    for v in g.vertices:
        star = [v, *adj[v], *(f"{v}#loose{i}" for i in range(g.loose_count(v)))]
        charts.append((bit[v], sum(bit[c] for c in star)))
    free_pairs = {bit[f"#free{j}a"] | bit[f"#free{j}b"] for j in range(g.free)}
    count = 0
    for x in product(range(p), repeat=len(coords)):
        lead = next((xi for xi in x if xi), 0)
        if lead != 1:
            continue
        support = sum(1 << i for i, xi in enumerate(x) if xi)
        if support in free_pairs or any(support & vbit and not support & ~star for vbit, star in charts):
            count += 1
    return count


@given(loose_graphs(max_vertices=4), st.sampled_from([2, 3, 5]), st.sampled_from([1, 4, pointcount.TABLE_CAP]))
def test_count_matches_definition(g, p, cap):
    assume(p ** len(ambient_coordinates(g)) <= 2 * 10**5)
    # small caps move directions from the table into the offsets
    with patch.object(pointcount, "TABLE_CAP", cap):
        assert count_points(g, p) == count_from_definition(g, p)


@st.composite
def dense_loose_graphs(draw) -> LooseGraph:
    """Graphs on 5-9 vertices missing a few edges, with loose and free
    edges: degrees high enough that the default cap splits at p >= 3."""
    n = draw(st.integers(5, 9))
    vs = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]
    missing = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    loose = draw(st.dictionaries(st.sampled_from(vs), st.integers(1, 2)))
    return LooseGraph.build(vs, [e for e in pairs if e not in missing], loose, draw(st.integers(0, 2)))


@given(
    loose_graphs(max_vertices=9) | dense_loose_graphs(),
    st.sampled_from([2, 3, 5, 7]),
    st.sampled_from([1, 4, pointcount.TABLE_CAP]),
)
@example(hexloose(), 5, 4)
@example(generate("complete", 8), 3, pointcount.TABLE_CAP)
@settings(max_examples=200)
def test_split_count_matches_one_set(g, p, cap):
    # most of these graphs have too many coordinates for count_from_definition
    assume(estimated_work(g, p) <= 40_000)
    with patch.object(pointcount, "TABLE_CAP", cap):
        assert count_points(g, p) == count_points_one_set(g, p)


@pytest.mark.parametrize("cap", [64, pointcount.TABLE_CAP])
@pytest.mark.parametrize(
    "g, p",
    [(hexloose(), 13), (generate("johnson", 5, 2), 7), (generate("complete", 8), 3)],
    ids=["hexloose_13", "johnson_5_2_7", "k8_3"],
)
def test_every_table_fits_the_cap(g, p, cap):
    sizes = []
    keys = pointcount._keys

    def recording(dirs, ppow, p):
        sizes.append(p ** len(dirs))
        return keys(dirs, ppow, p)

    with patch.object(pointcount, "TABLE_CAP", cap), patch.object(pointcount, "_keys", recording):
        assert count_points(g, p) == class_polynomial(g).evaluate(p)
    assert sizes and max(sizes) <= cap


@pytest.mark.parametrize(
    "g, p", [(generate("path", 3000), 2), (generate("cycle", 2000), 3)], ids=["path_3000_2", "cycle_2000_3"]
)
def test_keys_have_one_digit_per_coordinate_of_their_lead(g, p):
    # a lead has at most 1 + D + D^2 coordinates at maximum degree D, so no
    # sum grows with the graph; over all coordinates they reached p^(n-1)
    largest = []
    keys = pointcount._keys

    def recording(dirs, weight, p):
        table = keys(dirs, weight, p)
        largest.append(max(table))
        return table

    with patch.object(pointcount, "_keys", recording):
        assert count_points(g, p) == class_polynomial(g).evaluate(p)
    degree = 2
    assert largest and max(largest) < p ** (1 + degree + degree**2)


def test_verify_k5():
    report = verify(generate("complete", 5), [2, 3, 5])
    assert report.ok
    assert [(c.prime, c.expected, c.counted) for c in report.checks] == [
        (2, 31, 31),
        (3, 121, 121),
        (5, 781, 781),
    ]
    assert report.euler_expected == 5 and report.euler_got == 5


def test_verify_hexahedron():
    report = verify(generate("hexahedron"), [2, 3])
    assert report.ok
    assert [c.counted for c in report.checks] == [52, 192]


def test_verify_free_edge():
    report = verify(LooseGraph.build((), (), (), 1), [5])
    assert report.ok and report.checks[0].counted == 4


def test_verify_json_shape():
    data = verify(generate("complete", 3), [2]).to_json()
    assert data["ok"] is True
    assert data["checks"][0] == {"prime": 2, "expected": 7, "counted": 7, "ok": True}
    assert data["euler"] == {"expected": 3, "got": 3, "ok": True}


def test_oracle_agrees_on_corpus():
    for name, g in corpus_graphs().items():
        assert verify(g, [2, 3, 5]).ok, name


def test_oracle_agrees_on_tricky_neighborhood_shapes():
    # shared loose-edge target inside one component
    shared = parse(STEP5_GRAPH_LG)
    # cross edge between the two balls of the resolved edge
    c4 = generate("cycle", 4)
    # different components pointing at one outside vertex
    remark = parse(
        "edge x y\nedge x u\nedge x v\nedge y u\nedge y v\nedge y w\nedge w u\nedge w v\n"
    )
    # cross-target pair reached through a middle common neighbor
    middle = parse(
        "edge x y\nedge x b\nedge x c\nedge x d\nedge y b\nedge y c\nedge y d\n"
        "edge b d\nedge d c\nedge b w\nedge c w\nedge w x\n"
    )
    for g in (shared, c4, remark, middle):
        assert verify(g, [2, 3, 5]).ok


def test_oracle_agrees_on_random_graphs():
    rng = Random(161803)
    for _ in range(40):
        g = random_loose_graph(rng)
        report = verify(g, [2, 3])
        assert report.ok, g


def test_oracle_agrees_with_free_edges():
    rng = Random(271828)
    for _ in range(10):
        g = random_loose_graph(rng, max_vertices=5, max_edges=6)
        g = LooseGraph.build(g.vertices, g.edges, g.loose, rng.randint(0, 2))
        assert verify(g, [2, 3, 5]).ok


def test_count_matches_class_at_larger_primes():
    g = parse(K4_STAR_LG)
    p = class_polynomial(g)
    for q in (7, 11, 13):
        assert count_points(g, q) == p.evaluate(q)

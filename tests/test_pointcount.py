"""Brute-force oracle: chart enumeration and class verification."""

from __future__ import annotations

from fractions import Fraction
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
    count_points,
    generate,
    parse,
    verify,
)
from loosezeta import pointcount
from loosezeta.pointcount import BudgetError, estimated_work
from loosezeta.polyring import L, Poly
from loosezeta.surgery import connected_components


def by_trial_division(n: int) -> bool:
    """n = r^e for a prime r and some e >= 1."""
    r = next((d for d in range(2, n + 1) if n % d == 0), None)
    while r is not None and n % r == 0:
        n //= r
    return n == 1 and r is not None


PRIME_POWERS = tuple(q for q in range(14) if by_trial_division(q))


def test_the_table_is_the_prime_powers_up_to_13():
    assert pointcount.PRIME_POWERS == PRIME_POWERS == (2, 3, 4, 5, 7, 8, 9, 11, 13)


def test_the_oracle_counts_at_the_table_and_nowhere_else():
    g = parse("vertex a\n")
    for q in range(-3, 40):
        if q in PRIME_POWERS:
            assert count_points(g, q) == 1
        elif q > 13:
            with pytest.raises(ValueError, match=rf"^count_points\(\): q {q} exceeds the bound 13$"):
                count_points(g, q)
        else:
            with pytest.raises(ValueError, match=rf"^count_points\(\): {q} is not a prime power$"):
                count_points(g, q)


def test_q_past_the_primality_limit_is_refused_by_the_bound():
    # at and past 3,317,044,064,679,887,385,961,981, where the Miller-Rabin
    # test this check once used stopped being exact
    g = parse("vertex a\n")
    limit = 3_317_044_064_679_887_385_961_981
    for q in (limit, limit + 1, 10**30):
        with pytest.raises(ValueError, match=rf"^count_points\(\): q {q} exceeds the bound 13$"):
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
    with pytest.raises(ValueError, match="^count_points\\(\\): 6 is not a prime power$"):
        count_points(g, 6)
    with pytest.raises(ValueError, match="^count_points\\(\\): q 17 exceeds the bound 13$"):
        count_points(g, 17)
    with pytest.raises(BudgetError):
        count_points(g, 5, budget=10)
    # a q outside the table is refused before its work is estimated
    with pytest.raises(ValueError, match="6 is not a prime power"):
        count_points(g, 6, budget=0)
    assert estimated_work(g, 5) == 3 * 25


def test_verify_checks_budget_before_the_class(monkeypatch):
    def no_class(g):
        raise AssertionError("class computed before the budget check")

    monkeypatch.setattr(pointcount, "class_polynomial", no_class)
    with pytest.raises(BudgetError, match="estimated work 75 exceeds budget 20"):
        verify(generate("complete", 3), [2, 5], budget=20)
    with pytest.raises(ValueError, match="q 17 exceeds the bound 13"):
        verify(generate("complete", 3), [2, 17])
    with pytest.raises(ValueError, match="6 is not a prime power"):
        verify(generate("complete", 3), [2, 6])


def count_from_definition(g: LooseGraph, p: int) -> int:
    """Points of P^(N-1)(F_p), first nonzero coordinate 1, whose support
    contains a vertex v and lies in v's closed star and phantoms, or is a
    free edge's coordinate pair."""
    coords = ambient_coordinates(g)
    bit = {c: 1 << i for i, c in enumerate(coords)}
    charts = []
    for v in g.vertices:
        star = [v, *g.neighbors(v), *(f"{v}#loose{i}" for i in range(g.loose_count(v)))]
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


WIDTHS = st.sampled_from([1, 4, pointcount.ROW_BITS])
ROW_CAPS = st.sampled_from([1, 4, pointcount.ROW_CAP])


def capped(width: int, cap: int):
    """Patch the row width and the rows one block may touch."""
    return patch.multiple(pointcount, ROW_BITS=width, ROW_CAP=cap)


@given(loose_graphs(max_vertices=4), st.sampled_from([2, 3, 5]), WIDTHS, ROW_CAPS)
def test_count_matches_definition(g, p, width, cap):
    assume(p ** len(ambient_coordinates(g)) <= 2 * 10**5)
    # narrow rows move directions from the bits into the rows, and a small
    # row cap splits the groups by them
    with capped(width, cap):
        assert count_points(g, p) == count_from_definition(g, p)


@st.composite
def dense_loose_graphs(draw) -> LooseGraph:
    """Graphs on 5-9 vertices missing a few edges, with loose and free
    edges: degrees high enough that at p >= 3 a block spans several rows of
    the default width."""
    n = draw(st.integers(5, 9))
    vs = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]
    missing = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    loose = draw(st.dictionaries(st.sampled_from(vs), st.integers(1, 2)))
    return LooseGraph.build(vs, [e for e in pairs if e not in missing], loose, draw(st.integers(0, 2)))


@given(
    loose_graphs(max_vertices=9) | dense_loose_graphs(),
    st.sampled_from([2, 3, 5, 7]),
    WIDTHS,
    ROW_CAPS,
)
@example(hexloose(), 5, 4, 4)
@example(generate("complete", 8), 3, pointcount.ROW_BITS, pointcount.ROW_CAP)
@example(hexloose(), 7, pointcount.ROW_BITS, pointcount.ROW_CAP)
@settings(max_examples=200)
def test_split_count_matches_one_set(g, p, width, cap):
    # most of these graphs have too many coordinates for count_from_definition
    assume(estimated_work(g, p) <= 40_000)
    with capped(width, cap):
        assert count_points(g, p) == count_points_one_set(g, p)


def recording_rows(record):
    """_rows, passing each group and the rows it made to record."""
    rows_of = pointcount._rows

    def recording(group, *args):
        rows = rows_of(group, *args)
        record(group, rows)
        return rows

    return patch.object(pointcount, "_rows", recording)


@pytest.mark.parametrize("cap", [64, 2048])
@pytest.mark.parametrize(
    "g, p",
    [(hexloose(), 13), (generate("johnson", 5, 2), 7), (generate("complete", 8), 3)],
    ids=["hexloose_13", "johnson_5_2_7", "k8_3"],
)
def test_every_table_fits_the_cap(g, p, cap):
    # cap bounds both the bits of a row and the rows (table) of one block
    widths, tables = [], []

    def record(group, rows):
        widths.extend(map(int.bit_length, rows.values()))
        tables.extend(p ** len(hi) for _, _, hi in group)

    with capped(cap, cap), recording_rows(record):
        assert count_points(g, p) == class_polynomial(g).evaluate(p)
    assert widths and max(widths) <= cap
    assert max(tables) <= cap


@pytest.mark.parametrize(
    "g, p", [(generate("path", 3000), 2), (generate("cycle", 2000), 3)], ids=["path_3000_2", "cycle_2000_3"]
)
def test_keys_have_one_digit_per_coordinate_of_their_lead(g, p):
    # besides itself a lead has at most D + D^2 coordinates at maximum degree
    # D, so no key grows with the graph; over all coordinates they reached
    # p^(n-1).  Rows one bit wide make every key the index of its own row.
    largest = []

    def record(group, rows):
        largest.extend(rows)

    with capped(1, pointcount.ROW_CAP), recording_rows(record):
        assert count_points(g, p) == class_polynomial(g).evaluate(p)
    degree = 2
    assert largest and max(largest) < p ** (degree + degree**2)


def test_rows_take_the_coordinates_free_in_the_most_keys():
    # so one OR sets many keys: 782,144 keys take 7,133 row ORs here, and
    # 426,557 with the least free coordinates on the bits
    g, p = hexloose(), 13
    ors = []

    def record(group, rows):
        ors.extend(p ** len(hi) for _, _, hi in group)

    with recording_rows(record):
        assert count_points(g, p) == class_polynomial(g).evaluate(p)
    assert 50 * sum(ors) < estimated_work(g, p)


def interpolate(points: list[tuple[int, int]]) -> Poly:
    """The polynomial of degree < len(points) through points (Lagrange);
    its coefficients must be integers."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(yi)]
        for j, (xj, _) in enumerate(points):
            if j != i:
                # basis *= (x - xj) / (xi - xj)
                basis = [(a - xj * b) / (xi - xj) for a, b in zip([0, *basis], [*basis, 0])]
        coeffs = [c + b for c, b in zip(coeffs, basis)]
    assert all(c.denominator == 1 for c in coeffs), coeffs
    return Poly(int(c) for c in coeffs)


def determined_class(g: LooseGraph) -> Poly:
    """The class from point counts alone.  It has degree at most D, the
    largest full degree (1 for a free edge), so granting that the count is
    a polynomial in q, the counts at D + 1 prime powers determine it; P(1)
    is not used."""
    degree = max([g.free and 1, *map(g.degree, g.vertices)])
    qs = PRIME_POWERS[: degree + 1]
    assert len(qs) == degree + 1, f"degree {degree} needs more than {len(PRIME_POWERS)} counts"
    assert estimated_work(g, qs[-1]) <= pointcount.DEFAULT_BUDGET
    return interpolate([(q, count_points(g, q)) for q in qs])


@pytest.mark.parametrize("name", [*corpus_graphs(), "johnson_5_2", "hexloose"])
def test_counts_at_prime_powers_determine_the_class(name):
    extra = {"johnson_5_2": generate("johnson", 5, 2), "hexloose": hexloose()}
    g = {**corpus_graphs(), **extra}[name]
    assert determined_class(g) == class_polynomial(g)


def test_a_perturbed_class_passes_verify_but_not_the_determining_counts(monkeypatch):
    # four values, P(2), P(3), P(5) and P(1) = |V|, fix a class only up to
    # degree 3; johnson 5 2 has degree 6
    g = generate("johnson", 5, 2)
    true = class_polynomial(g)
    perturbed = true + (L - 1) * (L - 2) * (L - 3) * (L - 5)
    monkeypatch.setattr(pointcount, "class_polynomial", lambda _: perturbed)
    assert verify(g, [2, 3, 5]).ok
    assert determined_class(g) == true != perturbed


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

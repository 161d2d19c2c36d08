"""Class polynomials: tree formula, cones, resolution differences, surgery."""

from __future__ import annotations

from itertools import combinations
from random import Random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    CLASS_COEFFS,
    K5_TRACE,
    K5_TREE_CLASS,
    STEP5_AFTER,
    STEP5_BEFORE,
    STEP5_DELTA,
    STEP5_EDGE,
    STEP5_GRAPH_LG,
    corpus_graphs,
    grid,
    random_loose_graph,
    random_loose_tree,
    relabelled,
)
from loosezeta import (
    LooseGraph,
    LooseGraphError,
    class_polynomial,
    count_points,
    generate,
    is_connected,
    parse,
    resolution_difference,
    surgery_trace,
    tree_class,
)
from loosezeta import grothendieck, surgery
from loosezeta.grothendieck import _census_class, canonical_key, chart_class
from loosezeta.polyring import L, Poly, exact_div
from loosezeta.surgery import connected_components, neighborhood, reduce, resolve
from paper_objects import cone, cone_class, local_after, local_before


def gamma_uvm(m: int, a: int = 0, b: int = 0, g_edges=(), resolved: bool = False) -> LooseGraph:
    """Two hub vertices with m common neighbors, an optional graph pattern on
    the neighbors and a/b loose edges at the hubs.  With ``resolved`` the hub
    edge is absent and a, b count all loose edges (the resolved one included,
    so the plain resolution of the hub edge is a = b = 1)."""
    vs = ["u", "v"] + [f"w{i}" for i in range(1, m + 1)]
    edges = [("u", f"w{i}") for i in range(1, m + 1)]
    edges += [("v", f"w{i}") for i in range(1, m + 1)]
    edges += [(f"w{i}", f"w{j}") for i, j in g_edges]
    if not resolved:
        edges.append(("u", "v"))
    loose = {"u": a, "v": b}
    return LooseGraph.build(vs, edges, {k: v for k, v in loose.items() if v})


# ---------------------------------------------------------------------------
# tree and star classes
# ---------------------------------------------------------------------------


def test_tree_class_examples():
    assert tree_class(parse("edge a b\n")) == L + 1
    for n in range(0, 6):
        assert tree_class(generate("affine", n)) == L**n
    # loose spanning tree of K5: five vertices of degree four
    star = generate("star", 4, 4)
    loose_tree = LooseGraph.build(
        star.vertices, star.edges, {v: 3 for v in star.vertices if v != "v0"}
    )
    assert all(loose_tree.degree(v) == 4 for v in loose_tree.vertices)
    assert tree_class(loose_tree) == 5 * L**4 - 4 * L + 4
    assert tree_class(LooseGraph.build(["a"])) == Poly((1,))


def test_tree_class_errors():
    with pytest.raises(LooseGraphError, match="cycle"):
        tree_class(generate("cycle", 3))
    with pytest.raises(LooseGraphError, match="disconnected"):
        tree_class(LooseGraph.build(["a", "b"]))
    with pytest.raises(LooseGraphError, match="free"):
        tree_class(LooseGraph.build(["a"], (), (), 1))


def test_star_class():
    # the loose star with n edges, k of them with an endpoint, is L^n + k
    for n in range(1, 7):
        for k in range(0, n + 1):
            assert tree_class(generate("star", n, k)) == L**n + k


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def test_cone_class_examples():
    single = LooseGraph.build(["z"])
    p1 = parse("edge a b\n")
    assert cone_class(single, p1) == L**2 + L + 1
    # projective plane minus a multiplicative group, coned with a line
    b_graph = parse("vertex x\nvertex y\nvertex z\nedge x y\nedge x z\n")
    assert cone_class(b_graph, p1) == L**4 + L**3 + L**2 + 2
    # two affine planes
    a2 = generate("affine", 2)
    a2_bis = LooseGraph.build(["q"], (), {"q": 2})
    assert cone_class(a2, a2_bis) == 2 * L**3 - L + 1


def test_cone_class_matches_engine_on_pairs():
    parts = {
        "vertex": LooseGraph.build(["p"]),
        "p1": parse("edge a b\n"),
        "k3": parse("edge c d\nedge d e\nedge e c\n"),
        "a2": LooseGraph.build(["q"], (), {"q": 2}),
        "path3": parse("edge f g\nedge g h\n"),
    }
    names = list(parts)
    for i, n1 in enumerate(names):
        for n2 in names[i + 1 :]:
            g1, g2 = parts[n1], parts[n2]
            assert cone_class(g1, g2) == class_polynomial(cone(g1, g2)), (n1, n2)
            assert cone_class(g1, g2) == cone_class(g2, g1)


def test_cone_class_errors():
    a2 = generate("affine", 2)
    with pytest.raises(LooseGraphError):
        cone_class(a2, a2)
    with pytest.raises(LooseGraphError):
        cone_class(a2, LooseGraph.build(["z"], (), (), 1))


# ---------------------------------------------------------------------------
# resolution differences and local classes
# ---------------------------------------------------------------------------


def test_resolution_difference_p1():
    p1 = parse("edge a b\n")
    assert resolution_difference(p1, ("a", "b")) == L - 1


def test_resolution_difference_gamma_family():
    for m in range(0, 5):
        g = gamma_uvm(m)
        expected = L ** (m + 1) - L**m + m * L**2 - 2 * m * L + m
        assert resolution_difference(g, ("u", "v")) == expected


def test_resolution_difference_requires_reduced():
    with pytest.raises(LooseGraphError):
        resolution_difference(generate("star", 2, 1), ("v0", "v1"))
    with pytest.raises(LooseGraphError):
        resolution_difference(generate("complete", 3), ("v1", "nope"))


def test_local_before_after_worked_step():
    g = parse(STEP5_GRAPH_LG)
    assert local_before(g, STEP5_EDGE) == Poly(STEP5_BEFORE)
    assert local_after(g, STEP5_EDGE) == Poly(STEP5_AFTER)
    assert resolution_difference(g, STEP5_EDGE) == Poly(STEP5_DELTA)


def test_local_before_after_p1():
    p1 = parse("edge a b\n")
    assert local_before(p1, ("a", "b")) == L + 1
    assert local_after(p1, ("a", "b")) == 2 * L


def piece_classes(nd) -> list[Poly]:
    """Embedded class [C^j] of each component of gl."""
    gl = dict(nd.charts_gl)
    return [chart_class({v: gl[v] for v in comp}) for comp in nd.components]


def test_embedded_piece_classes_share_targets():
    # two adjacent common neighbors whose loose edges point at one vertex:
    # embedded class L^2 + L, not the abstract loose-tree value 2L^2 - L + 1
    g = parse(STEP5_GRAPH_LG)
    nd = neighborhood(g, STEP5_EDGE)
    pieces = piece_classes(nd)
    assert len(pieces) == 1
    assert pieces[0] == L**2 + L


def test_piece_classes_on_components_remark():
    # loose edges of different components meeting in one vertex must be
    # counted per component: two affine lines, not a punctured plane
    g = parse(
        "edge x y\nedge x u\nedge x v\nedge y u\nedge y v\nedge y w\nedge w u\nedge w v\n"
    )
    nd = neighborhood(g, ("x", "y"))
    pieces = piece_classes(nd)
    assert pieces == [L, L]


def test_chart_class_component_additivity():
    rng = Random(99)
    checked = 0
    while checked < 25:
        g = reduce(random_loose_graph(rng))[0]
        if not g.edges:
            continue
        e = g.edges[rng.randrange(g.n_edges)]
        nd = neighborhood(g, e)
        whole = chart_class(dict(nd.charts_gl))
        split = Poly(())
        for cj in piece_classes(nd):
            split = split + cj
        assert whole == split
        checked += 1


def cone_charts(charts, tips: tuple[str, ...]) -> dict[str, frozenset[str]]:
    """Charts of the cone joining the tips to every vertex of a piece: the
    tips become real vertices, adjacent to each other."""
    out = {v: frozenset(s) | frozenset(tips) for v, s in charts.items()}
    for t in tips:
        out[t] = frozenset(charts) | (frozenset(tips) - {t})
    return out


def eight_bracket_difference(nd) -> Poly:
    """The paper's resolution difference, bracket by bracket: L^2*[gl]
    - (L-1)*[glx] - (L-1)*[gly] summed over the components of gl, then
    - [C(gl,xy)] + [C(glx,xy)] - [C(glx,y)] + [C(gly,xy)] - [C(gly,x)]."""
    gl, glx, gly = dict(nd.charts_gl), dict(nd.charts_glx), dict(nd.charts_gly)
    x, y = nd.x, nd.y
    total = Poly(())
    for comp in nd.components:
        total = (
            total
            + L**2 * chart_class({v: gl[v] for v in comp})
            - (L - 1) * chart_class({v: glx[v] for v in comp})
            - (L - 1) * chart_class({v: gly[v] for v in comp})
        )
    return (
        total
        - chart_class(cone_charts(gl, (x, y)))
        + chart_class(cone_charts(glx, (x, y)))
        - chart_class(cone_charts(glx, (y,)))
        + chart_class(cone_charts(gly, (x, y)))
        - chart_class(cone_charts(gly, (x,)))
    )


@st.composite
def dense_graphs(draw) -> LooseGraph:
    """Reduced graphs on 7..9 vertices with edge probability at least 0.6."""
    n = draw(st.integers(7, 9))
    p = draw(st.floats(0.6, 1.0))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    vs = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]
    return LooseGraph.build(vs, [e for e in pairs if rng.random() < p])


@given(dense_graphs(), st.integers(0, 2**16))
def test_difference_matches_eight_brackets_on_dense_graphs(g, pick):
    assume(g.edges)
    e = g.edges[pick % g.n_edges]
    assert resolution_difference(g, e) == eight_bracket_difference(neighborhood(g, e))


def brute_force_chart_class(charts) -> Poly:
    """Inclusion-exclusion over every vertex subset that is a clique."""
    reals = sorted(charts)
    total = Poly(())
    for size in range(1, len(reals) + 1):
        for s in combinations(reals, size):
            if all(u in charts[v] for v in s for u in s if u != v):
                shared = frozenset.intersection(*(frozenset(charts[v]) for v in s))
                total = total + (1 - L) ** (size - 1) * L ** len(shared)
    return total


@st.composite
def shared_token_charts(draw) -> dict[str, frozenset[str]]:
    """Charts on up to 7 reals with symmetric real adjacency and phantom
    tokens drawn from a pool of three, so charts share phantoms."""
    n = draw(st.integers(0, 7))
    reals = [f"r{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(reals) for b in reals[i + 1 :]]
    adjacent = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    phantoms = st.frozensets(st.sampled_from(["p0", "p1", "p2"]))
    return {
        v: frozenset(u for u in reals if (u, v) in adjacent or (v, u) in adjacent) | draw(phantoms)
        for v in reals
    }


@given(shared_token_charts())
def test_chart_class_matches_brute_force(charts):
    assert chart_class(charts) == brute_force_chart_class(charts)


def test_local_difference_identity_on_corpus():
    for name, g in corpus_graphs().items():
        for e in g.edges:
            lhs = local_after(g, e) - local_before(g, e)
            assert lhs == resolution_difference(g, e), (name, e)


def test_local_difference_identity_on_random_graphs():
    rng = Random(2718)
    checked = 0
    while checked < 30:
        g = reduce(random_loose_graph(rng))[0]
        if not g.edges:
            continue
        e = g.edges[rng.randrange(g.n_edges)]
        assert local_after(g, e) - local_before(g, e) == resolution_difference(g, e)
        checked += 1


def test_difference_against_global_classes():
    # the difference must equal the global class change, including on edges
    # whose neighborhood has cross edges between the two balls
    cases = [generate("cycle", 4), generate("cycle", 5), parse(STEP5_GRAPH_LG)]
    rng = Random(31)
    for _ in range(15):
        g = reduce(random_loose_graph(rng))[0]
        if g.edges:
            cases.append(g)
    for g in cases:
        for e in g.edges:
            delta = resolution_difference(g, e)
            assert class_polynomial(resolve(g, e)) - class_polynomial(g) == delta


# ---------------------------------------------------------------------------
# class polynomial
# ---------------------------------------------------------------------------


def test_class_corpus_values():
    for name, g in corpus_graphs().items():
        assert class_polynomial(g) == Poly(CLASS_COEFFS[name]), name


def test_class_gamma_family_instance():
    g = gamma_uvm(2, a=2, b=1)
    assert class_polynomial(g) == L**5 + L**4 - L**3 + L**2 + 2


def test_class_degenerate_inputs():
    assert class_polynomial(LooseGraph.build()) == Poly(())
    assert class_polynomial(LooseGraph.build(["a"])) == Poly((1,))
    assert class_polynomial(LooseGraph.build((), (), (), 1)) == L - 1


def test_class_disjoint_union_additivity():
    rng = Random(13)
    for _ in range(20):
        g = random_loose_graph(rng)
        total = Poly(())
        for c in connected_components(g):
            total = total + class_polynomial(c)
        assert class_polynomial(g) == total


def test_class_complete_graphs():
    for n in range(1, 8):
        expected = Poly((1,) * n)
        assert class_polynomial(generate("complete", n)) == expected


def test_class_euler_count():
    rng = Random(77)
    graphs = list(corpus_graphs().values()) + [random_loose_graph(rng) for _ in range(30)]
    for g in graphs:
        assert class_polynomial(g).evaluate(1) == g.n_vertices


def test_class_degree_and_leading_coefficient():
    rng = Random(123)
    for _ in range(30):
        g = random_loose_graph(rng)
        p = class_polynomial(g)
        max_deg = max(g.degree(v) for v in g.vertices)
        assert p.degree == max_deg
        assert 1 <= p.coeffs[-1] <= g.n_vertices


def test_class_equals_tree_class_on_random_trees():
    rng = Random(55)
    for _ in range(60):
        t = random_loose_tree(rng, max_vertices=9)
        assert class_polynomial(t) == tree_class(t)


def test_spanning_tree_independence():
    # each relabelling draws another spanning tree; read back in the
    # original labels, the trees must not all be one tree
    rng = Random(909)
    for name, g in corpus_graphs().items():
        reference = class_polynomial(g)
        trees = set()
        for _ in range(5):
            h, new = relabelled(g, rng)
            trace = surgery_trace(h)
            assert trace.result_class == reference, name
            old = {b: a for a, b in new.items()}
            trees.add(frozenset(frozenset((old[a], old[b])) for a, b in trace.final_tree.edges))
        assert len(trees) >= 2, name


def test_canonical_key_is_the_graphs_fields(monkeypatch):
    k4 = generate("complete", 4)
    g = LooseGraph.build(k4.vertices, k4.edges, {"v1": 2}, 1)
    relabeled = LooseGraph.build(["x", "y", "z", "w"], [
        ("x", "y"), ("x", "z"), ("x", "w"), ("y", "z"), ("y", "w"), ("z", "w")
    ], {"x": 2}, 1)
    assert canonical_key(g) == (g.vertices, g.edges, g.loose, g.free)
    assert canonical_key(relabeled) != canonical_key(g)
    monkeypatch.setattr(grothendieck, "_memo", {})
    p = class_polynomial(g)
    assert list(grothendieck._memo) == [canonical_key(g)]
    # the relabelled copy missed: its class was computed and stored in g's place
    assert class_polynomial(relabeled) == p
    assert list(grothendieck._memo) == [canonical_key(relabeled)]


def test_the_memo_keeps_the_last_class_only(monkeypatch):
    monkeypatch.setattr(grothendieck, "_memo", {})
    for n in range(1, 51):
        class_polynomial(generate("path", n))
    path50 = generate("path", 50)
    assert list(grothendieck._memo) == [canonical_key(path50)]
    assert grothendieck._memo[canonical_key(path50)] == class_polynomial(path50)


def test_classes_of_empty_and_free_only_graphs():
    assert class_polynomial(LooseGraph()) == Poly(())
    for k in range(1, 4):
        assert class_polynomial(LooseGraph.build((), (), (), k)) == k * (L - 1)


def test_canonical_key_tells_c6_from_two_triangles(monkeypatch):
    # both are 2-regular on 6 vertices: same (degree, loose) multiset
    c6 = generate("cycle", 6)
    triangles = parse("edge a b\nedge b c\nedge a c\nedge x y\nedge y z\nedge x z\n")
    assert canonical_key(c6) != canonical_key(triangles)
    monkeypatch.setattr(grothendieck, "_memo", {})
    assert class_polynomial(c6) == _census_class(c6)
    assert class_polynomial(triangles) == _census_class(triangles) != _census_class(c6)


@st.composite
def switched_pairs(draw) -> tuple[LooseGraph, LooseGraph]:
    """A small loose graph and a relabelled copy after a few edge switches
    ab, cd -> ad, cb, which keep every degree and loose count: the pair has
    one (degree, loose) multiset and is often not isomorphic."""
    rng = draw(st.randoms(use_true_random=True))
    vs = [f"v{i}" for i in range(rng.randint(4, 7))]
    edges = {e for e in combinations(vs, 2) if rng.random() < 0.5}
    loose = {v: rng.randint(1, 2) for v in vs if rng.random() < 0.3}
    g = LooseGraph.build(vs, edges, loose, rng.randint(0, 1))
    for _ in range(3):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {tuple(sorted(e)) for e in ((a, d), (c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges = edges - {(a, b), (c, d)} | new
    h, _ = relabelled(LooseGraph.build(vs, edges, loose, g.free), rng)
    return g, h


@given(switched_pairs())
def test_equal_canonical_keys_mean_equal_classes(pair):
    g, h = pair
    if canonical_key(g) == canonical_key(h):
        assert _census_class(g) == _census_class(h)


# ---------------------------------------------------------------------------
# surgery traces
# ---------------------------------------------------------------------------


def test_surgery_trace_k5_full_table():
    trace = surgery_trace(generate("complete", 5))
    assert trace.final_tree_class == Poly(K5_TREE_CLASS)
    assert len(trace.steps) == 6
    for step, (delta, running) in zip(trace.steps, K5_TRACE):
        assert step.delta == Poly(delta)
        assert step.running_class == Poly(running)
    assert trace.result_class == Poly(CLASS_COEFFS["K5"])


def test_surgery_trace_telescopes():
    trace = surgery_trace(generate("johnson", 4, 2))
    running = trace.final_tree_class
    for step in trace.steps:
        running = running - step.delta
        assert step.running_class == running
    assert trace.result_class == class_polynomial(generate("johnson", 4, 2))


def test_surgery_trace_tree_and_cycle():
    t = generate("star", 4, 2)
    trace = surgery_trace(t)
    assert trace.steps == ()
    assert trace.final_tree_class == tree_class(t)
    tri = generate("cycle", 3)
    trace = surgery_trace(tri)
    assert len(trace.steps) == 1
    assert trace.final_tree_class == 3 * L**2 - 2 * L + 2
    assert trace.steps[0].delta == 2 * L**2 - 3 * L + 1
    assert trace.steps[0].running_class == L**2 + L + 1


def test_surgery_trace_builds_one_graph(monkeypatch):
    from loosezeta import grothendieck, loosegraph, surgery

    k5 = generate("complete", 5)
    g = LooseGraph.build(k5.vertices, k5.edges, {"v1": 2})
    made = []
    init = LooseGraph.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("surgery_trace() left its own steps or walked its input twice")

    monkeypatch.setattr(LooseGraph, "__init__", counting_init)
    for module in (loosegraph, grothendieck, surgery):
        for name in ("resolve", "spanning_tree", "tree_class", "is_connected", "_components"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    trace = surgery_trace(g)
    assert len(made) == 1 and len(trace.steps) == 6
    assert trace.graph_before(5) == g
    assert len(made) == 2  # a snapshot is built only when asked for


def test_graph_before_refuses_a_step_outside_the_trace():
    trace = surgery_trace(generate("complete", 4))
    assert len(trace.steps) == 3 and trace.graph_before(2) == generate("complete", 4)
    for i in (-1, -2, 3, 10):
        with pytest.raises(IndexError, match=f"^graph_before\\(\\): no step {i} in a trace of 3 steps$"):
            trace.graph_before(i)


def difference_by_the_formula(adj, x, y) -> Poly:
    """surgery._difference without its shortcut for an edge whose ends
    share no neighbor: the three chart classes of the formula, always, each
    chart a common neighbor's neighbors in the x-ball minus y, the y-ball
    minus x or the common neighbors, built here from the two balls."""
    ball_x, ball_y = set(adj[x]) - {y}, set(adj[y]) - {x}
    common = ball_x & ball_y
    glx = {v: frozenset(ball_x.intersection(adj[v])) for v in common}
    gly = {v: frozenset(ball_y.intersection(adj[v])) for v in common}
    g = {v: frozenset(common.intersection(adj[v])) for v in common}
    return (L - 1) * L ** len(common) + (L - 1) ** 2 * (chart_class(glx) + chart_class(gly) - chart_class(g))


def test_trace_is_the_same_without_the_no_common_neighbor_shortcut(monkeypatch):
    # johnson 5 2 and the random graphs have triangles, so both paths run
    rng = Random(20251019)
    graphs = [grid(6, 6), generate("johnson", 5, 2), generate("complete", 5), generate("hexahedron")]
    graphs += [g for g in (random_loose_graph(rng, 9, 16) for _ in range(60)) if is_connected(g)]
    calls = []
    monkeypatch.setattr(grothendieck, "chart_class", lambda charts: calls.append(charts) or chart_class(charts))
    traces = [surgery_trace(graphs[0])]
    assert len(traces[0].steps) == 25 and not calls  # no grid edge has a common neighbor
    traces += [surgery_trace(g) for g in graphs[1:]]
    assert calls
    monkeypatch.setattr(surgery, "_difference", difference_by_the_formula)
    assert [surgery_trace(g) for g in graphs] == traces


def test_surgery_trace_errors():
    with pytest.raises(LooseGraphError):
        surgery_trace(LooseGraph.build(["a", "b"]))
    with pytest.raises(LooseGraphError):
        surgery_trace(LooseGraph.build())


# ---------------------------------------------------------------------------
# closed-form families (sampled; the full grid runs in the acceptance suite)
# ---------------------------------------------------------------------------


def test_family_formulas_sample():
    for m in range(0, 5):
        assert class_polynomial(gamma_uvm(m)) == L ** (m + 1) + L**m + m
    g = gamma_uvm(3, a=2, b=3)
    assert class_polynomial(g) == L**6 + L**7 - L**4 + L**3 + 3
    r = gamma_uvm(2, a=1, b=1, resolved=True)
    assert class_polynomial(r) == 2 * L**3 + 2 * L**2 - 4 * L + 4
    with_g = gamma_uvm(2, a=0, b=0, g_edges=((1, 2),), resolved=True)
    pg = L + 1
    assert class_polynomial(with_g) == 2 * L**2 + pg * (L - 1) ** 2 + pg


def complete_multipartite(parts: tuple[int, ...]) -> LooseGraph:
    labelled = [(f"p{i}_{j}", i) for i, a in enumerate(parts) for j in range(a)]
    edges = [(u, w) for (u, i), (w, j) in combinations(labelled, 2) if i != j]
    return LooseGraph.build([v for v, _ in labelled], edges)


@pytest.mark.parametrize("parts", [(1,) * 5, (2, 2), (2, 2, 2), (3, 3, 3), (1, 2, 3), (4, 1)])
def test_complete_multipartite_closed_form(parts):
    # a clique takes at most one vertex from each part and its common
    # neighbors are the parts it misses, so the census factors over parts:
    # (prod_i (L^a_i + a_i (1 - L)) - L^(sum a_i)) / (1 - L)
    product = Poly((1,))
    for a in parts:
        product = product * (L**a + a * (1 - L))
    expected = exact_div(product - L ** sum(parts), 1 - L)
    g = complete_multipartite(parts)
    assert class_polynomial(g) == expected
    assert surgery_trace(g).result_class == expected
    for p in (2, 3):
        assert count_points(g, p) == expected.evaluate(p)

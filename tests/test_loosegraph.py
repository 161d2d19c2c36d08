"""Loose-graph model, parser, generators and structural algorithms."""

from __future__ import annotations

import re
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_loose_graph
from paper_objects import ambient_coordinates
from loosezeta import (
    GenerateError,
    LooseGraph,
    LooseGraphError,
    ParseError,
    class_polynomial,
    generate,
    is_connected,
    is_loose_tree,
    parse,
    serialize,
    tree_profile,
)
from loosezeta import families
from loosezeta.cli import main
from loosezeta.polyring import L, Poly, format_poly
from loosezeta.surgery import connected_components, delete_vertex, induced, neighborhood, reduce, resolve, spanning_tree
from paper_objects import cone


def test_readme_format_example_parses(monkeypatch, tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## The `.lg` format", 1)[1]
    block = section.split("```\n", 2)[1]
    expected = LooseGraph.build(["a", "b"], [("a", "b")], {"a": 1}, 1)
    text = format_poly(class_polynomial(expected), "L") + "\n"
    path = tmp_path / "readme.lg"
    path.write_text(block)

    def refuse(*args, **kwargs):
        raise AssertionError("LooseGraph.build called")

    # parse() makes build()'s checks, line by line, and constructs its
    # value itself, so neither it nor the class command calls build()
    monkeypatch.setattr(LooseGraph, "build", refuse)
    assert parse(block, strict=True) == parse(block) == expected
    assert main(["class", str(path)]) == 0
    assert capsys.readouterr() == (text, "")


def test_parse_p1():
    g = parse("vertex a\nvertex b\nedge a b\n")
    assert g.vertices == ("a", "b")
    assert g.edges == (("a", "b"),)
    assert not g.loose and g.free == 0


def test_parse_affine_plane():
    g = parse("vertex a\nloose a\nloose a\n")
    assert g.vertices == ("a",)
    assert g.loose == (("a", 2),)
    assert g.degree("a") == 2
    for query in (g.neighbors, g.graph_degree, g.loose_count, g.degree):
        with pytest.raises(LooseGraphError, match="^no vertex 'x'$"):
            query("x")


def test_parse_errors():
    with pytest.raises(ParseError, match="line 1.*loop"):
        parse("edge a a\n")
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        parse("edge a b\n# fine\nedge b a\n")
    with pytest.raises(ParseError, match="line 2"):
        parse("vertex a\nbogus a b\n")
    with pytest.raises(ParseError, match="strict"):
        parse("edge a b\n", strict=True)
    # strict mode passes when everything is declared
    g = parse("vertex a\nvertex b\nedge a b\nloose a\nfree\n", strict=True)
    assert g.free == 1 and g.loose == (("a", 1),)


def test_parse_tells_a_second_declaration_from_a_late_one():
    with pytest.raises(ParseError, match=r"^line 2: vertex 'a' declared twice$"):
        parse("vertex a\nvertex a\n")
    # the first occurrence of a was its use in an edge line, not a declaration
    with pytest.raises(ParseError, match=r"^line 2: vertex 'a' declared after its first use$"):
        parse("edge a b\nvertex a\n")
    with pytest.raises(ParseError, match=r"^line 3: vertex 'b' declared after its first use$"):
        parse("vertex a\nloose b\nvertex b\n")


def test_parse_ends_lines_at_crlf_and_lone_cr():
    for sep in ("\r\n", "\r", "\n"):
        assert parse(f"vertex a{sep}edge a b{sep}loose b{sep}").edges == (("a", "b"),)
        with pytest.raises(ParseError, match=r"^line 2: vertex 'a' declared twice$"):
            parse(f"vertex a{sep}vertex a{sep}")


def test_parse_drops_one_leading_byte_order_mark():
    # some editors save UTF-8 with a byte order mark (U+FEFF) in front
    assert parse("\ufeffvertex a\nedge a b\n") == parse("vertex a\nedge a b\n")
    assert parse("\ufeff# header\nedge a b\n").edges == (("a", "b"),)
    # anywhere else, a second one included, U+FEFF is part of a token
    with pytest.raises(ParseError, match=r"^line 1: unknown directive '\\ufeffvertex'$"):
        parse("\ufeff\ufeffvertex a\n")
    with pytest.raises(ParseError, match=r"^line 2: unknown directive '\\ufeffvertex'$"):
        parse("vertex a\n\ufeffvertex b\n")
    with pytest.raises(ParseError, match=r"^line 1: invalid name '\\ufeffa'$"):
        parse("vertex \ufeffa\n")


def test_parse_first_mention_order_and_comments():
    g = parse("# a header\n\nedge z y\nedge y x\nloose w\n")
    assert g.vertices == ("z", "y", "x", "w")


def test_serialize_round_trip():
    rng = Random(11)
    for _ in range(40):
        g = random_loose_graph(rng)
        text = serialize(g)
        h = parse(text)
        assert set(h.edges) == set(g.edges)
        assert dict(h.loose) == dict(g.loose)
        assert h.free == g.free
        assert serialize(h) == text  # canonical form is a fixed point


def test_generate_families():
    k5 = generate("complete", 5)
    assert k5.n_vertices == 5 and k5.n_edges == 10
    s42 = generate("star", 4, 2)
    assert s42.n_vertices == 3 and s42.n_edges == 2
    assert s42.degree("v0") == 4 and s42.loose_count("v0") == 2
    a3 = generate("affine", 3)
    assert a3.n_vertices == 1 and dict(a3.loose) == {"o": 3}
    p2 = generate("projective", 2)
    assert set(p2.edges) == set(generate("complete", 3).edges)
    j42 = generate("johnson", 4, 2)
    assert j42.n_vertices == 6 and j42.n_edges == 12
    assert all(j42.degree(v) == 4 for v in j42.vertices)
    hexa = generate("hexahedron")
    assert hexa.n_vertices == 8 and hexa.n_edges == 12
    assert all(hexa.degree(v) == 3 for v in hexa.vertices)
    cyc = generate("cycle", 4)
    assert cyc.n_edges == 4 and all(cyc.degree(v) == 2 for v in cyc.vertices)
    path = generate("path", 2)
    assert path.n_edges == 1


def test_generate_errors():
    cases = [
        (("blorb", 3), "unknown family 'blorb'"),
        (("star", 2, 5), "star needs 0 <= k <= n"),
        (("cycle", 2), "cycle needs n >= 3"),
        (("complete",), "complete takes 1 parameter(s), got 0"),
        (("star", 3), "star takes 2 parameter(s), got 1"),
        (("hexahedron", 1), "hexahedron takes 0 parameter(s), got 1"),
        (("johnson", 4, 2, 1), "johnson takes 2 parameter(s), got 3"),
        (("affine",), "affine takes 1 parameter(s), got 0"),
        (("complete", 0), "complete needs n >= 1"),
        (("projective", -1), "projective needs n >= 0"),
        (("star", 0, 0), "star needs n >= 1"),
        (("star", 0, 1), "star needs n >= 1"),  # fails both conditions: the first is named
        (("affine", -1), "affine needs n >= 0"),
        (("path", 0), "path needs n >= 1"),
        (("johnson", 3, 0), "johnson needs 1 <= k <= n"),
        (("johnson", 3, 4), "johnson needs 1 <= k <= n"),
    ]
    for args, message in cases:
        with pytest.raises(GenerateError) as info:
            generate(*args)
        assert str(info.value) == message, args


def test_generate_smallest_parameters():
    # the least parameters of each domain build, with these vertex and edge counts
    cases = [
        (("complete", 1), 1, 0),
        (("projective", 0), 1, 0),
        (("star", 1, 0), 1, 0),
        (("star", 1, 1), 2, 1),
        (("affine", 0), 1, 0),
        (("path", 1), 1, 0),
        (("cycle", 3), 3, 3),
        (("johnson", 1, 1), 1, 0),
        (("johnson", 3, 3), 1, 0),
    ]
    for args, n_vertices, n_edges in cases:
        g = generate(*args)
        assert (g.n_vertices, g.n_edges) == (n_vertices, n_edges), args


def test_readme_states_each_family_with_its_domain():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    line = " ".join(re.search(r"Built-in families, each with its domain:(.*?)\.\s", readme, re.S)[1].split())
    stated = re.findall(r"`([^`]+)`(?: \(([^)]*)\))?", line)
    expected = []
    for family, (make, *conditions) in families._FAMILIES.items():
        params = make.__code__.co_varnames[: make.__code__.co_argcount]
        expected.append((" ".join([family, *params]), ", ".join(text for text, _ in conditions)))
    assert stated == expected


def test_build_validation():
    # strict parse()'s messages, with no line number, as a plain LooseGraphError
    cases = [
        ((["a"], [("a", "a")]), "loop at vertex 'a'"),
        ((["a"], [("a", "b")]), "undeclared vertex 'b' (strict mode)"),
        ((["a", "a"],), "vertex 'a' declared twice"),
        ((["a", "b"], [("a", "b"), ("b", "a")]), "duplicate edge b a"),
        ((["a-b"],), "invalid name 'a-b'"),
        (([1],), "invalid name 1"),
        ((["a"], [("a", 1)]), "invalid name 1"),
        ((["a"], (), {1: 1}), "invalid name 1"),
        (([b"a"],), "invalid name b'a'"),
        (([["a"]],), "invalid name ['a']"),
        ((["a"], [("a", ["b"])]), "invalid name ['b']"),
        ((["a"], (), [(["a"], 1)]), "invalid name ['a']"),
        ((["a"], (), {"b": 1}), "undeclared vertex 'b' (strict mode)"),
        ((["a"], (), {"a": -1}), "negative loose-edge count"),
        ((["a"], (), (), -1), "negative free-edge count"),
    ]
    for args, message in cases:
        with pytest.raises(LooseGraphError) as info:
            LooseGraph.build(*args)
        assert type(info.value) is LooseGraphError and str(info.value) == message


VALID = ["a", "b", "c", "x_1"]
ODD = ["d", "a-b", "#c", "\u00e9"]  # undeclared, or no name at all; none has whitespace


@st.composite
def directive_lists(draw):
    """Vertices, edges, loose (vertex, count) pairs and a free count over a few
    names: mostly declared once and valid, sometimes declared twice, undeclared
    or invalid.  An edge may be a loop or come again, either way round."""
    vertices = draw(st.lists(st.sampled_from(VALID), max_size=4, unique=True))
    odd = draw(st.sampled_from([None, *VALID, *ODD]))
    if odd is not None and draw(st.booleans()):
        vertices.append(odd)  # declared twice, or no name declared
    name = st.sampled_from(vertices + [odd] if odd else vertices or ODD)
    edges = draw(st.lists(st.tuples(name, name), max_size=4))
    if edges and draw(st.booleans()):
        a, b = draw(st.sampled_from(edges))
        edges.append(draw(st.sampled_from([(a, b), (b, a)])))
    loose = draw(st.lists(st.tuples(name, st.integers(1, 2)), max_size=3))
    return vertices, edges, loose, draw(st.integers(0, 2))


@given(directive_lists())
def test_build_and_strict_parse_agree(directives):
    vertices, edges, loose, free = directives
    # the same directives, as library values and as strict `.lg` lines in build()'s order
    text = "".join(
        [f"vertex {v}\n" for v in vertices]
        + [f"edge {a} {b}\n" for a, b in edges]
        + [f"loose {v}\n" * k for v, k in loose]
        + ["free\n" * free]
    )
    try:
        expected = parse(text, strict=True)
    except ParseError as exc:
        with pytest.raises(LooseGraphError) as info:
            LooseGraph.build(vertices, edges, loose, free)
        assert type(info.value) is LooseGraphError
        assert str(info.value) == str(exc).removeprefix(f"line {exc.lineno}: ")
    else:
        assert LooseGraph.build(vertices, edges, loose, free) == expected


def test_build_keeps_loose_and_free_counts_as_counts():
    # a count is added once, never expanded into one item per edge
    g = LooseGraph.build(["o"], (), {"o": 10**12}, 10**12)
    assert g.loose == (("o", 10**12),) and g.free == 10**12
    assert LooseGraph.build(["o"], (), [("o", 2), ("o", 0), ("o", 3)]).loose == (("o", 5),)
    with pytest.raises(LooseGraphError, match="^negative loose-edge count$"):
        LooseGraph.build(["o"], (), {"o": -(10**12)})
    with pytest.raises(LooseGraphError, match="^negative free-edge count$"):
        LooseGraph.build(["o"], (), {"o": 10**12}, -1)


@pytest.mark.parametrize("count", [1.5, "1", True, None])
def test_build_refuses_a_count_that_is_not_an_integer(count):
    # the rule Poly applies to its coefficients; a bool is not a count
    with pytest.raises(LooseGraphError, match=f"^loose-edge count {re.escape(repr(count))} is not an integer$"):
        LooseGraph.build(["o"], (), {"o": count})
    with pytest.raises(LooseGraphError, match=f"^free-edge count {re.escape(repr(count))} is not an integer$"):
        LooseGraph.build(["o"], (), [("o", 1)], count)


def test_reduce():
    a2 = generate("affine", 2)
    reduced, corr = reduce(a2)
    assert reduced.n_vertices == 1 and not reduced.loose and not reduced.free
    assert corr == L**2 - 1
    k4 = generate("complete", 4)
    same, zero = reduce(k4)
    assert set(same.edges) == set(k4.edges) and zero == Poly(())
    s21 = generate("star", 2, 1)  # center, one endpoint, one loose edge
    reduced, corr = reduce(s21)
    assert reduced.n_edges == 1
    assert corr == L**2 - L
    free_one = LooseGraph.build((), (), (), 1)
    _, corr = reduce(free_one)
    assert corr == L - 1


def test_resolve():
    p1 = parse("edge a b\n")
    r = resolve(p1, ("a", "b"))
    assert r.n_edges == 0 and dict(r.loose) == {"a": 1, "b": 1}
    tri = generate("cycle", 3)
    b = resolve(tri, ("v1", "v2"))
    assert b.n_edges == 2 and dict(b.loose) == {"v1": 1, "v2": 1}
    with pytest.raises(LooseGraphError):
        resolve(p1, ("a", "c"))
    with pytest.raises(LooseGraphError):
        resolve(r, ("a", "b"))  # already resolved, no such 2-vertex edge


def test_resolve_preserves_degrees():
    rng = Random(5)
    for _ in range(25):
        g = random_loose_graph(rng)
        if not g.edges:
            continue
        e = g.edges[rng.randrange(g.n_edges)]
        r = resolve(g, e)
        for v in g.vertices:
            assert r.degree(v) == g.degree(v)


def test_spanning_tree():
    k5 = generate("complete", 5)
    tree, fundamental = spanning_tree(k5)
    assert len(fundamental) == 6
    assert tree.n_edges == k5.n_vertices - 1
    assert set(fundamental) | set(tree.edges) == set(k5.edges)
    t = generate("path", 4)
    _, fund = spanning_tree(t)
    assert fund == ()
    cyc = generate("cycle", 4)
    _, fund = spanning_tree(cyc)
    assert len(fund) == 1
    with pytest.raises(LooseGraphError):
        spanning_tree(LooseGraph.build(["a", "b"]))
    with pytest.raises(LooseGraphError):
        spanning_tree(LooseGraph.build())


def test_spanning_tree_keeps_loose_edges():
    g = parse("edge a b\nedge b c\nedge c a\nloose a\nloose a\n")
    tree, fundamental = spanning_tree(g)
    assert dict(tree.loose) == {"a": 2}
    assert len(fundamental) == 1


def test_components():
    two_triangles = parse("edge a b\nedge b c\nedge c a\nedge x y\nedge y z\nedge z x\n")
    assert len(connected_components(two_triangles)) == 2
    mixed = LooseGraph.build(["a"], (), (), 1)
    comps = connected_components(mixed)
    assert len(comps) == 2
    assert any(c.free == 1 and not c.vertices for c in comps)
    assert len(connected_components(generate("complete", 5))) == 1
    assert is_connected(generate("complete", 5))


def test_is_loose_tree():
    assert is_loose_tree(generate("star", 4, 2))
    assert is_loose_tree(generate("affine", 3))
    assert not is_loose_tree(generate("cycle", 3))
    assert not is_loose_tree(LooseGraph.build(["a", "b"]))  # disconnected
    assert not is_loose_tree(LooseGraph.build((), (), (), 1))
    assert not is_loose_tree(LooseGraph())
    assert not is_loose_tree(LooseGraph.build(["a", "b"], [("a", "b")], (), 1))  # a tree plus a free edge


def test_tree_profile():
    p1 = parse("edge a b\n")
    prof = tree_profile(p1)
    assert prof.degree_counts == () and prof.inner_minus_one == -1 and prof.endpoints == 2
    s42 = generate("star", 4, 2)
    prof = tree_profile(s42)
    assert prof.degree_counts == ((4, 1),) and prof.inner_minus_one == 0 and prof.endpoints == 2


def test_cone():
    k3 = cone(parse("edge a b\n"), LooseGraph.build(["z"]))
    assert set(k3.edges) == set(generate("complete", 3).edges) or k3.n_edges == 3
    k4 = cone(parse("edge a b\n"), parse("edge c d\n"))
    assert k4.n_edges == 6 and k4.n_vertices == 4
    a2 = generate("affine", 2)
    other = LooseGraph.build(["q"], (), {"q": 2})
    t = cone(a2, other)
    assert is_loose_tree(t)
    assert sorted(t.degree(v) for v in t.vertices) == [3, 3]
    with pytest.raises(LooseGraphError):
        cone(a2, a2)


def test_neighborhood_gamma_uvm():
    m = 3
    g = parse(
        "edge u v\nedge u w1\nedge v w1\nedge u w2\nedge v w2\nedge u w3\nedge v w3\n"
    )
    nd = neighborhood(g, ("u", "v"))
    assert nd.g.n_vertices == 3 and nd.g.n_edges == 0
    assert nd.gl.n_edges == 0 and not nd.gl.loose
    # the xy-cone is the original loose graph again
    cone_gl_xy = cone(nd.gl, LooseGraph.build(["u", "v"], [("u", "v")]))
    assert cone_gl_xy.n_vertices == m + 2 and cone_gl_xy.n_edges == 2 * m + 1
    assert len(nd.components) == m


def test_neighborhood_on_components_remark():
    g = parse(
        "edge x y\nedge x u\nedge x v\nedge y u\nedge y v\nedge y w\nedge w u\nedge w v\n"
    )
    nd = neighborhood(g, ("x", "y"))
    assert set(nd.gl.vertices) == {"u", "v"}
    assert nd.gl.n_edges == 0
    assert dict(nd.gl.loose) == {"u": 1, "v": 1}
    assert nd.components == (("u",), ("v",))
    # the loose edges point at w, recorded in the charts
    assert dict(nd.charts_gl) == {"u": frozenset({"w"}), "v": frozenset({"w"})}
    # only y sees w, so the x-side loses those edges
    assert dict(nd.charts_glx) == {"u": frozenset(), "v": frozenset()}


def test_neighborhood_k4():
    nd = neighborhood(generate("complete", 4), ("v1", "v2"))
    assert nd.g.n_vertices == 2 and nd.g.n_edges == 1
    assert nd.gl.n_edges == 1 and not nd.gl.loose


def test_neighborhood_requires_reduced_and_edge():
    with pytest.raises(LooseGraphError):
        neighborhood(generate("star", 2, 1), ("v0", "v1"))
    with pytest.raises(LooseGraphError):
        neighborhood(generate("complete", 3), ("v1", "v9"))


def test_neighborhood_g_is_subgraph_of_views():
    rng = Random(23)
    checked = 0
    while checked < 20:
        g = random_loose_graph(rng)
        g = reduce(g)[0]
        if not g.edges:
            continue
        e = g.edges[rng.randrange(g.n_edges)]
        nd = neighborhood(g, e)
        assert set(nd.g.edges) == set(induced(g, nd.g.vertices).edges)
        for view in (nd.gl, nd.glx, nd.gly):
            assert set(view.vertices) == set(nd.g.vertices)
            assert set(nd.g.edges) <= set(view.edges)
        checked += 1


def test_induced_and_ambient():
    g = parse("edge a b\nedge b c\nloose c\nfree\n")
    sub = induced(g, ["b", "c"])
    assert set(sub.edges) == {("b", "c")} and dict(sub.loose) == {"c": 1}
    with pytest.raises(LooseGraphError, match="^induced\\(\\): unknown vertex in subset$"):
        induced(g, ["nope"])
    with pytest.raises(LooseGraphError, match="^no vertex 'nope'$"):
        delete_vertex(g, "nope")
    # delete_vertex keeps the free edge and the other vertices' loose edges
    assert delete_vertex(g, "b") == LooseGraph(("a", "c"), (), (("c", 1),), 1)
    assert delete_vertex(g, "c") == LooseGraph(("a", "b"), (("a", "b"),), (), 1)
    # 3 vertices + 1 loose phantom + 2 free phantoms
    assert len(ambient_coordinates(g)) == 6
